#include "host_speed.hh"

#include <cstdint>
#include <cstdio>
#include <vector>

#include "stats.hh"
#include "trace.hh"

namespace e2e
{

namespace
{

/** Table words: 256 KiB, resident in one core's L2. */
constexpr size_t kTableWords = 1 << 15;
/** Steps per pass: about kReferencePassMs on the reference host. */
constexpr uint64_t kStepsPerPass = 200000;

/** The kernel's table, filled once; passes keep mutating it. */
std::vector<uint64_t> &
table()
{
    static std::vector<uint64_t> words = [] {
        std::vector<uint64_t> w(kTableWords);
        for (size_t i = 0; i < w.size(); ++i)
            w[i] = i * 0x9E3779B97F4A7C15ull;
        return w;
    }();
    return words;
}

/**
 * One pass: xorshift-driven dependent loads and stores over the table,
 * integer multiplies and a data-dependent branch — the mix of the
 * program's generation path (row-buffer simulation, bit mixing,
 * hashing) without any of its code.
 */
uint64_t
kernelPass(std::vector<uint64_t> &words)
{
    uint64_t x = 0x2545F4914F6CDD1Dull;
    uint64_t acc = 0;
    for (uint64_t step = 0; step < kStepsPerPass; ++step) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        size_t i = (x ^ acc) & (kTableWords - 1);
        acc += words[i] * (x | 1);
        words[(i * 7 + 1) & (kTableWords - 1)] ^= acc;
        if (acc & 1)
            acc = (acc << 5) | (acc >> 59);
    }
    return acc;
}

} // anonymous namespace

std::vector<double>
timeKernelPasses(unsigned passes)
{
    std::vector<uint64_t> &words = table();
    std::vector<double> ms;
    volatile uint64_t sink = 0;
    for (unsigned p = 0; p < passes; ++p) {
        uint64_t t0 = trace::nowNs();
        sink = sink + kernelPass(words);
        ms.push_back(static_cast<double>(trace::nowNs() - t0) / 1e6);
    }
    return ms;
}

double
HostSpeed::medianPassMs() const
{
    std::vector<double> all = startMs;
    all.insert(all.end(), endMs.begin(), endMs.end());
    return median(all);
}

double
HostSpeed::speed() const
{
    double ms = medianPassMs();
    return ms > 0 ? kReferencePassMs / ms : 1.0;
}

std::string
HostSpeed::json() const
{
    double start = median(startMs);
    double end = median(endMs);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"start_pass_ms\": %.4f, \"end_pass_ms\": %.4f, "
                  "\"speed\": %.4f, \"drift\": %.4f}",
                  start, end, speed(), start > 0 ? end / start - 1.0 : 0.0);
    return buf;
}

} // namespace e2e
