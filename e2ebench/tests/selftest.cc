/**
 * @file
 * Self-tests of the benchmark's own logic: percentile math, the
 * per-shard SHA identity checker and the rate-ladder stop rule.
 * Run with `python3 e2ebench/run.py --selftest` (exit 0 = all pass).
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/fault_injection.hh"
#include "shard_check.hh"
#include "stats.hh"

namespace
{

int g_failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok)
        ++g_failures;
}

void
testPercentile()
{
    std::vector<uint64_t> empty;
    expect(e2e::percentile(empty, 0.99) == 0, "percentile of empty set is 0");

    std::vector<uint64_t> one = {7};
    expect(e2e::percentile(one, 0.5) == 7 && e2e::percentile(one, 0.99) == 7,
           "single sample is every percentile");

    // 1..100 shuffled: nearest rank gives p50 = 50, p99 = 99, p100 = 100.
    std::vector<uint64_t> v;
    for (uint64_t i = 0; i < 100; ++i)
        v.push_back((i * 37) % 100 + 1);
    expect(e2e::percentile(v, 0.50) == 50, "p50 of 1..100 is 50");
    expect(e2e::percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
    expect(e2e::percentile(v, 1.0) == 100, "p100 of 1..100 is 100");
    expect(e2e::percentile(v, 0.0) == 1, "p0 of 1..100 is 1");

    // p99 of 1000 samples with 10 outliers lands on an outlier.
    std::vector<uint64_t> tail(990, 5);
    for (int i = 0; i < 10; ++i)
        tail.push_back(1000);
    expect(e2e::percentile(tail, 0.99) == 5, "p99 with 10 outliers of 1000");
    tail.push_back(1000);
    expect(e2e::percentile(tail, 0.99) == 1000,
           "p99 with 11 outliers of 1001");

    expect(e2e::median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
    expect(e2e::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");

    // Median of windows: one stalled window does not move it.
    e2e::WindowedLatency w(0, 100);
    for (uint64_t win = 0; win < 5; ++win) {
        for (uint64_t i = 0; i < 10; ++i)
            w.add(win * 100 + i, win == 2 ? 9000000 : 1000 + i + win);
    }
    w.add(799, 1); // window 7 holds one sample: below the minimum
    std::vector<double> p50s = w.windowValuesUs(0.5, 10);
    expect(p50s.size() == 5, "every window with enough samples counts");
    // Window p50s 1.004, 1.005, 9000 (stalled), 1.007, 1.008 us.
    expect(std::fabs(w.medianOfWindowsUs(0.5, 10) - 1.007) < 1e-9,
           "median of window p50s ignores one stalled window");
    expect(std::fabs(w.medianOfWindowsUs(0.99, 10) - 1.012) < 1e-9,
           "median of window p99s ignores one stalled window");
}

void
testShardCheck()
{
    constexpr size_t kBytes = 10000;
    // What a shard served, in order, in uneven request sizes.
    auto served = [](uint64_t seed) {
        quac::core::SoftwareTrng backend(seed);
        std::vector<uint8_t> bytes(kBytes);
        size_t off = 0;
        for (size_t len : {1u, 64u, 1000u, 3u, 4096u}) {
            backend.fill(bytes.data() + off, len);
            off += len;
        }
        bytes.resize(off);
        return bytes;
    };

    {
        std::vector<uint8_t> bytes = served(42);
        e2e::ShardStreams streams(1);
        streams.add(0, bytes.data(), 500);
        streams.add(0, bytes.data() + 500, bytes.size() - 500);
        quac::core::SoftwareTrng fresh(42);
        e2e::ShardVerdict v = e2e::checkShard(streams, 0, fresh);
        expect(v.match && v.bytes == bytes.size(),
               "intact stream matches the fresh-backend prefix");
    }
    {
        std::vector<uint8_t> bytes = served(42);
        bytes[777] ^= 0x10;
        e2e::ShardStreams streams(1);
        streams.add(0, bytes.data(), bytes.size());
        quac::core::SoftwareTrng fresh(42);
        expect(!e2e::checkShard(streams, 0, fresh).match,
               "one flipped byte is caught");
    }
    {
        std::vector<uint8_t> bytes = served(42);
        e2e::ShardStreams streams(1);
        streams.add(0, bytes.data() + 64, bytes.size() - 64);
        streams.add(0, bytes.data(), 64);
        quac::core::SoftwareTrng fresh(42);
        expect(!e2e::checkShard(streams, 0, fresh).match,
               "reordered payloads are caught");
    }
    {
        std::vector<uint8_t> bytes = served(42);
        e2e::ShardStreams streams(1);
        streams.add(0, bytes.data(), bytes.size());
        quac::core::SoftwareTrng other(43);
        expect(!e2e::checkShard(streams, 0, other).match,
               "a different backend seed is caught");
    }
}

/** Drive a ladder (start 100, coarse x1.1, fine x1.02) whose true
 * knee is @p knee; @p hiccup_at fails one rung spuriously. Returns
 * the ladder's answer. */
double
climb(double knee, double hiccup_at, unsigned max_rungs,
      unsigned *rungs = nullptr)
{
    e2e::RateLadder ladder(100.0, 1.1, 1.02, 1000.0, max_rungs);
    bool hiccuped = false;
    while (!ladder.done()) {
        double rate = ladder.rate();
        bool spurious = !hiccuped && rate >= hiccup_at;
        if (spurious)
            hiccuped = true;
        double p99 = rate <= knee && !spurious ? 500.0 : 5000.0;
        ladder.record(p99, 0);
    }
    if (rungs != nullptr)
        *rungs = ladder.rungs();
    return ladder.best();
}

void
testLadder()
{
    e2e::RateLadder probe(100.0, 1.1, 1.02, 1000.0, 8);
    expect(probe.passes(1000.0, 0), "p99 at the SLO passes");
    expect(!probe.passes(1000.1, 0), "p99 above the SLO fails");
    expect(!probe.passes(10.0, 1), "any loss fails the rung");

    // Coarse rungs 100, 110, 121, 133.1 pass; 146.41 fails twice.
    // Fine rungs from 133.1: 135.762, 138.477 pass; 141.247 fails
    // twice. Answer 138.477.
    unsigned rungs = 0;
    double best = climb(140.0, 1e18, 64, &rungs);
    double expect_best = 133.1 * 1.02 * 1.02;
    expect(std::fabs(best - expect_best) < 1e-9,
           "coarse then fine climb stops below the knee");
    expect(rungs == 10, "4 coarse passes + 2 fails, 2 fine passes + 2 fails");

    best = climb(140.0, 120.0, 64);
    expect(std::fabs(best - expect_best) < 1e-9,
           "one spurious failure is retried, not the answer");

    // Knee between fine steps below the coarse failure: the fine
    // climb stops before re-offering the rate that already failed.
    best = climb(146.0, 1e18, 64);
    expect(best < 146.41 && best > 146.41 / 1.02,
           "fine climb never reaches a confirmed-failed rate");

    best = climb(1e18, 1e18, 5);
    expect(std::fabs(best - 100.0 * std::pow(1.1, 4)) < 1e-9,
           "rung budget caps the climb at the last passing rung");

    // Knee below the start: step down until a rung passes, then
    // climb fine steps from there.
    best = climb(80.0, 1e18, 64);
    expect(best <= 80.0 && best > 80.0 / 1.02,
           "a failing first rung steps down, then refines");

    best = climb(1.0, 1e18, 6);
    expect(best == 0.0, "no passing rung answers 0");
}

} // anonymous namespace

int
main()
{
    testPercentile();
    testShardCheck();
    testLadder();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
