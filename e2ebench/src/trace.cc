#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include <time.h>

namespace e2e::trace
{

namespace
{

struct Record
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t requestId = 0;
    uint64_t items = 0;
    /** Thread CPU time at start, then the span's CPU time (poll). */
    uint64_t cpuNs = 0;
    /** Index of the parent record in the same log, -1 for none. */
    int64_t parent = -1;
    Kind kind = Kind::Poll;
};

/** One thread's spans. Owned by the registry so they outlive the
 * thread that wrote them. */
struct ThreadLog
{
    std::vector<Record> records;
    std::vector<int64_t> open;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registryMutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = nullptr;
    if (log == nullptr) {
        std::lock_guard<std::mutex> lock(g_registryMutex);
        g_logs.push_back(std::make_unique<ThreadLog>());
        log = g_logs.back().get();
    }
    return *log;
}

/** Calling thread's CPU time in ns. */
uint64_t
threadCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Poll spans are timed in CPU time too: a poll blocks in epoll_wait
 * until traffic arrives, and that wait is not work. */
bool
wantsCpuTime(Kind kind)
{
    return kind == Kind::Poll;
}

/** The span's busy time: CPU time where captured, else wall time. */
uint64_t
busyNs(const Record &r)
{
    return wantsCpuTime(r.kind) ? r.cpuNs : r.endNs - r.startNs;
}

} // anonymous namespace

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Poll:
        return "poll";
    case Kind::Fill:
        return "fill";
    case Kind::Request:
        return "request";
    case Kind::Setup:
        return "setup";
    }
    return "?";
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setEnabled(bool on)
{
    g_enabled.store(on);
}

bool
enabled()
{
    // relaxed: each span reads the switch once; span data reaches the
    // reader through thread joins, not through this flag.
    return g_enabled.load(std::memory_order_relaxed);
}

Span::Span(Kind kind, uint64_t request_id)
{
    if (!enabled())
        return;
    ThreadLog &log = threadLog();
    Record r;
    r.kind = kind;
    r.requestId = request_id;
    r.parent = log.open.empty() ? -1 : log.open.back();
    index_ = static_cast<int64_t>(log.records.size());
    log.open.push_back(index_);
    if (wantsCpuTime(kind))
        r.cpuNs = threadCpuNs();
    r.startNs = nowNs();
    log.records.push_back(r);
}

Span::~Span()
{
    if (index_ < 0)
        return;
    ThreadLog &log = threadLog();
    Record &r = log.records[static_cast<size_t>(index_)];
    r.endNs = nowNs();
    if (wantsCpuTime(r.kind))
        r.cpuNs = threadCpuNs() - r.cpuNs;
    log.open.pop_back();
}

void
Span::setItems(uint64_t items)
{
    if (index_ >= 0)
        threadLog().records[static_cast<size_t>(index_)].items = items;
}

std::array<KindSummary, kKinds>
summarize(uint64_t since_ns)
{
    std::array<KindSummary, kKinds> out{};
    std::lock_guard<std::mutex> lock(g_registryMutex);
    for (auto &log : g_logs) {
        const std::vector<Record> &recs = log->records;
        std::vector<uint64_t> childNs(recs.size(), 0);
        for (const Record &r : recs) {
            if (r.parent >= 0)
                childNs[static_cast<size_t>(r.parent)] +=
                    r.endNs - r.startNs;
        }
        for (size_t i = 0; i < recs.size(); ++i) {
            const Record &r = recs[i];
            if (r.startNs < since_ns && r.kind != Kind::Setup)
                continue;
            uint64_t dur = r.endNs - r.startNs;
            uint64_t busy = busyNs(r);
            uint64_t self = busy > childNs[i] ? busy - childNs[i] : 0;
            KindSummary &k = out[static_cast<size_t>(r.kind)];
            ++k.count;
            k.totalNs += dur;
            k.selfNs += self;
            k.items += r.items;
            k.durations.push_back(dur);
            if (r.items > 0) {
                ++k.busyCount;
                k.busySelfNs += self;
                k.busyItems += r.items;
            }
        }
    }
    return out;
}

bool
writeTsv(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "thread\tid\tparent\tkind\tstart_ns\tend_ns\t"
                    "cpu_ns\trequest_id\titems\n");
    std::lock_guard<std::mutex> lock(g_registryMutex);
    for (size_t t = 0; t < g_logs.size(); ++t) {
        const std::vector<Record> &recs = g_logs[t]->records;
        for (size_t i = 0; i < recs.size(); ++i) {
            const Record &r = recs[i];
            std::fprintf(f,
                         "%zu\t%zu\t%lld\t%s\t%llu\t%llu\t%llu\t%llu\t"
                         "%llu\n",
                         t, i, static_cast<long long>(r.parent),
                         kindName(r.kind),
                         static_cast<unsigned long long>(r.startNs),
                         static_cast<unsigned long long>(r.endNs),
                         static_cast<unsigned long long>(r.cpuNs),
                         static_cast<unsigned long long>(r.requestId),
                         static_cast<unsigned long long>(r.items));
        }
    }
    return std::fclose(f) == 0;
}

} // namespace e2e::trace
