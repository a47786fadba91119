#include "workloads.hh"

#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/rng.hh"
#include "core/fault_injection.hh"
#include "core/trng.hh"
#include "dram/catalog.hh"
#include "net/udp_server.hh"
#include "sched/trng_programs.hh"
#include "service/entropy_service.hh"
#include "shard_check.hh"
#include "stats.hh"
#include "trace.hh"
#include "wire_client.hh"

namespace e2e
{

using namespace quac;

namespace
{

constexpr uint64_t kMs = 1000000;
constexpr uint64_t kSec = 1000000000;
/** p99 latency SLO of the udp_small rate ladder. */
constexpr double kSloUs = 1000.0;
/** Latency sub-window of the closed loop. */
constexpr uint64_t kWindowNs = 100 * kMs;
/** Sub-window of every rate figure. */
constexpr uint64_t kRateWindowNs = 500 * kMs;
/** Requests per latency sub-window of an open loop: enough for a p99
 * with 20 samples beyond it, short enough at 100k req/s (20 ms) that
 * one host stall spoils few windows. */
constexpr double kWindowRequests = 2000.0;
/** A latency window with fewer samples (a phase's ragged end) is
 * left out of the estimators. */
constexpr size_t kMinWindowSamples = 100;
/** An open-loop sender sleeps only when its next send is at least
 * this far away; closer sends are awaited by polling. */
constexpr uint64_t kSleepMinNs = 1 * kMs;
/**
 * Most requests a UDP open loop keeps in flight. A due request past
 * the cap waits for a reply and is then sent late, still timed from
 * its due time; so a stall of the server loop delays requests instead
 * of overflowing a socket buffer and losing them. 512 loopback
 * datagrams (832 B of buffer each) fit the server's receive buffer
 * even at the kernel's default rmem_max; a 100k req/s loop at a 20 us
 * latency has ~2 in flight.
 */
constexpr size_t kMaxInFlight = 512;
/** Bytes of the fixed core.iterations probe, per module. */
constexpr size_t kProbeBytes = 256 * 1024;

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * kSec +
           static_cast<uint64_t>(ts.tv_nsec);
}

void
sleepUntil(uint64_t deadline_ns)
{
    timespec ts{static_cast<time_t>(deadline_ns / kSec),
                static_cast<long>(deadline_ns % kSec)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                             nullptr) == EINTR) {
    }
}

/**
 * Tighten the calling thread's timer slack while an in-process caller
 * sleeps between calls, so it wakes at the due time instead of up to
 * the default 50 us late (lateness the open loop would charge to the
 * program). The old slack is restored on exit.
 */
class PreciseSleeps
{
  public:
    PreciseSleeps() : old_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0))
    {
        ::prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
    ~PreciseSleeps()
    {
        if (old_ > 0)
            ::prctl(PR_SET_TIMERSLACK, old_, 0, 0, 0);
    }
    PreciseSleeps(const PreciseSleeps &) = delete;
    PreciseSleeps &operator=(const PreciseSleeps &) = delete;

  private:
    long old_;
};

uint64_t
splitmix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * Forwarding backend wrapper: every fill the service makes on a
 * backend becomes a "fill" span (items = bytes). Installed in every
 * run, traced or not, so both runs execute the same code.
 */
class TracedTrng : public core::Trng
{
  public:
    explicit TracedTrng(core::Trng &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    void
    fill(uint8_t *out, size_t len) override
    {
        trace::Span span(trace::Kind::Fill);
        inner_.fill(out, len);
        span.setItems(len);
    }

    size_t preferredChunkBytes() override
    {
        return inner_.preferredChunkBytes();
    }

  private:
    core::Trng &inner_;
};

enum class BackendKind
{
    Software,
    Quac,
};

/** A backend pool: owned generators, each behind a TracedTrng. */
struct Backends
{
    std::vector<std::unique_ptr<dram::DramModule>> modules;
    std::vector<std::unique_ptr<core::QuacTrng>> quac;
    std::vector<std::unique_ptr<core::SoftwareTrng>> soft;
    std::vector<std::unique_ptr<TracedTrng>> traced;
    /** Wall seconds of each QuacTrng::setup() call. */
    std::vector<double> setupSeconds;

    std::vector<core::Trng *>
    pool() const
    {
        std::vector<core::Trng *> out;
        for (auto &t : traced)
            out.push_back(t.get());
        return out;
    }

    /** The raw (unwrapped) generator @p i. */
    core::Trng &
    raw(size_t i)
    {
        return quac.empty() ? static_cast<core::Trng &>(*soft.at(i))
                            : static_cast<core::Trng &>(*quac.at(i));
    }

    uint64_t
    iterations() const
    {
        uint64_t n = 0;
        for (auto &q : quac)
            n += q->iterations();
        return n;
    }
};

/**
 * Build @p count backends as the shipped udp_entropy_server does:
 * SoftwareTrng(1 + b), or test-scale QuacTrng modules over the paper
 * catalogue (sibEntropyTarget 24, characterizeStride 4).
 */
std::unique_ptr<Backends>
makeBackends(BackendKind kind, size_t count, bool parallel_banks)
{
    auto b = std::make_unique<Backends>();
    for (size_t m = 0; m < count; ++m) {
        if (kind == BackendKind::Software) {
            b->soft.push_back(std::make_unique<core::SoftwareTrng>(
                1 + m, "sw" + std::to_string(m)));
            b->traced.push_back(
                std::make_unique<TracedTrng>(*b->soft.back()));
            continue;
        }
        dram::ModuleSpec spec = dram::specFor(
            dram::paperCatalog()[m % 5], dram::Geometry::testScale());
        spec.seed += m;
        b->modules.push_back(
            std::make_unique<dram::DramModule>(std::move(spec)));
        core::QuacTrngConfig tcfg;
        tcfg.sibEntropyTarget = 24.0;
        tcfg.characterizeStride = 4;
        tcfg.parallelBanks = parallel_banks;
        b->quac.push_back(
            std::make_unique<core::QuacTrng>(*b->modules.back(), tcfg));
        uint64_t t0 = trace::nowNs();
        {
            trace::Span span(trace::Kind::Setup, m);
            b->quac.back()->setup();
        }
        b->setupSeconds.push_back(
            static_cast<double>(trace::nowNs() - t0) / 1e9);
        b->traced.push_back(std::make_unique<TracedTrng>(*b->quac.back()));
    }
    return b;
}

/** sched::simulateQuacTrng over the characterized module set. */
double
simulatedGbpsPerChannel(Backends &b, size_t modules)
{
    double sum = 0.0;
    for (size_t m = 0; m < modules; ++m) {
        const auto &plans = b.quac.at(m)->plans();
        sched::QuacScheduleConfig cfg;
        cfg.banks = static_cast<uint32_t>(plans.size());
        cfg.init = sched::InitMethod::RowClone;
        size_t sib = 0;
        uint32_t columns = 0;
        for (const auto &plan : plans) {
            sib += plan.ranges.size();
            if (!plan.ranges.empty())
                columns = std::max(columns, plan.ranges.back().endColumn);
        }
        cfg.profile.sib = static_cast<uint32_t>(sib / plans.size());
        cfg.profile.columnsRead = columns;
        cfg.profile.columnsPerRow =
            b.modules.at(m)->geometry().cacheBlocksPerRow();
        sum += sched::simulateQuacTrng(b.modules[m]->timing(), cfg)
                   .throughputGbps();
    }
    return sum / static_cast<double>(modules);
}

/**
 * core.iterations probe: fresh modules each produce kProbeBytes; the
 * iteration count depends on the model only, never on timing.
 */
uint64_t
probeIterations(size_t modules)
{
    auto fresh = makeBackends(BackendKind::Quac, modules, false);
    std::vector<uint8_t> buf(kProbeBytes);
    for (auto &q : fresh->quac)
        q->fill(buf.data(), buf.size());
    return fresh->iterations();
}

/** Identity-check every shard against fresh same-seed backends;
 * @p label prefixes the check lines. */
void
checkShards(Outcome &out, ShardStreams &streams, BackendKind kind,
            const std::vector<size_t> &backend_of_shard,
            const std::string &label = "")
{
    size_t count = 0;
    for (size_t b : backend_of_shard)
        count = std::max(count, b + 1);
    // Fresh references run serially per bank (byte-identical to the
    // parallel-bank order by contract) and one module per thread.
    auto fresh = makeBackends(kind, count, false);
    std::vector<ShardVerdict> verdicts(streams.shards());
    std::vector<std::thread> workers;
    for (size_t s = 0; s < streams.shards(); ++s) {
        workers.emplace_back([&, s] {
            verdicts[s] = checkShard(streams, s,
                                     fresh->raw(backend_of_shard[s]));
        });
    }
    for (auto &w : workers)
        w.join();
    for (size_t s = 0; s < verdicts.size(); ++s) {
        const ShardVerdict &v = verdicts[s];
        out.check(v.match,
                  label + "shard " + std::to_string(s) + " SHA-256 of " +
                      std::to_string(v.bytes) +
                      " received bytes == fresh backend prefix (" +
                      v.received.substr(0, 16) + " vs " +
                      v.reference.substr(0, 16) + ")");
    }
}

void
addLayer(Outcome &out, const std::string &name, double value,
         const std::string &unit)
{
    out.perLayer.push_back({name, value, unit});
}

/** Per-layer figures every workload reports (0 = layer unused). */
struct LayerFigures
{
    double genLagP99Us = 0;
    double traceOverheadPct = 0;
    double pollBusyNsPerDgram = 0;
    double dgramsPerRecv = 0;
    double sendRetries = 0;
    double idleRefillBytes = 0;
    double hitRatio = 0;
    double syncFills = 0;
    double serveNsP50 = 0;
    double serveNsP99 = 0;
    double tableInserts = 0;
    double tableEvictions = 0;
    double quarantines = 0;
    double unhealthyServed = 0;
    double unhealthyDropped = 0;
    double fillNsPerIteration = 0;
    double coreSetupS = 0;
    double coreIterations = 0;
    double bytesPerIteration = 0;
    double simGbps = 0;
    std::array<trace::KindSummary, trace::kKinds> spans{};
};

void
emitLayers(Outcome &out, const LayerFigures &f)
{
    addLayer(out, "bench.gen_lag_p99_us", f.genLagP99Us, "us");
    addLayer(out, "bench.trace_overhead_pct", f.traceOverheadPct, "%");
    addLayer(out, "net.poll_busy_ns_per_dgram", f.pollBusyNsPerDgram,
             "ns");
    addLayer(out, "net.dgrams_per_recv", f.dgramsPerRecv, "count");
    addLayer(out, "net.send_retries", f.sendRetries, "count");
    addLayer(out, "net.idle_refill_bytes", f.idleRefillBytes, "B");
    addLayer(out, "service.hit_ratio", f.hitRatio, "ratio");
    addLayer(out, "service.sync_fills", f.syncFills, "count");
    addLayer(out, "service.serve_ns.p50", f.serveNsP50, "ns");
    addLayer(out, "service.serve_ns.p99", f.serveNsP99, "ns");
    addLayer(out, "service.table_inserts", f.tableInserts, "count");
    addLayer(out, "service.table_evictions", f.tableEvictions, "count");
    addLayer(out, "health.quarantines", f.quarantines, "count");
    addLayer(out, "health.unhealthy_bytes_served", f.unhealthyServed,
             "B");
    addLayer(out, "health.unhealthy_bytes_dropped", f.unhealthyDropped,
             "B");
    addLayer(out, "core.fill_ns_per_iteration", f.fillNsPerIteration,
             "ns");
    addLayer(out, "core.setup_s", f.coreSetupS, "s");
    addLayer(out, "core.iterations", f.coreIterations, "count");
    addLayer(out, "core.bytes_per_iteration", f.bytesPerIteration, "B");
    addLayer(out, "sched.sim_gbps_per_channel", f.simGbps, "Gb/s");
    const char *self_names[trace::kKinds] = {
        "self.poll_ms", "self.fill_ms", "self.request_ms",
        "self.setup_ms"};
    for (size_t k = 0; k < trace::kKinds; ++k)
        addLayer(out, self_names[k],
                 static_cast<double>(f.spans[k].selfNs) / 1e6, "ms");
}

/** Fill-span time per backend iteration (a 256 B chunk for the
 * software backends, which have no iterations). */
double
fillNsPerIteration(const trace::KindSummary &fill, uint64_t iterations,
                   bool quac)
{
    double iters = quac ? static_cast<double>(iterations)
                        : static_cast<double>(fill.items) / 256.0;
    return iters > 0 ? static_cast<double>(fill.totalNs) / iters : 0.0;
}

/** Latency window of an open loop at @p rate req/s. */
uint64_t
openLoopWindowNs(double rate)
{
    return static_cast<uint64_t>(kWindowRequests / rate * 1e9);
}

/**
 * Every rate and latency figure is the median over its windows: of
 * the window rates, or of each window's percentile. Across runs on a
 * shared VM no other window statistic (quartiles, mean) was steadier
 * on every figure, and the median was never far from the steadiest
 * (README.md).
 */
double
p50Us(WindowedLatency &latency)
{
    return latency.medianOfWindowsUs(0.50, kMinWindowSamples);
}

double
p99Us(WindowedLatency &latency)
{
    return latency.medianOfWindowsUs(0.99, kMinWindowSamples);
}

/**
 * Counts per kRateWindowNs window of a stretch that starts at
 * @p start_ns, and optionally the serving side's CPU time at every
 * window boundary. An open loop's delivered rate is the rate it
 * offers, so its rate figures divide each window's count by the CPU
 * seconds the serving side spent in that window: the rate one core of
 * that work sustains, which a slower serve path lowers even below the
 * knee.
 */
struct RateWindows
{
    explicit RateWindows(uint64_t start_ns) : startNs(start_ns) {}

    uint64_t startNs;
    std::vector<uint64_t> count;
    std::vector<uint64_t> bytes;
    /** CPU ns at each boundary startNs + k * kRateWindowNs, k >= 0. */
    std::vector<uint64_t> cpuNs;

    void
    reserve(double seconds)
    {
        size_t windows =
            static_cast<size_t>(seconds * 1e9 / kRateWindowNs) + 2;
        count.assign(windows, 0);
        bytes.assign(windows, 0);
        cpuNs.reserve(windows + 1);
    }

    void
    add(uint64_t at_ns, uint64_t payload_bytes)
    {
        if (at_ns < startNs)
            return;
        size_t w = (at_ns - startNs) / kRateWindowNs;
        if (w >= count.size()) {
            count.resize(w + 1, 0);
            bytes.resize(w + 1, 0);
        }
        ++count[w];
        bytes[w] += payload_bytes;
    }

    /** Take the CPU samples of @p clock due by @p now_ns. */
    void
    sampleCpu(uint64_t now_ns, clockid_t clock)
    {
        while (now_ns >= startNs + cpuNs.size() * kRateWindowNs)
            cpuNs.push_back(clockNs(clock));
    }

    /** Per complete window ending by @p end_ns: count (or payload
     * bytes) per wall second. */
    std::vector<double>
    wallRates(uint64_t end_ns, bool of_bytes) const
    {
        size_t complete =
            end_ns > startNs ? (end_ns - startNs) / kRateWindowNs : 0;
        const std::vector<uint64_t> &v = of_bytes ? bytes : count;
        std::vector<double> rates;
        for (size_t i = 0; i < std::min(complete, v.size()); ++i)
            rates.push_back(static_cast<double>(v[i]) * 1e9 /
                            static_cast<double>(kRateWindowNs));
        return rates;
    }

    /** Per window with CPU samples at both ends: count (or payload
     * bytes) per CPU second. */
    std::vector<double>
    cpuRates(bool of_bytes) const
    {
        const std::vector<uint64_t> &v = of_bytes ? bytes : count;
        std::vector<double> rates;
        for (size_t i = 0; i + 1 < cpuNs.size() && i < v.size(); ++i) {
            uint64_t cpu = cpuNs[i + 1] - cpuNs[i];
            if (cpu > 0)
                rates.push_back(static_cast<double>(v[i]) * 1e9 /
                                static_cast<double>(cpu));
        }
        return rates;
    }
};

// ------------------------------------------------------------- UDP

/** One measured phase of wire traffic. */
struct Phase
{
    Phase(uint64_t start_ns, uint64_t latency_window_ns)
        : startNs(start_ns), latency(start_ns, latency_window_ns),
          rates(start_ns)
    {
    }

    uint64_t startNs;
    uint64_t endNs = 0;
    WindowedLatency latency;
    std::vector<uint64_t> lagNs;
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t partial = 0;
    uint64_t denied = 0;
    uint64_t lost = 0;
    /** Replies and payload bytes by receive time; the open loop
     * samples the server loop's CPU time at the window boundaries. */
    RateWindows rates;

    uint64_t failures() const { return denied + lost; }
    uint64_t received() const { return ok + partial + denied; }

    /** Free the sample vectors once the phase has been evaluated. */
    void
    releaseSamples()
    {
        latency.release();
        lagNs = {};
        rates = RateWindows(startNs);
    }

    /** Pre-size the sample vectors for @p requests over @p seconds. */
    void
    reserve(uint64_t requests, double seconds)
    {
        latency.reserve(requests);
        lagNs.reserve(requests);
        rates.reserve(seconds);
    }
};

/** Accumulate a phase into attempted/failed. */
void
countPhase(Outcome &out, const Phase &phase)
{
    out.attempted += phase.sent;
    out.failed += phase.failures();
}

/** The shipped UDP stack: backends, service, epoll server, loop. */
class UdpStack
{
  public:
    UdpStack(BackendKind kind, size_t backends, size_t table_capacity,
             bool parallel_banks)
    {
        this->backends = makeBackends(kind, backends, parallel_banks);
        service::EntropyServiceConfig scfg;
        scfg.shardCapacityBytes = 64 * 1024;
        scfg.placement = service::PlacementPolicy::LeastLoaded;
        service = std::make_unique<service::EntropyService>(
            this->backends->pool(), scfg);
        net::UdpServerConfig ucfg;
        ucfg.batchMessages = 16;
        ucfg.table.capacity = table_capacity;
        server = std::make_unique<net::UdpServer>(*service, ucfg);
        timeoutMs_ = ucfg.idleRefill ? ucfg.idleTimeoutMs : -1;
        start();
    }

    ~UdpStack() { pause(); }
    UdpStack(const UdpStack &) = delete;
    UdpStack &operator=(const UdpStack &) = delete;

    /** Run the server loop: poll(idleTimeoutMs) until stopped —
     * the loop UdpServer::run() runs, one span per poll. */
    void
    start()
    {
        loop_ = std::thread([this] {
            for (;;) {
                trace::Span span(trace::Kind::Poll);
                size_t served = server->poll(timeoutMs_);
                span.setItems(served);
                if (server->stopRequested())
                    return;
            }
        });
        if (::pthread_getcpuclockid(loop_.native_handle(), &loopClock_) !=
            0)
            throw std::runtime_error("no CPU clock for the server loop");
    }

    /** CPU clock of the running loop thread (changes on start()). */
    clockid_t loopClock() const { return loopClock_; }

    /** Stop and join the loop; stats are then safe to read. */
    void
    pause()
    {
        if (loop_.joinable()) {
            server->stop();
            loop_.join();
        }
    }

    std::unique_ptr<Backends> backends;
    std::unique_ptr<service::EntropyService> service;
    std::unique_ptr<net::UdpServer> server;

  private:
    int timeoutMs_ = 2;
    std::thread loop_;
    clockid_t loopClock_ = CLOCK_THREAD_CPUTIME_ID;
};

/** Wire traffic generator and reply checker for one UdpStack. */
class LoadClient
{
  public:
    LoadClient(UdpStack &stack, uint64_t id_base, size_t clients,
              uint64_t seed, bool corrupt)
        : stack_(stack), client_(stack.server->port(), 64),
          idBase_(id_base), nonces_(clients, 0), rng_(seed),
          streams_(stack.service->shardCount()), corrupt_(corrupt)
    {
        onReply_ = [this](Reply &r) { handle(r); };
    }

    size_t clients() const { return nonces_.size(); }
    uint64_t clientId(size_t slot) const { return idBase_ + 1 + slot; }
    WireClient &wire() { return client_; }
    ShardStreams &streams() { return streams_; }
    uint64_t unmappedReplies() const { return unmappedDropped_; }

    /** Replies received (served or denied) over every phase. */
    uint64_t
    repliesReceived() const
    {
        uint64_t n = 0;
        for (const auto &p : phases_)
            n += p->received();
        return n;
    }

    /** Requests counted lost over every phase. */
    uint64_t
    requestsLost() const
    {
        uint64_t n = 0;
        for (const auto &p : phases_)
            n += p->lost;
        return n;
    }

    Phase &
    newPhase(uint64_t start_ns, uint64_t latency_window_ns = kWindowNs)
    {
        phases_.push_back(
            std::make_unique<Phase>(start_ns, latency_window_ns));
        return *phases_.back();
    }

    /** Stage + send one request for client slot @p slot. */
    void
    send(size_t slot, uint32_t bytes, uint8_t priority, Phase &phase,
         uint64_t scheduled_ns)
    {
        net::Request req;
        req.priority = priority;
        req.clientId = clientId(slot);
        req.nonce = ++nonces_[slot];
        req.bytes = bytes;
        Pending p;
        p.scheduledNs = scheduled_ns;
        p.bytes = bytes;
        p.phase = phaseIndex(phase);
        client_.stage(req, p);
        ++phase.sent;
    }

    uint64_t flush() { return client_.flush(onReply_); }

    /**
     * Stop hashing payloads. An overloaded rate-ladder rung may lose
     * replies in the client's socket buffer, bytes the server served
     * but the stream never receives; the identity check therefore
     * covers everything received before the first such rung.
     */
    void stopVerifying() { verifying_ = false; }

    /**
     * Warm-up: first contact (admission) of every client, paced to
     * at most kMaxInFlight requests in flight. Clients whose request
     * was lost are tried again, up to five passes. Each pass counts as
     * a phase of attempted requests.
     */
    void
    firstContact(Outcome &out, uint32_t bytes, uint8_t priority)
    {
        answered_.assign(nonces_.size(), 0);
        for (int pass = 0; pass < 5; ++pass) {
            Phase &warm = newPhase(trace::nowNs());
            for (size_t slot = 0; slot < nonces_.size(); ++slot) {
                if (answered_[slot])
                    continue;
                send(slot, bytes, priority, warm, trace::nowNs());
                if (slot % 64 == 63) {
                    flush();
                    drain();
                    while (client_.outstanding() > kMaxInFlight - 64) {
                        client_.waitReadable(trace::nowNs() + kMs);
                        drain();
                    }
                }
            }
            flush();
            settle(warm);
            countPhase(out, warm);
            if (warm.lost == 0)
                return;
        }
    }
    size_t drain() { return client_.drain(onReply_); }

    /** Wait for stragglers (quiet for 200 ms or 2 s total); the
     * rest are counted lost against @p phase. */
    void
    settle(Phase &phase)
    {
        uint64_t deadline = trace::nowNs() + 2 * kSec;
        uint64_t quiet = trace::nowNs() + 200 * kMs;
        while (client_.outstanding() > 0) {
            uint64_t now = trace::nowNs();
            if (now >= deadline || now >= quiet)
                break;
            client_.waitReadable(std::min(quiet, now + 5 * kMs));
            if (drain() > 0)
                quiet = trace::nowNs() + 200 * kMs;
        }
        phase.lost += client_.abandonOutstanding();
    }

    /**
     * Open loop at @p rate req/s for @p seconds: request i is due at
     * start + i / rate whatever the replies do, and its latency is
     * timed from that due time. At most kMaxInFlight requests are
     * outstanding; a due request beyond them is sent as soon as a
     * reply frees room. Clients are drawn uniformly. The
     * server loop's CPU time is sampled at every rate-window boundary
     * up to the phase end.
     */
    Phase &
    openLoop(double rate, double seconds, uint32_t bytes,
             uint8_t priority)
    {
        uint64_t start = trace::nowNs() + kMs;
        Phase &phase = newPhase(start, openLoopWindowNs(rate));
        uint64_t total =
            static_cast<uint64_t>(std::llround(rate * seconds));
        phase.reserve(total, seconds);
        double interval = 1e9 / rate;
        phase.endNs = start + static_cast<uint64_t>(
                                  static_cast<double>(total) * interval);
        uint64_t i = 0;
        for (;;) {
            uint64_t now = trace::nowNs();
            phase.rates.sampleCpu(now, stack_.loopClock());
            if (i >= total && now >= phase.endNs)
                break;
            uint64_t due = now < start
                               ? 0
                               : std::min<uint64_t>(
                                     total,
                                     static_cast<uint64_t>(
                                         static_cast<double>(now - start) /
                                         interval) +
                                         1);
            while (i < due) {
                // Whole batches only, so a loop catching up after a
                // stall still sends 64 requests per syscall.
                size_t n = std::min<uint64_t>(64, due - i);
                if (client_.outstanding() + n > kMaxInFlight)
                    break;
                uint64_t first = i;
                for (size_t k = 0; k < n; ++k, ++i) {
                    uint64_t sched =
                        start + static_cast<uint64_t>(
                                    static_cast<double>(i) * interval);
                    send(rng_.uniformInt(nonces_.size()), bytes,
                         priority, phase, sched);
                }
                uint64_t sent_ns = flush();
                for (uint64_t k = first; k < i; ++k) {
                    uint64_t sched =
                        start + static_cast<uint64_t>(
                                    static_cast<double>(k) * interval);
                    phase.lagNs.push_back(sent_ns > sched ? sent_ns - sched
                                                          : 0);
                }
            }
            drain();
            if (i < due) {
                // Held back by the cap: wait for a reply, unless the
                // drain has just made room.
                if (client_.outstanding() +
                        std::min<uint64_t>(64, due - i) >
                    kMaxInFlight)
                    client_.waitReadable(trace::nowNs() + kMs);
                continue;
            }
            // Sleep only when the next send (or the phase end) is far
            // off: a sleeping thread on a shared VM can wake
            // milliseconds late, and that lateness would be charged to
            // the program. Near the due time the loop keeps polling.
            uint64_t next =
                i < total ? start + static_cast<uint64_t>(
                                        static_cast<double>(i) * interval)
                          : phase.endNs;
            if (next > trace::nowNs() + kSleepMinNs)
                client_.waitReadable(next - kSleepMinNs / 2);
        }
        settle(phase);
        return phase;
    }

    /**
     * Closed loop for @p seconds: @p window requests outstanding,
     * each reply releasing the next request, clients taken in a
     * seeded rotation. Latency is timed from the actual send.
     */
    Phase &
    closedLoop(double seconds, size_t window, uint32_t bytes,
               uint8_t priority)
    {
        uint64_t start = trace::nowNs();
        Phase &phase = newPhase(start);
        // Room for far more replies than the loop can get (pages are
        // touched only as used), so the sample buffer never grows by
        // copying at a rate-dependent moment.
        phase.reserve(static_cast<uint64_t>(50000.0 * seconds), seconds);
        uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
        size_t slot = rng_.uniformInt(nonces_.size());
        while (trace::nowNs() < end) {
            size_t want = window - std::min(window, client_.outstanding());
            while (want > 0) {
                size_t n = std::min<size_t>(want, 64);
                uint64_t now = trace::nowNs();
                for (size_t k = 0; k < n; ++k) {
                    send(slot, bytes, priority, phase, now);
                    slot = (slot + 1) % nonces_.size();
                }
                flush();
                want -= n;
            }
            // Poll rather than sleep for replies (yielding the CPU to
            // any other runnable thread): a sleeping sender on a shared
            // VM wakes late and would leave the server's window short.
            if (drain() == 0)
                std::this_thread::yield();
        }
        phase.endNs = end;
        settle(phase);
        return phase;
    }

    /**
     * Learn every wire client's shard from the server's client
     * table (loop paused), then hash the replies buffered so far.
     * Returns false when some id has no live table entry.
     */
    bool
    mapShards(const std::vector<uint64_t> &ids)
    {
        stack_.pause();
        // The table is the loop's; with the loop parked it is safe to
        // look entries up. acquire() on a live id only refreshes its
        // LRU position.
        auto &table =
            const_cast<service::ClientTable &>(stack_.server->clientTable());
        bool ok = true;
        for (uint64_t id : ids) {
            auto a = table.acquire(id, service::Priority::Interactive,
                                   trace::nowNs());
            if (a.status != service::ClientTable::AcquireStatus::Existing) {
                ok = false;
                continue;
            }
            shardOf_[id] = a.entry->client.shard();
        }
        stack_.start();
        for (auto &u : unmapped_)
            hashPayload(u.first, u.second.data(), u.second.size());
        unmapped_ = {};
        return ok;
    }

  private:
    uint32_t
    phaseIndex(const Phase &phase) const
    {
        for (size_t i = phases_.size(); i-- > 0;) {
            if (phases_[i].get() == &phase)
                return static_cast<uint32_t>(i);
        }
        throw std::logic_error("unknown phase");
    }

    void
    hashPayload(uint64_t id, const uint8_t *data, size_t len)
    {
        auto it = shardOf_.find(id);
        if (it == shardOf_.end()) {
            ++unmappedDropped_;
            return;
        }
        streams_.add(it->second, data, len);
    }

    void
    handle(Reply &r)
    {
        Phase &phase = *phases_.at(r.request.phase);
        net::Status status = r.header.status;
        if (net::isDeny(status)) {
            ++phase.denied;
            return;
        }
        if (status == net::Status::Partial)
            ++phase.partial;
        else
            ++phase.ok;
        uint64_t slot = r.header.clientId - idBase_ - 1;
        if (slot < answered_.size())
            answered_[slot] = 1;
        uint64_t lat = r.receivedNs > r.request.scheduledNs
                           ? r.receivedNs - r.request.scheduledNs
                           : 0;
        phase.latency.add(r.request.scheduledNs, lat);
        phase.rates.add(r.receivedNs, r.header.payloadBytes);

        if (!verifying_)
            return;
        const uint8_t *payload = r.payload;
        std::vector<uint8_t> flipped;
        if (corrupt_ && ++received_ == 100) {
            flipped.assign(payload, payload + r.header.payloadBytes);
            if (!flipped.empty())
                flipped[0] ^= 0x01;
            payload = flipped.data();
        }
        if (shardOf_.empty()) {
            unmapped_.emplace_back(
                r.header.clientId,
                std::vector<uint8_t>(payload,
                                     payload + r.header.payloadBytes));
        } else {
            hashPayload(r.header.clientId, payload, r.header.payloadBytes);
        }
    }

    UdpStack &stack_;
    WireClient client_;
    uint64_t idBase_;
    std::vector<uint64_t> nonces_;
    Xoshiro256pp rng_;
    ShardStreams streams_;
    bool corrupt_;
    uint64_t received_ = 0;
    uint64_t unmappedDropped_ = 0;
    /** Per client slot: has any request been served? */
    std::vector<uint8_t> answered_;
    /** Payloads are hashed into the shard streams until stopVerifying. */
    bool verifying_ = true;
    std::vector<std::unique_ptr<Phase>> phases_;
    std::unordered_map<uint64_t, size_t> shardOf_;
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> unmapped_;
    ReplyFn onReply_;
};

double
lagP99Us(std::vector<uint64_t> lags)
{
    return static_cast<double>(percentile(lags, 0.99)) / 1e3;
}

/** Server-side counter deltas over a measured stretch. */
struct ServerDelta
{
    net::UdpServerStats before;
    uint64_t servedBefore = 0;
    uint64_t hitsBefore = 0;
    uint64_t syncBefore = 0;
    uint64_t iterBefore = 0;
};

ServerDelta
snapshot(UdpStack &stack)
{
    ServerDelta d;
    d.before = stack.server->stats();
    d.servedBefore = stack.service->requestsServed();
    d.hitsBefore = stack.service->bufferHits();
    d.syncBefore = stack.service->synchronousFills();
    d.iterBefore = stack.backends->iterations();
    return d;
}

/** Fill the network/service figures from counter deltas. */
void
udpLayerFigures(LayerFigures &f, UdpStack &stack, const ServerDelta &d,
                bool quac)
{
    const net::UdpServerStats &s = stack.server->stats();
    uint64_t dgrams = s.datagramsReceived - d.before.datagramsReceived;
    uint64_t recvs = s.recvCalls - d.before.recvCalls;
    f.dgramsPerRecv =
        recvs > 0 ? static_cast<double>(dgrams) / recvs : 0.0;
    f.sendRetries =
        static_cast<double>(s.sendRetries - d.before.sendRetries);
    f.idleRefillBytes = static_cast<double>(s.idleRefillBytes -
                                            d.before.idleRefillBytes);
    uint64_t served = stack.service->requestsServed() - d.servedBefore;
    uint64_t hits = stack.service->bufferHits() - d.hitsBefore;
    f.hitRatio = served > 0 ? static_cast<double>(hits) / served : 0.0;
    f.syncFills = static_cast<double>(stack.service->synchronousFills() -
                                      d.syncBefore);
    f.tableInserts =
        static_cast<double>(stack.server->clientTable().stats().inserts);
    f.tableEvictions =
        static_cast<double>(stack.server->clientTable().stats().evictions);
    const trace::KindSummary &poll =
        f.spans[static_cast<size_t>(trace::Kind::Poll)];
    f.pollBusyNsPerDgram =
        poll.busyItems > 0 ? static_cast<double>(poll.busySelfNs) /
                                 static_cast<double>(poll.busyItems)
                           : 0.0;
    f.fillNsPerIteration = fillNsPerIteration(
        f.spans[static_cast<size_t>(trace::Kind::Fill)],
        stack.backends->iterations() - d.iterBefore, quac);
}

/** Server accounting checks shared by the UDP workloads; @p label
 * prefixes the check lines. */
void
checkServerAccounting(Outcome &out, UdpStack &stack, LoadClient &load,
                      const std::string &label = "")
{
    const net::UdpServerStats &s = stack.server->stats();
    out.check(s.wellFormed == s.responsesSent,
              label + "server wellFormed (" +
                  std::to_string(s.wellFormed) + ") == responsesSent (" +
                  std::to_string(s.responsesSent) + ")");
    out.check(s.malformedTotal() == 0,
              label + "server malformedTotal == 0 (" +
                  std::to_string(s.malformedTotal()) + ")");
    out.check(load.wire().unmatched() == 0,
              label + "zero unmatched replies (" +
                  std::to_string(load.wire().unmatched()) + ")");
    out.check(load.wire().malformed() == 0,
              label + "zero malformed replies (" +
                  std::to_string(load.wire().malformed()) + ")");
    out.check(load.unmappedReplies() == 0,
              label + "every reply mapped to a shard (" +
                  std::to_string(load.unmappedReplies()) +
                  " unmapped)");
    // The server's own count: it sent every reply the client
    // received, and every other reply it sent was counted lost.
    uint64_t got = load.repliesReceived();
    uint64_t lost = load.requestsLost();
    out.check(got <= s.responsesSent && s.responsesSent <= got + lost,
              label + "server responsesSent (" +
                  std::to_string(s.responsesSent) + ") covers the " +
                  std::to_string(got) +
                  " replies received, short by at most the " +
                  std::to_string(lost) + " counted lost");
}

/** A set-up UDP stack, its load and the set-up times. */
struct UdpSetup
{
    std::unique_ptr<UdpStack> stack;
    std::unique_ptr<LoadClient> load;
    /** Median wall seconds from workload start to the first reply. */
    double setupS = 0.0;
    /** Every QuacTrng::setup() duration. */
    std::vector<double> coreSetupS;
};

/**
 * Set up a UDP stack @p reps times, timing each from workload start
 * to the first request answered; keep the last. The kept stack's
 * first reply is hashed with the rest of its shard stream.
 */
UdpSetup
setUpUdp(BackendKind kind, size_t backends, size_t clients,
         uint64_t id_base, uint64_t seed, bool corrupt, unsigned reps,
         uint32_t probe_bytes, uint8_t probe_priority,
         bool parallel_banks = false)
{
    UdpSetup s;
    std::vector<double> times;
    for (unsigned r = 0; r < reps; ++r) {
        s.load.reset();
        s.stack.reset();
        uint64_t t0 = trace::nowNs();
        s.stack = std::make_unique<UdpStack>(kind, backends, clients + 16,
                                             parallel_banks);
        s.load = std::make_unique<LoadClient>(*s.stack, id_base, clients,
                                               seed, corrupt);
        // The probe is client 0's first request.
        Phase &probe = s.load->newPhase(t0);
        s.load->send(0, probe_bytes, probe_priority, probe, t0);
        s.load->flush();
        uint64_t deadline = t0 + 10 * kSec;
        // Poll for the reply: a sleeping waiter would add its own
        // wake-up delay to the set-up time.
        while (probe.ok + probe.partial + probe.denied == 0 &&
               trace::nowNs() < deadline) {
            if (s.load->drain() == 0)
                std::this_thread::yield();
        }
        if (probe.ok + probe.partial == 0)
            throw std::runtime_error("set-up probe request unanswered");
        times.push_back(static_cast<double>(trace::nowNs() - t0) / 1e9);
        for (double c : s.stack->backends->setupSeconds)
            s.coreSetupS.push_back(c);
    }
    s.setupS = median(times);
    return s;
}

std::vector<uint64_t>
allIds(LoadClient &load)
{
    std::vector<uint64_t> ids;
    for (size_t c = 0; c < load.clients(); ++c)
        ids.push_back(load.clientId(c));
    return ids;
}

/** Summarize the traced half and dump its spans: one file per
 * workload, overwritten by the next traced run, so repeated runs do
 * not fill the disk (a udp_small dump is ~40 MB). */
void
finishTrace(const Options &opt, LayerFigures &f, uint64_t since_ns)
{
    f.spans = trace::summarize(since_ns);
    if (!opt.traceDir.empty())
        trace::writeTsv(opt.traceDir + "/trace-" + opt.workload + ".tsv");
}

// ------------------------------------------------------- udp_small

/** udp_small's two fixed rates (req/s). */
constexpr double kSmallLowRps = 20000.0;
constexpr double kSmallHighRps = 100000.0;

struct SmallResult
{
    double lowP50 = 0, lowP99 = 0, highP50 = 0, highP99 = 0;
    /** `high` rounds: replies and payload MB per loop CPU second,
     * and as delivered per wall second. */
    double highRps = 0, highGoodput = 0;
    double deliveredRps = 0, deliveredGoodput = 0;
    double maxRps = 0, peakRssMb = 0;
    unsigned rungs = 0;
    size_t ladders = 0;
    uint64_t ladderLost = 0;
};

/** Window figures pooled over the phases of one rate. */
struct PooledWindows
{
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> cpuRps, cpuBps, wallRps, wallBps;

    /** Take @p phase's window figures and free its samples. */
    void
    absorb(Phase &phase)
    {
        auto append = [](std::vector<double> &to, std::vector<double> v) {
            to.insert(to.end(), v.begin(), v.end());
        };
        append(p50, phase.latency.windowValuesUs(0.50, kMinWindowSamples));
        append(p99, phase.latency.windowValuesUs(0.99, kMinWindowSamples));
        append(cpuRps, phase.rates.cpuRates(false));
        append(cpuBps, phase.rates.cpuRates(true));
        append(wallRps, phase.rates.wallRates(phase.endNs, false));
        append(wallBps, phase.rates.wallRates(phase.endNs, true));
        phase.releaseSamples();
    }
};

SmallResult
smallMeasure(LoadClient &load, Outcome &out, double seconds,
             double ladder_start, std::vector<uint64_t> &lags)
{
    constexpr int kRounds = 6;
    SmallResult r;
    // The fixed rates alternate in short rounds, so a host disturbance
    // lasting a few seconds spoils a minority of each rate's windows.
    // Each phase is reduced to its window figures as soon as it ends.
    PooledWindows lows;
    PooledWindows highs;
    lags.reserve(lags.size() +
                 static_cast<size_t>((0.2 * kSmallLowRps +
                                      0.4 * kSmallHighRps) *
                                     seconds) +
                 kRounds * 2);
    for (int round = 0; round < kRounds; ++round) {
        Phase &low =
            load.openLoop(kSmallLowRps, 0.2 * seconds / kRounds, 64, 0);
        countPhase(out, low);
        lags.insert(lags.end(), low.lagNs.begin(), low.lagNs.end());
        lows.absorb(low);
        Phase &high =
            load.openLoop(kSmallHighRps, 0.4 * seconds / kRounds, 64, 0);
        countPhase(out, high);
        lags.insert(lags.end(), high.lagNs.begin(), high.lagNs.end());
        highs.absorb(high);
    }
    r.lowP50 = median(lows.p50);
    r.lowP99 = median(lows.p99);
    r.highP50 = median(highs.p50);
    r.highP99 = median(highs.p99);
    r.highRps = median(highs.cpuRps);
    r.highGoodput = median(highs.cpuBps) / 1e6;
    r.deliveredRps = median(highs.wallRps);
    r.deliveredGoodput = median(highs.wallBps) / 1e6;
    // Before the ladder: its overloaded rungs pile up outstanding
    // requests in the generator, memory that is the benchmark's own.
    r.peakRssMb = peakRssMb();

    // Rate ladders of 0.25 s rungs, repeated while the ladder's time
    // share lasts; max_rps_at_slo is the median over the ladders that
    // finished. A rung's p99 is estimated like every other p99.
    load.stopVerifying();
    uint64_t ladder_end =
        trace::nowNs() + static_cast<uint64_t>(0.4 * seconds * 1e9);
    std::vector<double> finished;
    double unfinished = 0.0;
    while (trace::nowNs() < ladder_end) {
        RateLadder ladder(ladder_start, 1.10, 1.02, kSloUs, 64);
        while (!ladder.done() && trace::nowNs() < ladder_end) {
            Phase &rung = load.openLoop(ladder.rate(), 0.25, 64, 0);
            r.ladderLost += rung.lost + rung.denied;
            ladder.record(p99Us(rung.latency), rung.lost + rung.denied);
            rung.releaseSamples();
        }
        r.rungs += ladder.rungs();
        if (ladder.done())
            finished.push_back(ladder.best());
        else
            unfinished = ladder.best();
    }
    r.ladders = finished.size();
    r.maxRps = finished.empty() ? unfinished : median(finished);
    return r;
}

Outcome
runUdpSmall(const Options &opt)
{
    Outcome out;
    constexpr size_t kClients = 10000;
    uint64_t id_base = (splitmix(opt.seed) & 0xFFFFFFFFull) << 24;
    trace::setEnabled(opt.trace);
    UdpSetup s = setUpUdp(BackendKind::Software, 4, kClients, id_base,
                          opt.seed, opt.corruptPayload, 51, 64, 0);
    trace::setEnabled(false);
    LoadClient &load = *s.load;
    UdpStack &stack = *s.stack;

    // Warm-up (discarded): first contact of every client; a stretch
    // at the high rate, since on some seeds the loop's first second
    // at that rate serves below it (p50 of several ms); then a pause
    // for the idle refill to top the rings up.
    load.firstContact(out, 64, 0);
    Phase &warm = load.openLoop(kSmallHighRps, 1.0, 64, 0);
    countPhase(out, warm);
    warm.releaseSamples();
    sleepUntil(trace::nowNs() + 100 * kMs);
    std::vector<uint64_t> ids = allIds(load);
    out.check(load.mapShards(ids),
              "every wire client resolved to a live table entry");

    Xoshiro256pp rng(splitmix(opt.seed ^ 0x1add));
    // The seed places the ladder within one fine step.
    double ladder_start = 120000.0 * (1.0 + 0.02 * rng.uniform());
    std::vector<uint64_t> lags;

    if (!opt.trace) {
        SmallResult r =
            smallMeasure(load, out, opt.seconds, ladder_start, lags);
        stack.pause();
        out.endToEnd = {
            {"setup_s", s.setupS, "s"},
            {"peak_rss_MB", r.peakRssMb, "MB"},
            {"throughput_rps", r.highRps, "1/s"},
            {"goodput_MBps", r.highGoodput, "MB/s"},
            {"lat_p50_us", r.highP50, "us"},
        };
        out.detail = {
            {"throughput_rps.delivered", r.deliveredRps, "1/s"},
            {"goodput_MBps.delivered", r.deliveredGoodput, "MB/s"},
            {"lat_p50_us.low", r.lowP50, "us"},
            {"lat_p99_us.low", r.lowP99, "us"},
            {"lat_p50_us.high", r.highP50, "us"},
            {"lat_p99_us.high", r.highP99, "us"},
            {"max_rps_at_slo", r.maxRps, "1/s"},
            {"ladder.ladders", static_cast<double>(r.ladders), "count"},
            {"ladder.rungs", static_cast<double>(r.rungs), "count"},
            {"ladder.lost_or_denied", static_cast<double>(r.ladderLost),
             "count"},
            {"bench.gen_lag_p99_us", lagP99Us(lags), "us"},
        };
    } else {
        std::vector<uint64_t> untraced_lags;
        SmallResult base = smallMeasure(load, out, 0.5 * opt.seconds,
                                        ladder_start, untraced_lags);
        stack.pause();
        ServerDelta d = snapshot(stack);
        stack.start();
        uint64_t since = trace::nowNs();
        trace::setEnabled(true);
        SmallResult traced =
            smallMeasure(load, out, 0.5 * opt.seconds, ladder_start, lags);
        trace::setEnabled(false);
        stack.pause();
        LayerFigures f;
        finishTrace(opt, f, since);
        udpLayerFigures(f, stack, d, false);
        f.genLagP99Us = lagP99Us(lags);
        f.traceOverheadPct =
            base.highP50 > 0 ? 100.0 * (traced.highP50 / base.highP50 - 1.0)
                             : 0.0;
        emitLayers(out, f);
    }

    checkServerAccounting(out, stack, load);
    checkShards(out, load.streams(), BackendKind::Software,
                {0, 1, 2, 3});
    return out;
}

// -------------------------------------------------- udp_quac_large

struct LargeResult
{
    double rps = 0, goodput = 0, p50 = 0, p99 = 0;
};

/** Closed loop for @p seconds; rates per wall second (the loop
 * thread is busy generating all the time). */
LargeResult
largeMeasure(LoadClient &load, Outcome &out, double seconds)
{
    Phase &phase = load.closedLoop(seconds, 16, 1024, 1);
    countPhase(out, phase);
    LargeResult r;
    r.rps = median(phase.rates.wallRates(phase.endNs, false));
    r.goodput = median(phase.rates.wallRates(phase.endNs, true)) / 1e6;
    r.p50 = p50Us(phase.latency);
    r.p99 = p99Us(phase.latency);
    return r;
}

constexpr size_t kLargeClients = 64;

/**
 * Warm-up (discarded): first contact of every client in a short
 * closed loop, which also warms the QUAC row caches and drains the
 * initially full rings to their steady state. Then learn the shards.
 */
void
warmLarge(Outcome &out, LoadClient &load, double seconds)
{
    Phase &warm = load.closedLoop(std::max(0.5, 0.1 * seconds), 16,
                                    1024, 1);
    countPhase(out, warm);
    out.check(load.mapShards(allIds(load)),
              "every wire client resolved to a live table entry");
}

/**
 * The shipped default, parallelBanks=true, on a stack of its own for
 * 30% of the run: it starts and joins a thread per bank on every fill,
 * and on a shared VM its rate swung threefold between and within runs,
 * too much to bound, so it is a detail figure.
 * Its stream gets the same identity and accounting checks.
 */
LargeResult
measureParallelBanks(Outcome &out, const Options &opt, uint64_t id_base)
{
    UdpSetup p = setUpUdp(BackendKind::Quac, 4, kLargeClients, id_base,
                          opt.seed, false, 1, 1024, 1, true);
    warmLarge(out, *p.load, opt.seconds);
    LargeResult r = largeMeasure(*p.load, out, 0.3 * opt.seconds);
    p.stack->pause();
    const std::string label = "parallelBanks stack: ";
    checkServerAccounting(out, *p.stack, *p.load, label);
    checkShards(out, p.load->streams(), BackendKind::Quac, {0, 1, 2, 3},
                label);
    return r;
}

Outcome
runUdpQuacLarge(const Options &opt)
{
    Outcome out;
    uint64_t id_base = (splitmix(opt.seed) & 0xFFFFFFFFull) << 24;
    trace::setEnabled(opt.trace);
    // The measured stack runs its QUAC banks serially (byte-identical
    // output); see measureParallelBanks for the shipped default.
    UdpSetup s = setUpUdp(BackendKind::Quac, 4, kLargeClients, id_base,
                          opt.seed, opt.corruptPayload, 9, 1024, 1);
    trace::setEnabled(false);
    LoadClient &load = *s.load;
    UdpStack &stack = *s.stack;
    warmLarge(out, load, opt.seconds);

    if (!opt.trace) {
        LargeResult r = largeMeasure(load, out, opt.seconds);
        stack.pause();
        out.endToEnd = {
            {"setup_s", s.setupS, "s"},
            {"peak_rss_MB", peakRssMb(), "MB"},
            {"throughput_rps", r.rps, "1/s"},
            {"goodput_MBps", r.goodput, "MB/s"},
            {"lat_p50_us", r.p50, "us"},
        };
        LargeResult par = measureParallelBanks(out, opt, id_base + (1 << 20));
        out.detail = {
            {"lat_p99_us", r.p99, "us"},
            {"throughput_rps.parallel_banks", par.rps, "1/s"},
            {"goodput_MBps.parallel_banks", par.goodput, "MB/s"},
            {"lat_p50_us.parallel_banks", par.p50, "us"},
            {"lat_p99_us.parallel_banks", par.p99, "us"},
        };
    } else {
        LargeResult base = largeMeasure(load, out, 0.5 * opt.seconds);
        stack.pause();
        ServerDelta d = snapshot(stack);
        stack.start();
        uint64_t since = trace::nowNs();
        trace::setEnabled(true);
        LargeResult traced = largeMeasure(load, out, 0.5 * opt.seconds);
        trace::setEnabled(false);
        stack.pause();
        LayerFigures f;
        finishTrace(opt, f, since);
        udpLayerFigures(f, stack, d, true);
        f.traceOverheadPct =
            traced.rps > 0 ? 100.0 * (base.rps / traced.rps - 1.0) : 0.0;
        f.coreSetupS = median(s.coreSetupS);
        f.coreIterations = static_cast<double>(probeIterations(4));
        double bpi = 0;
        for (auto &q : stack.backends->quac)
            bpi += static_cast<double>(q->bytesPerIteration());
        f.bytesPerIteration = bpi / 4.0;
        f.simGbps = simulatedGbpsPerChannel(*stack.backends, 4);
        emitLayers(out, f);
    }

    checkServerAccounting(out, stack, load);
    checkShards(out, load.streams(), BackendKind::Quac, {0, 1, 2, 3});
    return out;
}

// ---------------------------------------------------- inproc_mixed

/** One caller thread's open loop and its results. */
struct Caller
{
    Caller(std::vector<service::EntropyService::Client> clients_,
           std::vector<size_t> shards_, double rate_, size_t bytes_,
           uint64_t seed)
        : clients(std::move(clients_)), shards(std::move(shards_)),
          rate(rate_), bytes(bytes_), rng(seed)
    {
    }

    std::vector<service::EntropyService::Client> clients;
    std::vector<size_t> shards;
    double rate;
    size_t bytes;
    Xoshiro256pp rng;
    uint64_t nextRequestId = 1;

    struct Result
    {
        Result(uint64_t start, uint64_t latency_window_ns)
            : latency(start, latency_window_ns),
              own(start, latency_window_ns), rates(start)
        {
        }
        /** Per served call, from its due time. */
        WindowedLatency latency;
        /**
         * Per served call, from its due time when the previous call
         * ran past it, else from the call's actual start: what the
         * program makes the caller wait, without the sleeping
         * caller's own wake-up delay (a property of the host's timer
         * path, several times the call itself).
         */
        WindowedLatency own;
        /** Served calls and bytes by completion time. */
        RateWindows rates;
        std::vector<uint64_t> lagNs;
        uint64_t calls = 0;
        uint64_t requested = 0;
        uint64_t delivered = 0;
        uint64_t denied = 0;
        uint64_t errors = 0;
        uint64_t served = 0;
    };

    /**
     * Open loop from @p start to @p end: call i is due at
     * start + i / rate; the thread sleeps (never spins) until then.
     * Payloads are hashed into @p streams in call order. With
     * @p sample_cpu the thread also samples the process CPU time at
     * every rate-window boundary up to @p end.
     */
    Result
    run(uint64_t start, uint64_t end, ShardStreams &streams, bool corrupt,
        bool sample_cpu)
    {
        Result res(start, openLoopWindowNs(rate));
        double interval = 1e9 / rate;
        size_t expected =
            static_cast<size_t>(static_cast<double>(end - start) / interval) +
            1;
        res.latency.reserve(expected);
        res.own.reserve(expected);
        res.lagNs.reserve(expected);
        res.rates.reserve(static_cast<double>(end - start) / 1e9);
        PreciseSleeps precise;
        std::vector<uint8_t> buf(bytes);
        bool corrupted = false;
        uint64_t prev_done = 0;
        for (uint64_t i = 0;; ++i) {
            uint64_t sched =
                start + static_cast<uint64_t>(static_cast<double>(i) *
                                              interval);
            if (sched >= end)
                break;
            if (trace::nowNs() < sched)
                sleepUntil(sched);
            if (sample_cpu)
                res.rates.sampleCpu(trace::nowNs(),
                                    CLOCK_PROCESS_CPUTIME_ID);
            size_t pick = rng.uniformInt(clients.size());
            uint64_t t_call = trace::nowNs();
            res.lagNs.push_back(t_call - sched);
            service::RequestResult r;
            try {
                trace::Span span(trace::Kind::Request, nextRequestId++);
                r = clients[pick].request(buf.data(), buf.size());
                span.setItems(r.bytes);
            } catch (const std::exception &) {
                ++res.errors;
                ++res.calls;
                continue;
            }
            uint64_t t_done = trace::nowNs();
            ++res.calls;
            res.requested += bytes;
            if (r.denied) {
                ++res.denied;
                continue;
            }
            ++res.served;
            res.delivered += r.bytes;
            res.latency.add(sched, t_done - sched);
            res.own.add(sched,
                        t_done - (prev_done > sched ? sched : t_call));
            prev_done = t_done;
            res.rates.add(t_done, r.bytes);
            // The first served call from call 100 on gets one flipped
            // byte.
            if (corrupt && !corrupted && res.calls >= 100 && r.bytes > 0) {
                buf[0] ^= 0x01;
                corrupted = true;
            }
            streams.add(shards[pick], buf.data(), r.bytes);
        }
        if (sample_cpu) {
            sleepUntil(end);
            res.rates.sampleCpu(trace::nowNs(), CLOCK_PROCESS_CPUTIME_ID);
        }
        return res;
    }
};

struct MixedResult
{
    Caller::Result interactive;
    Caller::Result bulk;
    /** Both callers' served calls and bytes, with the process CPU
     * time at the window boundaries. */
    RateWindows rates;
    uint64_t endNs;
};

MixedResult
mixedMeasure(Caller &interactive, Caller &bulk, double seconds,
             ShardStreams &streams, bool corrupt)
{
    uint64_t start = trace::nowNs() + kMs;
    uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    Caller::Result ir(start, 1); // replaced by the thread's result
    std::thread t([&] {
        ir = interactive.run(start, end, streams, corrupt, false);
    });
    // The bulk caller wakes every 2 ms, so it samples the CPU clock.
    Caller::Result br = bulk.run(start, end, streams, false, true);
    t.join();
    RateWindows rates = br.rates;
    size_t windows = std::min(rates.count.size(), ir.rates.count.size());
    for (size_t w = 0; w < windows; ++w) {
        rates.count[w] += ir.rates.count[w];
        rates.bytes[w] += ir.rates.bytes[w];
    }
    return {std::move(ir), std::move(br), std::move(rates), end};
}

void
countCaller(Outcome &out, const Caller::Result &r)
{
    out.attempted += r.calls;
    out.failed += r.denied + r.errors;
}

Outcome
runInprocMixed(const Options &opt)
{
    Outcome out;
    constexpr size_t kShards = 4;
    constexpr size_t kBackends = kShards + 1; // one spare, as health asks
    trace::setEnabled(opt.trace);

    std::unique_ptr<Backends> backends;
    std::unique_ptr<service::EntropyService> svc;
    std::vector<service::EntropyService::Client> clients;
    std::vector<double> setup_times;
    std::vector<double> core_setup;
    ShardStreams streams(kShards);
    for (unsigned rep = 0; rep < 9; ++rep) {
        clients.clear();
        svc.reset();
        backends.reset();
        streams = ShardStreams(kShards);
        uint64_t t0 = trace::nowNs();
        // Serial banks, as udp_quac_large's bounded stack: with the
        // shipped parallelBanks=true every fill starts and joins a
        // thread per bank, and on a shared 4-vCPU VM the process CPU
        // per call then swung between runs (0.15 IQR/median over five
        // seeds, against 0.005 serial).
        backends = makeBackends(BackendKind::Quac, kBackends, false);
        service::EntropyServiceConfig cfg;
        cfg.shards = kShards;
        cfg.shardCapacityBytes = 64 * 1024;
        cfg.placement = service::PlacementPolicy::LeastLoaded;
        cfg.health.enabled = true;
        svc = std::make_unique<service::EntropyService>(backends->pool(),
                                                        cfg);
        svc->startAutoRefill(std::chrono::microseconds(200));
        clients.push_back(
            svc->connect("interactive-0", service::Priority::Interactive, 0));
        clients.push_back(
            svc->connect("interactive-1", service::Priority::Interactive, 1));
        clients.push_back(svc->connect("bulk-2", service::Priority::Bulk, 2));
        clients.push_back(svc->connect("bulk-3", service::Priority::Bulk, 3));
        uint8_t first[32];
        service::RequestResult r = clients[0].request(first, sizeof(first));
        setup_times.push_back(static_cast<double>(trace::nowNs() - t0) /
                              1e9);
        streams.add(0, first, r.bytes);
        for (double c : backends->setupSeconds)
            core_setup.push_back(c);
    }
    trace::setEnabled(false);

    uint64_t probe_bytes = clients[0].stats().bytesServed;
    Caller interactive({clients[0], clients[1]}, {0, 1}, 20000.0, 32,
                       splitmix(opt.seed ^ 0x1));
    Caller bulk({clients[2], clients[3]}, {2, 3}, 500.0, 4096,
                splitmix(opt.seed ^ 0x2));

    // Client-side totals, checked against the service's own counts.
    uint64_t calls = 1;
    uint64_t delivered = probe_bytes;
    auto count = [&](const MixedResult &m) {
        for (const Caller::Result *r : {&m.interactive, &m.bulk}) {
            countCaller(out, *r);
            calls += r->calls - r->errors;
            delivered += r->delivered;
        }
    };

    // Warm-up (discarded): row caches, ring fill, steady refill.
    count(mixedMeasure(interactive, bulk, std::max(0.5, 0.1 * opt.seconds),
                       streams, false));

    if (!opt.trace) {
        MixedResult m = mixedMeasure(interactive, bulk, opt.seconds, streams,
                                     opt.corruptPayload);
        svc->stopAutoRefill();
        count(m);
        double ip50 = p50Us(m.interactive.latency);
        double own50 = p50Us(m.interactive.own);
        double full_ratio =
            m.bulk.requested > 0
                ? static_cast<double>(m.bulk.delivered) / m.bulk.requested
                : 0.0;
        // Rates per process CPU second (the open loops fix the
        // delivered rate); the delivered rates are detail lines. The
        // bounded latency leaves out the caller's wake-up delay; the
        // latencies from the due time are detail lines.
        out.endToEnd = {
            {"setup_s", median(setup_times), "s"},
            {"peak_rss_MB", peakRssMb(), "MB"},
            {"throughput_rps", median(m.rates.cpuRates(false)),
             "1/s"},
            {"goodput_MBps", median(m.rates.cpuRates(true)) / 1e6,
             "MB/s"},
            {"lat_p50_us", own50, "us"},
        };
        std::vector<uint64_t> lags = m.interactive.lagNs;
        lags.insert(lags.end(), m.bulk.lagNs.begin(), m.bulk.lagNs.end());
        out.detail = {
            {"throughput_rps.delivered",
             median(m.rates.wallRates(m.endNs, false)), "1/s"},
            {"goodput_MBps.delivered",
             median(m.rates.wallRates(m.endNs, true)) / 1e6, "MB/s"},
            {"lat_p50_us.interactive", ip50, "us"},
            {"lat_p99_us.interactive", p99Us(m.interactive.latency), "us"},
            {"lat_p99_us.bulk", p99Us(m.bulk.latency), "us"},
            {"short_ratio.bulk", 1.0 - full_ratio, "ratio"},
            {"bench.gen_lag_p99_us", lagP99Us(lags), "us"},
        };
    } else {
        MixedResult base = mixedMeasure(interactive, bulk, 0.5 * opt.seconds,
                                        streams, false);
        count(base);
        uint64_t served0 = svc->requestsServed();
        uint64_t hits0 = svc->bufferHits();
        uint64_t sync0 = svc->synchronousFills();
        uint64_t iter0 = backends->iterations();
        uint64_t since = trace::nowNs();
        trace::setEnabled(true);
        MixedResult traced = mixedMeasure(
            interactive, bulk, 0.5 * opt.seconds, streams, false);
        trace::setEnabled(false);
        svc->stopAutoRefill();
        count(traced);
        LayerFigures f;
        finishTrace(opt, f, since);
        std::vector<uint64_t> lags = traced.interactive.lagNs;
        lags.insert(lags.end(), traced.bulk.lagNs.begin(),
                    traced.bulk.lagNs.end());
        f.genLagP99Us = lagP99Us(lags);
        double b50 = p50Us(base.interactive.own);
        double t50 = p50Us(traced.interactive.own);
        f.traceOverheadPct = b50 > 0 ? 100.0 * (t50 / b50 - 1.0) : 0.0;
        uint64_t served = svc->requestsServed() - served0;
        f.hitRatio = served > 0 ? static_cast<double>(svc->bufferHits() -
                                                      hits0) /
                                      served
                                : 0.0;
        f.syncFills = static_cast<double>(svc->synchronousFills() - sync0);
        std::vector<uint64_t> &req =
            f.spans[static_cast<size_t>(trace::Kind::Request)].durations;
        f.serveNsP50 = static_cast<double>(percentile(req, 0.50));
        f.serveNsP99 = static_cast<double>(percentile(req, 0.99));
        f.fillNsPerIteration = fillNsPerIteration(
            f.spans[static_cast<size_t>(trace::Kind::Fill)],
            backends->iterations() - iter0, true);
        f.coreSetupS = median(core_setup);
        f.coreIterations = static_cast<double>(probeIterations(4));
        double bpi = 0;
        for (size_t m = 0; m < kShards; ++m)
            bpi += static_cast<double>(backends->quac[m]->bytesPerIteration());
        f.bytesPerIteration = bpi / kShards;
        f.simGbps = simulatedGbpsPerChannel(*backends, kShards);
        service::EntropyService::HealthStats h = svc->healthStats();
        f.quarantines = static_cast<double>(h.quarantines);
        f.unhealthyServed = static_cast<double>(h.unhealthyBytesServed);
        f.unhealthyDropped = static_cast<double>(h.unhealthyBytesDropped);
        emitLayers(out, f);
    }

    // The service's own per-client counts: every call the callers
    // completed (the set-up probe included) and every byte they got.
    service::ClientStats served;
    for (auto &c : clients) {
        service::ClientStats cs = c.stats();
        served.requests += cs.requests;
        served.bytesServed += cs.bytesServed;
    }
    out.check(served.requests == calls && served.bytesServed == delivered,
              "service counted " + std::to_string(served.requests) +
                  " requests and " + std::to_string(served.bytesServed) +
                  " bytes served; the callers completed " +
                  std::to_string(calls) + " and received " +
                  std::to_string(delivered));
    service::EntropyService::HealthStats h = svc->healthStats();
    out.check(h.enabled, "health monitoring enabled");
    out.check(h.quarantines == 0,
              "health.quarantines == 0 (" + std::to_string(h.quarantines) +
                  ")");
    out.check(h.unhealthyBytesServed == 0,
              "health.unhealthy_bytes_served == 0 (" +
                  std::to_string(h.unhealthyBytesServed) + ")");
    std::vector<size_t> backend_of_shard;
    for (size_t s = 0; s < kShards; ++s)
        backend_of_shard.push_back(svc->shardBackendIndex(s));
    out.check(backend_of_shard == std::vector<size_t>({0, 1, 2, 3}),
              "every shard still sourced from its home backend");
    checkShards(out, streams, BackendKind::Quac, {0, 1, 2, 3});
    return out;
}

} // anonymous namespace

void
Outcome::check(bool ok, const std::string &what)
{
    checks.push_back(std::string(ok ? "PASS " : "FAIL ") + what);
    if (!ok)
        correct = false;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "udp_small", "udp_quac_large", "inproc_mixed"};
    return names;
}

Outcome
runWorkload(const Options &opt)
{
    Outcome out;
    if (opt.workload == "udp_small")
        out = runUdpSmall(opt);
    else if (opt.workload == "udp_quac_large")
        out = runUdpQuacLarge(opt);
    else if (opt.workload == "inproc_mixed")
        out = runInprocMixed(opt);
    else
        throw std::runtime_error("unknown workload: " + opt.workload);

    // ok_ratio = 1 - (lost + denied + errors) / attempted, once every
    // phase has been counted.
    if (!out.endToEnd.empty()) {
        double ok = out.attempted > 0
                        ? 1.0 - static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                        : 0.0;
        out.endToEnd.insert(out.endToEnd.begin() + 2,
                            {"ok_ratio", ok, "ratio"});
    }
    return out;
}

} // namespace e2e
