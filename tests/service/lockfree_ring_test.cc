/**
 * @file
 * Lock-free request data plane tests: a serial schedule through every
 * serve path checked byte by byte against a reference model, and
 * thread-sanitizer hammer tests driving N consumers against the SPMC
 * ring's producer, client migration, and quarantine re-sourcing. The
 * hammers run under the regular build too (the invariant checks are
 * cheap); CI's TSan job is where they earn their keep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.hh"
#include "service/entropy_service.hh"

namespace quac::service
{
namespace
{

/**
 * Deterministic backend whose byte stream is a pure function of its
 * tag and stream position: byte k = tag + 151 * k. Any contiguous
 * slice of any tag's stream steps by 151 between neighbouring bytes,
 * so per-request stream contiguity is checkable without knowing
 * which backend (or stream offset) served the request. 151 is odd,
 * so a byte also pins its position k modulo 256.
 */
class TaggedTrng : public core::Trng
{
  public:
    explicit TaggedTrng(uint8_t tag, size_t chunk = 0)
        : tag_(tag), chunk_(chunk)
    {
    }

    std::string name() const override { return "tagged"; }

    void
    fill(uint8_t *out, size_t len) override
    {
        for (size_t i = 0; i < len; ++i) {
            out[i] = static_cast<uint8_t>(tag_ + 151 * counter_);
            ++counter_;
        }
    }

    size_t preferredChunkBytes() override { return chunk_; }

    /** Byte at stream position @p k of tag @p tag. */
    static uint8_t
    expected(uint8_t tag, uint64_t k)
    {
        return static_cast<uint8_t>(tag + 151 * k);
    }

  private:
    uint8_t tag_;
    size_t chunk_;
    uint64_t counter_ = 0;
};

/** Bytes within one request must step by 151 (see TaggedTrng). */
bool
isStreamContiguous(const uint8_t *bytes, size_t len)
{
    for (size_t i = 1; i < len; ++i) {
        if (static_cast<uint8_t>(bytes[i] - bytes[i - 1]) != 151)
            return false;
    }
    return true;
}

/**
 * One serial schedule through every serve path (hits, a bulk partial,
 * misses, a migration and a retune flush), checked against a
 * reference model that only tracks the next stream position each
 * shard must serve. Shard s drains backend s (tag 10 * (s + 1)); the
 * levels and counts in the comments are worked out by hand.
 */
TEST(LockFreeRing, ServedStreamsMatchReferenceModel)
{
    TaggedTrng b0(10, 64);
    TaggedTrng b1(20, 64);
    const uint8_t tags[2] = {10, 20};
    EntropyServiceConfig cfg;
    cfg.shards = 2;
    cfg.shardCapacityBytes = 256;
    EntropyService svc({&b0, &b1}, cfg);

    EntropyService::Client i0 =
        svc.connect("i0", Priority::Interactive, 0);
    EntropyService::Client s0 =
        svc.connect("s0", Priority::Standard, 0);
    EntropyService::Client k0 = svc.connect("k0", Priority::Bulk, 0);
    EntropyService::Client s1 =
        svc.connect("s1", Priority::Standard, 1);
    EntropyService::Client k1 = svc.connect("k1", Priority::Bulk, 1);

    uint64_t next[2] = {0, 0};
    std::vector<uint8_t> buf(2048);
    auto serve = [&](EntropyService::Client &client, size_t len,
                     size_t want_bytes, bool want_hit) {
        size_t shard = client.shard();
        RequestResult res = client.request(buf.data(), len);
        EXPECT_EQ(res.bytes, want_bytes) << client.name();
        EXPECT_EQ(res.hit, want_hit) << client.name();
        EXPECT_FALSE(res.denied) << client.name();
        for (size_t i = 0; i < res.bytes; ++i) {
            uint64_t pos = next[shard] + i;
            ASSERT_EQ(buf[i], TaggedTrng::expected(tags[shard], pos))
                << client.name() << " byte " << i;
        }
        next[shard] += res.bytes;
    };

    // Both shards buffer positions [0, 256). Refills pull whole 64 B
    // chunks once a shard holds 128 bytes or fewer.
    svc.refillBelowWatermark();
    // Shard 0: a hit leaves 192 buffered, a bulk request drains them
    // (partial), then a miss sync-fills positions [256, 556).
    serve(i0, 64, 64, true);
    serve(k0, 512, 192, false);
    serve(s0, 300, 300, false);
    // Shard 1 drops to 128, then to 64 after s0 migrates onto it.
    serve(s1, 96, 96, true);
    serve(k1, 32, 32, true);
    svc.migrateClient(s0, 1);
    serve(s0, 64, 64, true);
    // Shard 0 buffers [556, 812), shard 1 tops up by 192 to [192, 448).
    svc.refillBelowWatermark();
    serve(i0, 128, 128, true);
    // The retune drops shard 0's buffered [684, 812) unserved: the
    // stream's one gap.
    size_t dropped = svc.retuneBackend(0, [] { return true; });
    EXPECT_EQ(dropped, 128u);
    next[0] += dropped;
    // A miss sync-fills [812, 860); the refill buffers [860, 1116)
    // and leaves the full shard 1 alone.
    serve(i0, 48, 48, false);
    svc.refillBelowWatermark();
    serve(k0, 200, 200, true);
    serve(s1, 17, 17, true);
    serve(i0, 1, 1, true);

    EXPECT_EQ(next[0], 1061u);
    EXPECT_EQ(next[1], 209u);
    EXPECT_EQ(svc.level(0), 1116u - 1061u);
    EXPECT_EQ(svc.level(1), 448u - 209u);
    EXPECT_EQ(svc.suspectBytesDropped(), 128u);
    EXPECT_EQ(svc.requestsServed(), 11u);
    EXPECT_EQ(svc.bufferHits(), 8u);
    EXPECT_EQ(svc.synchronousFills(), 2u);
    EXPECT_EQ(k0.stats().partialServes, 1u);
    EXPECT_EQ(svc.denials(), 0u);
    EXPECT_EQ(svc.refills(), 5u);
    EXPECT_EQ(svc.bytesRefilled(), 2u * 256u + 256u + 192u + 256u);
}

TEST(LockFreeRing, HammerConsumersProducerAndMigration)
{
    TaggedTrng b0(30, 128);
    TaggedTrng b1(40, 128);
    EntropyServiceConfig cfg;
    cfg.shards = 2;
    cfg.shardCapacityBytes = 2048;
    EntropyService svc({&b0, &b1}, cfg);
    svc.startAutoRefill(std::chrono::microseconds(50));

    constexpr int kConsumers = 4;
    constexpr int kIterations = 1500;
    std::atomic<int> contiguityErrors{0};
    std::atomic<uint64_t> bytesSeen{0};

    std::vector<EntropyService::Client> clients;
    for (int c = 0; c < kConsumers; ++c) {
        clients.push_back(
            svc.connect("c" + std::to_string(c),
                        c % 2 ? Priority::Bulk : Priority::Standard,
                        c % 2));
    }
    EntropyService::Client roamer =
        svc.connect("roamer", Priority::Standard, 0);

    std::vector<std::thread> threads;
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&, c] {
            std::vector<uint8_t> buf(128);
            for (int iter = 0; iter < kIterations; ++iter) {
                size_t len = 48 + (7 * c + iter) % 64;
                RequestResult res =
                    clients[c].request(buf.data(), len);
                if (!isStreamContiguous(buf.data(), res.bytes))
                    contiguityErrors.fetch_add(1);
                bytesSeen.fetch_add(res.bytes);
            }
        });
    }
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(64);
        for (int iter = 0; iter < kIterations; ++iter) {
            RequestResult res = roamer.request(buf.data(), 40);
            if (!isStreamContiguous(buf.data(), res.bytes))
                contiguityErrors.fetch_add(1);
            bytesSeen.fetch_add(res.bytes);
        }
    });
    // Migration churn against the in-flight requests.
    for (int m = 0; m < 400; ++m) {
        svc.migrateClient(roamer, m % 2);
        std::this_thread::yield();
    }
    for (std::thread &thread : threads)
        thread.join();
    svc.stopAutoRefill();

    EXPECT_EQ(contiguityErrors.load(), 0);
    EXPECT_GT(bytesSeen.load(), 0u);

    // Byte conservation: everything the producer published was
    // either served from the buffer or still sits in a ring
    // (synchronous fills bypass the rings entirely).
    uint64_t from_buffer = roamer.stats().bytesFromBuffer;
    for (const EntropyService::Client &client : clients)
        from_buffer += client.stats().bytesFromBuffer;
    EXPECT_EQ(from_buffer + svc.totalLevel(), svc.bytesRefilled());
}

TEST(LockFreeRing, HammerQuarantineResourcingUnderLoad)
{
    // Bank 1 carries a bounded bias fault: the health monitor
    // quarantines it mid-run (flush + re-source race the consumers),
    // probation walks it past the fault, and the shard returns home.
    // Shard 0's bank stays healthy, so its requests must stay
    // stream-contiguous throughout; the tripwire must stay zero.
    TaggedTrng b0(50, 128);
    TaggedTrng b1_inner(60, 128);
    TaggedTrng b2(70, 128);
    core::FaultInjectedTrng b1(
        b1_inner, core::FaultSpec::parse("1:bias:0:2048:0.95"), 7);

    EntropyServiceConfig cfg;
    cfg.shards = 2;
    cfg.shardCapacityBytes = 1024;
    cfg.health.enabled = true;
    cfg.health.windowBits = 1024;
    cfg.health.failWindowLimit = 2;
    cfg.health.probationWindows = 3;
    EntropyService svc({&b0, &b1, &b2}, cfg);

    std::atomic<int> contiguityErrors{0};
    std::atomic<bool> stop{false};
    EntropyService::Client c0 =
        svc.connect("c0", Priority::Standard, 0);
    EntropyService::Client c1a =
        svc.connect("c1a", Priority::Standard, 1);
    EntropyService::Client c1b = svc.connect("c1b", Priority::Bulk, 1);

    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(96);
        // relaxed: test stop flag; no data is published through it.
        while (!stop.load(std::memory_order_relaxed)) {
            RequestResult res = c0.request(buf.data(), 80);
            if (!isStreamContiguous(buf.data(), res.bytes))
                contiguityErrors.fetch_add(1);
        }
    });
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(96);
        while (!stop.load(std::memory_order_relaxed))
            c1a.request(buf.data(), 64);
    });
    threads.emplace_back([&] {
        std::vector<uint8_t> buf(96);
        while (!stop.load(std::memory_order_relaxed))
            c1b.request(buf.data(), 96);
    });

    // The producer/health loop: refill + control-loop ticks racing
    // the consumers until the faulty bank has gone all the way to
    // quarantine and back home.
    for (int tick = 0; tick < 3000; ++tick) {
        svc.refillBelowWatermark();
        svc.healthTick();
        if (svc.healthStats().readmissions > 0 &&
            svc.shardBackendIndex(1) == 1 && tick > 50)
            break;
        std::this_thread::yield();
    }
    // relaxed: stop flag only; the joins below synchronize.
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(contiguityErrors.load(), 0);
    EntropyService::HealthStats stats = svc.healthStats();
    EXPECT_GE(stats.quarantines, 1u);
    EXPECT_EQ(stats.unhealthyBytesServed, 0u);
    EXPECT_GT(stats.unhealthyBytesDropped, 0u);
}

} // anonymous namespace
} // namespace quac::service
