/**
 * @file
 * SpmcRing on its own: wrap-around copies, all-or-nothing claims,
 * generation resets, the flush that must hand the producer its space
 * back, and a consumers-versus-producer hammer (CI runs it under
 * TSan). The service-level checks live in lockfree_ring_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "service/spmc_ring.hh"

namespace quac::service
{
namespace
{

/** Stream byte at position @p k: steps by 151 (odd), so any
 * contiguous slice is recognisable and pins k modulo 256. */
uint8_t
streamByte(uint64_t k)
{
    return static_cast<uint8_t>(151 * k);
}

/** Reserve @p n bytes, write stream positions from @p next on, and
 * publish them; returns the next stream position. */
uint64_t
produce(SpmcRing &ring, size_t n, uint64_t next)
{
    SpmcRing::Spans spans = ring.reserve(n);
    EXPECT_EQ(spans.head.size() + spans.wrap.size(), n);
    for (uint8_t &b : spans.head)
        b = streamByte(next++);
    for (uint8_t &b : spans.wrap)
        b = streamByte(next++);
    ring.publish(n);
    return next;
}

bool
isStreamSlice(const uint8_t *bytes, size_t len, uint64_t first)
{
    for (size_t i = 0; i < len; ++i) {
        if (bytes[i] != streamByte(first + i))
            return false;
    }
    return true;
}

TEST(SpmcRing, TakeWrapsAcrossTheEndOfTheStorage)
{
    SpmcRing ring;
    ring.resize(16);
    uint64_t next = produce(ring, 12, 0);
    uint8_t out[16];
    ASSERT_EQ(ring.take(out, 10, false), 10u);

    // Tail sits at 12: the next 12 bytes are 4 at the end of the
    // storage plus 8 wrapped to its start.
    SpmcRing::Spans spans = ring.reserve(12);
    EXPECT_EQ(spans.head.size(), 4u);
    EXPECT_EQ(spans.wrap.size(), 8u);
    for (uint8_t &b : spans.head)
        b = streamByte(next++);
    for (uint8_t &b : spans.wrap)
        b = streamByte(next++);
    ring.publish(12);
    EXPECT_EQ(ring.level(), 14u);

    ASSERT_EQ(ring.take(out, 14, true), 14u);
    EXPECT_TRUE(isStreamSlice(out, 14, 10));
    EXPECT_EQ(ring.level(), 0u);
    EXPECT_EQ(ring.writable(), 16u);
}

TEST(SpmcRing, AllOrNothingRefusesAShortClaim)
{
    SpmcRing ring;
    ring.resize(8);
    produce(ring, 4, 0);
    uint8_t out[8];
    EXPECT_EQ(ring.take(out, 8, true), 0u);
    EXPECT_EQ(ring.level(), 4u); // nothing claimed
    EXPECT_EQ(ring.take(out, 8, false), 4u);
    EXPECT_TRUE(isStreamSlice(out, 4, 0));
    EXPECT_EQ(ring.take(out, 1, false), 0u);
}

TEST(SpmcRing, ResizeStartsAFreshGeneration)
{
    SpmcRing ring;
    EXPECT_EQ(ring.size(), 0u);
    uint8_t out[8];
    EXPECT_EQ(ring.take(out, 8, false), 0u); // no storage yet

    ring.resize(8);
    produce(ring, 6, 0);
    ASSERT_EQ(ring.take(out, 2, false), 2u);
    EXPECT_THROW(ring.resize(16), PanicError); // not flushed
    EXPECT_EQ(ring.flush(), 4u);
    ASSERT_EQ(ring.writable(), 8u); // else resize() would never drain
    ring.resize(16);
    EXPECT_EQ(ring.size(), 16u);
    EXPECT_EQ(ring.level(), 0u);
    EXPECT_EQ(ring.writable(), 16u);
    // The old generation's bytes are gone for every kind of take.
    EXPECT_EQ(ring.take(out, 4, true), 0u);
    EXPECT_EQ(ring.take(out, 4, false), 0u);

    produce(ring, 5, 100);
    ASSERT_EQ(ring.take(out, 8, false), 5u);
    EXPECT_TRUE(isStreamSlice(out, 5, 100));
}

TEST(SpmcRing, FlushHandsTheProducerItsSpaceBack)
{
    // Nobody claims a flushed span, so no ticket retires it; unless
    // readDone jumps over it, the producer's space never returns and
    // the next wrapping reserve() spins forever.
    SpmcRing ring;
    ring.resize(16);
    produce(ring, 16, 0);
    uint8_t out[16];
    ASSERT_EQ(ring.take(out, 4, true), 4u);
    EXPECT_EQ(ring.flush(), 12u);
    EXPECT_EQ(ring.level(), 0u);
    EXPECT_EQ(ring.flush(), 0u);
    ASSERT_EQ(ring.writable(), 16u);
    produce(ring, 16, 16);
    ASSERT_EQ(ring.take(out, 16, true), 16u);
    EXPECT_TRUE(isStreamSlice(out, 16, 16));
}

TEST(SpmcRing, ConsumersAndProducerHammer)
{
    // Three consumers take random lengths while one producer
    // publishes, and now and then flushes and resizes. Every take
    // must be one contiguous stream slice, and taken + flushed bytes
    // must add up to what was published, value for value.
    constexpr uint64_t kBytes = 1u << 18;
    constexpr int kConsumers = 3;
    SpmcRing ring;
    ring.resize(64);
    std::atomic<bool> done{false};
    std::atomic<bool> broken{false};
    std::atomic<uint64_t> taken{0};
    std::atomic<uint64_t> taken_sum{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&, c]() {
            std::mt19937 rng(77 + c);
            uint8_t out[32];
            uint64_t bytes = 0;
            uint64_t sum = 0;
            for (;;) {
                bool finished = done.load(std::memory_order_acquire);
                size_t len = 1 + rng() % 32;
                size_t got = ring.take(out, len, rng() % 2 == 0);
                sum += got > 0 ? out[0] : 0;
                for (size_t i = 1; i < got; ++i) {
                    sum += out[i];
                    uint8_t step = out[i] - out[i - 1];
                    if (step != 151)
                        broken.store(true);
                }
                bytes += got;
                if (got == 0) {
                    if (finished && ring.level() == 0)
                        break;
                    std::this_thread::yield();
                }
            }
            taken.fetch_add(bytes);
            taken_sum.fetch_add(sum);
        });
    }

    std::mt19937 rng(5);
    uint64_t next = 0;
    uint64_t published_sum = 0;
    uint64_t flushed = 0;
    uint64_t flushed_sum = 0;
    size_t sizes[] = {64, 96};
    while (next < kBytes) {
        if (rng() % 512 == 0) {
            // Flush, then replace the storage. The flushed span is
            // the newest unclaimed bytes, ending at `next`.
            size_t dropped = ring.flush();
            flushed += dropped;
            for (uint64_t k = next - dropped; k < next; ++k)
                flushed_sum += streamByte(k);
            // A flush that dropped bytes first retired every copy:
            // the storage is all the producer's again.
            if (dropped > 0 && ring.writable() != ring.size()) {
                ADD_FAILURE() << "flush left readDone behind";
                break;
            }
            ring.resize(sizes[rng() % 2]);
            continue;
        }
        size_t room = ring.size() - ring.level();
        size_t want = std::min<size_t>(1 + rng() % 24, room);
        if (want == 0) {
            std::this_thread::yield();
            continue;
        }
        for (uint64_t k = next; k < next + want; ++k)
            published_sum += streamByte(k);
        next = produce(ring, want, next);
    }
    done.store(true, std::memory_order_release);
    for (std::thread &t : consumers)
        t.join();

    EXPECT_FALSE(broken.load()) << "a take was not one stream slice";
    ASSERT_EQ(taken.load() + flushed, next);
    EXPECT_EQ(taken_sum.load() + flushed_sum, published_sum);
    EXPECT_EQ(ring.level(), 0u);
}

} // anonymous namespace
} // namespace quac::service
