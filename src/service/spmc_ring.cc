#include "service/spmc_ring.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/error.hh"

namespace quac::service
{

namespace
{

/** Cursors pack a 16-bit storage generation over a 48-bit byte
 * position; 2^48 bytes per ring outlives any run. */
constexpr uint64_t kCursorPosBits = 48;
constexpr uint64_t kCursorPosMask = (uint64_t{1} << kCursorPosBits) - 1;

constexpr uint64_t
packCursor(uint64_t gen, uint64_t pos)
{
    return (gen << kCursorPosBits) | (pos & kCursorPosMask);
}

constexpr uint64_t
cursorGen(uint64_t word)
{
    return word >> kCursorPosBits;
}

constexpr uint64_t
cursorPos(uint64_t word)
{
    return word & kCursorPosMask;
}

/** Spin until @p cursor holds @p word; the wait is on other threads'
 * copies, which hold no lock. */
void
awaitCursor(const std::atomic<uint64_t> &cursor, uint64_t word)
{
    while (cursor.load(std::memory_order_acquire) != word)
        std::this_thread::yield();
}

} // anonymous namespace

size_t
SpmcRing::take(uint8_t *out, size_t len, bool all_or_nothing)
{
    if (len == 0)
        return 0;
    // relaxed: first guess only; the CAS below is the synchronizing
    // operation.
    uint64_t claim = claim_.load(std::memory_order_relaxed);
    uint64_t gen, pos;
    size_t n;
    for (;;) {
        uint64_t tail = tail_.load(std::memory_order_acquire);
        gen = cursorGen(claim);
        pos = cursorPos(claim);
        if (cursorGen(tail) != gen)
            return 0; // resize() in flight
        uint64_t avail = cursorPos(tail) - pos;
        n = static_cast<size_t>(std::min<uint64_t>(len, avail));
        if (n == 0 || (all_or_nothing && n < len))
            return 0;
        // relaxed: CAS failure order — the reloaded claim is retried.
        // Success is seq_cst, which compiles to the same instruction
        // as acq_rel on x86-64 and AArch64: EntropyService's refill
        // wake protocol must not miss this drain.
        if (claim_.compare_exchange_weak(
                claim, packCursor(gen, pos + n),
                std::memory_order_seq_cst, std::memory_order_relaxed))
            break;
    }
    // The claim certifies the generation: resize() cannot replace
    // the storage until this claim retires through readDone below.
    // The acquire on tail ordered the producer's writes (and the
    // storage assignment) before these reads.
    size_t cap = storage_.size();
    size_t start = static_cast<size_t>(pos % cap);
    size_t first = std::min(n, cap - start);
    std::memcpy(out, storage_.data() + start, first);
    if (n > first)
        std::memcpy(out + first, storage_.data(), n - first);
    // Ticket-ordered completion: readDone advances in claim order, so
    // the producer's overwrite horizon (readDone + size) never runs
    // past an unfinished copy.
    awaitCursor(readDone_, packCursor(gen, pos));
    readDone_.store(packCursor(gen, pos + n),
                    std::memory_order_release);
    return n;
}

size_t
SpmcRing::writable() const
{
    // relaxed: tail is producer-private and this is a producer call.
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t done = readDone_.load(std::memory_order_acquire);
    if (cursorGen(done) != cursorGen(tail))
        return 0;
    return storage_.size() -
           static_cast<size_t>(cursorPos(tail) - cursorPos(done));
}

SpmcRing::Spans
SpmcRing::reserve(size_t want)
{
    size_t cap = storage_.size();
    QUAC_ASSERT(level() + want <= cap, "ring overflow: %zu + %zu > %zu",
                level(), want, cap);
    if (want == 0)
        return {};
    // The region about to be written may still be under an in-flight
    // copy (readDone trails claim by the claimed spans).
    while (writable() < want)
        std::this_thread::yield();
    // relaxed: producer-private, as in writable().
    size_t start = static_cast<size_t>(
        cursorPos(tail_.load(std::memory_order_relaxed)) % cap);
    size_t first = std::min(want, cap - start);
    return {{storage_.data() + start, first},
            {storage_.data(), want - first}};
}

void
SpmcRing::publish(size_t n)
{
    // relaxed: producer-private read; the release store hands the
    // written bytes to consumers.
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    tail_.store(packCursor(cursorGen(tail), cursorPos(tail) + n),
                std::memory_order_release);
}

size_t
SpmcRing::flush()
{
    // relaxed: producer calls are serialized, so neither cursor moves
    // under us except claim, which the CAS below reloads. A racing
    // take() may claim part of the span before the flush lands; only
    // the remainder is dropped.
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t claim = claim_.load(std::memory_order_relaxed);
    for (;;) {
        if (cursorPos(tail) == cursorPos(claim))
            return 0;
        // relaxed: CAS failure order of the retry loop. Success is
        // seq_cst for the refill wake protocol, as in take().
        if (claim_.compare_exchange_weak(claim, tail,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed))
            break;
    }
    // No ticket will retire the dropped span, so readDone must jump
    // over it or reserve() starves once the write horizon wraps.
    // First let in-flight copies (tickets below the old claim)
    // retire; no new claim can start, as claim == tail.
    awaitCursor(readDone_, claim);
    readDone_.store(tail, std::memory_order_release);
    return static_cast<size_t>(cursorPos(tail) - cursorPos(claim));
}

void
SpmcRing::resize(size_t bytes)
{
    QUAC_ASSERT(level() == 0, "resizing a non-flushed ring");
    // relaxed: the generation bump is published by the acq_rel
    // exchange below, not this read.
    uint64_t fresh = packCursor(
        cursorGen(claim_.load(std::memory_order_relaxed)) + 1, 0);
    // The exchange fails every in-flight CAS (old generation) and
    // hands back the final old-generation claim, which is exactly
    // where readDone must arrive before the storage is safe to
    // replace.
    awaitCursor(readDone_,
                claim_.exchange(fresh, std::memory_order_acq_rel));
    // relaxed: consumers resynchronize through the release store of
    // tail below.
    readDone_.store(fresh, std::memory_order_relaxed);
    storage_.assign(bytes, 0);
    tail_.store(fresh, std::memory_order_release);
}

} // namespace quac::service
