/**
 * @file
 * Lock-free single-producer/multi-consumer byte ring: the controller
 * SRAM buffer an EntropyService shard serves from (paper Section 9).
 *
 * Contract. Three atomic cursors hold monotonic byte positions, each
 * packed under a storage generation:
 *
 *  - tail:     bytes published (publish() stores it with release
 *              after the bytes are written);
 *  - claim:    bytes claimed; take() CASes it forward, then copies;
 *  - readDone: bytes fully copied out, advanced in claim (ticket)
 *              order so a claimed span stays stable for its copy.
 *
 * Within one generation readDone <= claim <= tail and
 * tail - readDone <= size(). The generation changes only in resize(),
 * which fails every in-flight claim of the old one (take() returns 0)
 * and drains claimed copies before it replaces the storage.
 *
 * Consumers (take, level) run on any thread, lock-free. The producer
 * calls (writable, reserve, publish, flush, resize) must be
 * serialized by the caller; the ring knows nothing of refill, health
 * or locks. Their only waits are for in-flight copies to retire.
 */

#ifndef QUAC_SERVICE_SPMC_RING_HH
#define QUAC_SERVICE_SPMC_RING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace quac::service
{

class SpmcRing
{
  public:
    /** Writable storage for one publish: head, then wrap (may be
     * empty) from the start of the storage. */
    struct Spans
    {
        std::span<uint8_t> head;
        std::span<uint8_t> wrap;
    };

    /** Storage size in bytes (0 until the first resize()). */
    size_t size() const { return storage_.size(); }

    /** Published, unclaimed bytes (tail - claim); wait-free. */
    size_t
    level() const
    {
        // relaxed: claim is read after the acquire of tail; a claim
        // newer than that tail only under-reports. The generation
        // sits in the top bits and claim's is never behind tail's,
        // so a reset in flight (or a claim past the tail read) makes
        // the signed difference negative: the ring reads empty.
        uint64_t tail = tail_.load(std::memory_order_acquire);
        uint64_t claim = claim_.load(std::memory_order_relaxed);
        auto diff = static_cast<int64_t>(tail - claim);
        return diff > 0 ? static_cast<size_t>(diff) : 0;
    }

    /** Claim and copy up to @p len published bytes into @p out
     * (with @p all_or_nothing, exactly @p len or none); returns the
     * bytes copied. */
    size_t take(uint8_t *out, size_t len, bool all_or_nothing);

    /** Producer: bytes writable now without waiting for a copy. */
    size_t writable() const;

    /** Producer: wait until the @p want bytes past tail are free of
     * in-flight copies, then return them. Needs level() + @p want
     * <= size(). */
    Spans reserve(size_t want);

    /** Producer: publish the first @p n reserved bytes to consumers. */
    void publish(size_t n);

    /** Producer: drop the published, unclaimed bytes and return
     * their count (a racing take() may claim part of them first). */
    size_t flush();

    /** Producer: replace the storage of a flushed ring with
     * @p bytes zeroed bytes (new generation, copies drained). */
    void resize(size_t bytes);

  private:
    /** Byte ranges are owned through the cursors; only resize()
     * replaces the vector itself. */
    std::vector<uint8_t> storage_;
    std::atomic<uint64_t> claim_{0};
    std::atomic<uint64_t> tail_{0};
    std::atomic<uint64_t> readDone_{0};
};

} // namespace quac::service

#endif // QUAC_SERVICE_SPMC_RING_HH
