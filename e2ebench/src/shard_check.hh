/**
 * @file
 * Per-shard SHA-256 identity check. Each shard drains its backend in
 * stream order, so the payloads one shard serves, concatenated in the
 * order they were served, must equal the same-length prefix of a
 * fresh backend built with the same seed. The benchmark hashes what
 * it receives per shard and compares against that prefix.
 */

#ifndef E2EBENCH_SHARD_CHECK_HH
#define E2EBENCH_SHARD_CHECK_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/trng.hh"
#include "crypto/sha256.hh"

namespace e2e
{

/** Running hash + byte count of each shard's received stream. */
class ShardStreams
{
  public:
    explicit ShardStreams(size_t shards) : streams_(shards) {}

    size_t shards() const { return streams_.size(); }

    void
    add(size_t shard, const uint8_t *data, size_t len)
    {
        streams_.at(shard).hash.update(data, len);
        streams_[shard].bytes += len;
    }

    uint64_t bytes(size_t shard) const { return streams_.at(shard).bytes; }

    /** Finish shard @p shard's hash (once; the hasher resets). */
    quac::Sha256::Digest
    finish(size_t shard)
    {
        return streams_.at(shard).hash.finish();
    }

  private:
    struct Stream
    {
        quac::Sha256 hash;
        uint64_t bytes = 0;
    };
    std::vector<Stream> streams_;
};

/** SHA-256 of the first @p len bytes @p fresh produces. */
inline quac::Sha256::Digest
prefixDigest(quac::core::Trng &fresh, uint64_t len)
{
    quac::Sha256 hash;
    std::vector<uint8_t> chunk(64 * 1024);
    while (len > 0) {
        size_t n = static_cast<size_t>(
            std::min<uint64_t>(len, chunk.size()));
        fresh.fill(chunk.data(), n);
        hash.update(chunk.data(), n);
        len -= n;
    }
    return hash.finish();
}

/** Outcome of one shard's identity check. */
struct ShardVerdict
{
    uint64_t bytes = 0;
    bool match = false;
    std::string received;
    std::string reference;
};

/** Compare shard @p shard of @p streams against @p fresh. */
inline ShardVerdict
checkShard(ShardStreams &streams, size_t shard, quac::core::Trng &fresh)
{
    ShardVerdict v;
    v.bytes = streams.bytes(shard);
    quac::Sha256::Digest got = streams.finish(shard);
    quac::Sha256::Digest want = prefixDigest(fresh, v.bytes);
    v.match = got == want;
    v.received = quac::Sha256::hex(got);
    v.reference = quac::Sha256::hex(want);
    return v;
}

} // namespace e2e

#endif // E2EBENCH_SHARD_CHECK_HH
