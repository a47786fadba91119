/**
 * @file
 * Blocking single-request client for the entropy wire protocol: one
 * request/response exchange at a time, for tests (byte-identity
 * replay vs the direct service API) and simple examples. Load
 * generation lives in e2ebench's wire client.
 */

#ifndef QUAC_NET_SYNC_CLIENT_HH
#define QUAC_NET_SYNC_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hh"

namespace quac::net
{

/**
 * Blocking single-request client: one (request, response) exchange
 * at a time over its own socket. Not a benchmark tool — a test and
 * example helper where determinism beats throughput.
 */
class SyncClient
{
  public:
    /** Result of one exchange. */
    struct Reply
    {
        /** False when no response arrived within the timeout. */
        bool received = false;
        Status status = Status::DenyService;
        std::vector<uint8_t> payload;
    };

    /** Connects the socket; fatal on socket errors. */
    SyncClient(const std::string &address, uint16_t port,
               uint64_t client_id);
    SyncClient(const SyncClient &) = delete;
    SyncClient &operator=(const SyncClient &) = delete;
    ~SyncClient();

    /**
     * Send one request (auto-incrementing nonce) and wait up to
     * @p timeout_ms for the matching response. Responses for stale
     * nonces are discarded.
     */
    Reply request(uint32_t bytes, uint8_t priority = 0,
                  int timeout_ms = 1000);

    /**
     * Send one raw datagram (possibly malformed) and wait up to
     * @p timeout_ms for any response. For protocol-robustness tests:
     * a well-behaved server answers garbage with silence, so
     * received == false is the expected outcome.
     */
    Reply sendRaw(const uint8_t *data, size_t len,
                  int timeout_ms = 100);

    uint64_t clientId() const { return clientId_; }
    /** The nonce the next request() will use. */
    uint64_t nextNonce() const { return nonce_ + 1; }
    /** Force the next nonce (for replay/gap tests). */
    void setNextNonce(uint64_t nonce) { nonce_ = nonce - 1; }

  private:
    int fd_ = -1;
    uint64_t clientId_ = 0;
    uint64_t nonce_ = 0;
};

} // namespace quac::net

#endif // QUAC_NET_SYNC_CLIENT_HH
