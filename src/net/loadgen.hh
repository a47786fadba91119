/**
 * @file
 * Open-loop UDP load generator for the entropy wire protocol.
 *
 * Simulates N wire clients from one socket and one thread: request
 * arrivals are scheduled on a fixed-rate open-loop clock (arrival
 * times do not wait for responses, so server-side queueing shows up
 * as latency instead of silently throttling the offered load), each
 * arrival is assigned to a uniformly random simulated client with
 * that client's next strictly-increasing nonce, and priorities are
 * drawn from a configurable mix. Sends and receives are batched with
 * sendmmsg/recvmmsg just like the server side.
 *
 * Every in-flight request is tracked by (clientId, nonce) until its
 * response echoes the pair back; the run result reports measured
 * requests/s, per-status response counts, and p50/p95/p99/max
 * wall-clock latency, measured from each request's scheduled arrival
 * (not its actual send), so a sender that falls behind counts its own
 * stall instead of hiding it. Requests still unanswered after the drain
 * timeout are counted as lost — the loopback smoke test asserts that
 * number is zero for well-formed traffic.
 *
 * SyncClient is the single-request companion: one blocking
 * request/response exchange at a time, for tests (byte-identity
 * replay vs the direct service API) and simple examples.
 */

#ifndef QUAC_NET_LOADGEN_HH
#define QUAC_NET_LOADGEN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hh"

namespace quac::net
{

/** Load-generator parameters. */
struct LoadGenConfig
{
    /** Server IPv4 address. */
    std::string serverAddress = "127.0.0.1";
    /** Server UDP port. */
    uint16_t port = 0;
    /** Simulated wire clients (distinct clientIds). */
    uint64_t clients = 1000;
    /** Total requests to send across all clients. */
    uint64_t requests = 10000;
    /**
     * Open-loop arrival rate in requests/s (> 0). Arrivals are
     * evenly spaced; the generator never waits for a response
     * before the next send.
     */
    double ratePerSec = 50000.0;
    /** Payload bytes requested per request. */
    uint32_t requestBytes = 64;
    /** Priority mix {interactive, standard, bulk}; normalized. */
    std::array<double, 3> priorityMix{1.0, 0.0, 0.0};
    /** Datagrams per recvmmsg/sendmmsg call. */
    unsigned batchMessages = 16;
    /** Wait for straggler responses after the last send (ms). */
    int drainTimeoutMs = 1000;
    /** PRNG seed (client choice + priority draw). */
    uint64_t seed = 1;
};

/** One load-generator run's measurements. */
struct LoadGenResult
{
    uint64_t sent = 0;
    uint64_t received = 0;
    /** Sent but unanswered within the drain timeout. */
    uint64_t lost = 0;
    /** Responses that matched no outstanding (clientId, nonce). */
    uint64_t unmatched = 0;
    /** Responses by wire Status. */
    std::array<uint64_t, kStatusCount> statusCounts{};
    uint64_t payloadBytesReceived = 0;
    /** Wall-clock from first send to last receive. */
    uint64_t elapsedNs = 0;
    double offeredRps = 0.0;
    /** received / elapsed. */
    double achievedRps = 0.0;
    uint64_t p50Ns = 0;
    uint64_t p95Ns = 0;
    uint64_t p99Ns = 0;
    uint64_t maxNs = 0;

    uint64_t okCount() const
    {
        return statusCounts[static_cast<size_t>(Status::Ok)] +
               statusCounts[static_cast<size_t>(Status::Partial)];
    }
    uint64_t denyCount() const
    {
        uint64_t total = 0;
        for (size_t s = 0; s < kStatusCount; ++s) {
            if (isDeny(static_cast<Status>(s)))
                total += statusCounts[s];
        }
        return total;
    }
};

/** Run one open-loop load campaign against a server. */
LoadGenResult runLoadGen(const LoadGenConfig &cfg);

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

#endif // QUAC_NET_LOADGEN_HH
