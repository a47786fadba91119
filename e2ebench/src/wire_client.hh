/**
 * @file
 * The benchmark's own UDP wire client: many wire client ids over one
 * connected socket, batched sendmmsg/recvmmsg, and every outstanding
 * request tracked by (clientId, nonce) together with the time it was
 * *scheduled*, so open-loop latency includes the wait a stalled
 * sender imposes on later requests (no coordinated omission).
 *
 * net::runLoadGen is not used: it stamps a request when it is
 * actually sent, which hides generator stalls.
 */

#ifndef E2EBENCH_WIRE_CLIENT_HH
#define E2EBENCH_WIRE_CLIENT_HH

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/wire.hh"

namespace e2e
{

/** Book-keeping for one request in flight. */
struct Pending
{
    /** When the request was due (open loop) or sent (closed loop). */
    uint64_t scheduledNs = 0;
    uint64_t sentNs = 0;
    uint32_t bytes = 0;
    /** Caller's phase tag. */
    uint32_t phase = 0;
};

/** One matched response. */
struct Reply
{
    quac::net::Response header;
    /** header.payloadBytes bytes; valid during the callback only. */
    const uint8_t *payload = nullptr;
    Pending request;
    uint64_t receivedNs = 0;
};

using ReplyFn = std::function<void(Reply &)>;

class WireClient
{
  public:
    /** Connect a UDP socket to 127.0.0.1:@p port. */
    WireClient(uint16_t port, unsigned batch);
    ~WireClient();
    WireClient(const WireClient &) = delete;
    WireClient &operator=(const WireClient &) = delete;

    /** Stage one request for the next flush(). */
    void stage(const quac::net::Request &request, const Pending &pending);

    /**
     * Send every staged request (stamping sentNs). When the socket
     * buffer is full, replies are drained through @p on_reply and
     * the send retried. Returns the send time of the last batch.
     */
    uint64_t flush(const ReplyFn &on_reply);

    /** Receive every reply available now. Returns replies handled. */
    size_t drain(const ReplyFn &on_reply);

    /** Sleep until readable or @p until_ns (monotonic) passes. */
    void waitReadable(uint64_t until_ns);

    /** Requests sent and not yet answered. */
    size_t outstanding() const { return pending_.size(); }

    /** Drop every outstanding request; returns how many (lost). */
    uint64_t abandonOutstanding();

    /** Replies that matched no outstanding request. */
    uint64_t unmatched() const { return unmatched_; }
    /** Replies that failed to parse. */
    uint64_t malformed() const { return malformed_; }
    /** Send attempts that found the socket buffer full. */
    uint64_t sendStalls() const { return sendStalls_; }

  private:
    struct Key
    {
        uint64_t client;
        uint64_t nonce;
        bool operator==(const Key &o) const
        {
            return client == o.client && nonce == o.nonce;
        }
    };
    struct KeyHash
    {
        size_t operator()(const Key &k) const
        {
            return static_cast<size_t>(
                (k.client * 0x9E3779B97F4A7C15ull) ^ k.nonce);
        }
    };

    int fd_ = -1;
    unsigned batch_;
    std::unordered_map<Key, Pending, KeyHash> pending_;

    std::vector<uint8_t> txBuf_;
    std::vector<Key> txKeys_;
    std::vector<Pending> txPending_;
    std::vector<iovec> txIov_;
    std::vector<mmsghdr> txMsgs_;
    size_t staged_ = 0;

    static constexpr size_t kRxSlot = 2048;
    std::vector<uint8_t> rxBuf_;
    std::vector<iovec> rxIov_;
    std::vector<mmsghdr> rxMsgs_;

    uint64_t unmatched_ = 0;
    uint64_t malformed_ = 0;
    uint64_t sendStalls_ = 0;
};

} // namespace e2e

#endif // E2EBENCH_WIRE_CLIENT_HH
