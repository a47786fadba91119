#include "net/loadgen.hh"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "common/error.hh"
#include "common/rng.hh"

namespace quac::net
{

namespace
{

uint64_t
monotonicNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int
openConnectedSocket(const std::string &address, uint16_t port,
                    bool nonblock)
{
    int fd = ::socket(AF_INET,
                      SOCK_DGRAM | (nonblock ? SOCK_NONBLOCK : 0), 0);
    if (fd < 0)
        fatal("socket: %s", std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1)
        fatal("bad server address '%s'", address.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        fatal("connect %s:%u: %s", address.c_str(), port,
              std::strerror(errno));
    int sz = 1 << 21;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
    return fd;
}

/** Percentile from a sorted sample (nearest-rank). */
uint64_t
percentile(const std::vector<uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t rank = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

/** Simulated clients use the dense clientIds kFirstClientId, ... */
constexpr uint64_t kFirstClientId = 1;

/** Key in-flight requests by (clientId, nonce). clientIds are dense
 * small integers and nonces per client stay well under 2^32 for any
 * realistic run, so the packed key is collision-free. */
uint64_t
pendingKey(uint64_t client_id, uint64_t nonce)
{
    return (client_id << 32) ^ (nonce & 0xffffffffu);
}

} // anonymous namespace

LoadGenResult
runLoadGen(const LoadGenConfig &cfg)
{
    if (cfg.clients < 1)
        fatal("loadgen needs >= 1 client");
    if (cfg.ratePerSec <= 0.0)
        fatal("loadgen rate must be > 0 (open-loop)");
    if (cfg.batchMessages < 1 || cfg.batchMessages > 64)
        fatal("loadgen batchMessages must be in [1, 64]");

    int fd = openConnectedSocket(cfg.serverAddress, cfg.port, true);
    Xoshiro256pp rng(cfg.seed);

    // Per-client nonce counters. 100k simulated clients is 800 KiB —
    // cheap enough to keep flat and O(1).
    std::vector<uint64_t> nonces(cfg.clients, 0);
    std::unordered_map<uint64_t, uint64_t> pending;
    pending.reserve(4096);
    std::vector<uint64_t> latencies;
    latencies.reserve(cfg.requests);

    double mix_total =
        cfg.priorityMix[0] + cfg.priorityMix[1] + cfg.priorityMix[2];
    if (mix_total <= 0.0)
        fatal("priorityMix must have positive mass");
    double mix0 = cfg.priorityMix[0] / mix_total;
    double mix1 = mix0 + cfg.priorityMix[1] / mix_total;

    unsigned batch = cfg.batchMessages;
    size_t rx_slot = kResponseHeaderBytes + kMaxPayloadBytes;
    std::vector<uint8_t> rx_buffers(batch * rx_slot);
    std::vector<iovec> rx_iovecs(batch);
    std::vector<mmsghdr> rx_msgs(batch);
    std::vector<uint8_t> tx_buffers(batch * kRequestBytes);
    std::vector<iovec> tx_iovecs(batch);
    std::vector<mmsghdr> tx_msgs(batch);
    for (unsigned i = 0; i < batch; ++i) {
        rx_iovecs[i] = {rx_buffers.data() + i * rx_slot, rx_slot};
        std::memset(&rx_msgs[i], 0, sizeof(rx_msgs[i]));
        rx_msgs[i].msg_hdr.msg_iov = &rx_iovecs[i];
        rx_msgs[i].msg_hdr.msg_iovlen = 1;
        tx_iovecs[i] = {tx_buffers.data() + i * kRequestBytes,
                        kRequestBytes};
        std::memset(&tx_msgs[i], 0, sizeof(tx_msgs[i]));
        tx_msgs[i].msg_hdr.msg_iov = &tx_iovecs[i];
        tx_msgs[i].msg_hdr.msg_iovlen = 1;
    }

    LoadGenResult result;
    result.offeredRps = cfg.ratePerSec;

    auto drain = [&](uint64_t now_ns) {
        for (;;) {
            int n = ::recvmmsg(fd, rx_msgs.data(), batch,
                               MSG_DONTWAIT, nullptr);
            if (n <= 0)
                break;
            for (int i = 0; i < n; ++i) {
                Response response;
                if (parseResponse(rx_buffers.data() + i * rx_slot,
                                  rx_msgs[i].msg_len, response) !=
                    ParseError::None)
                    continue;
                auto it = pending.find(pendingKey(
                    response.clientId, response.nonce));
                if (it == pending.end()) {
                    ++result.unmatched;
                    continue;
                }
                // Measured from the scheduled send time, which a
                // stalled sender may already have passed.
                latencies.push_back(now_ns -
                                    std::min(now_ns, it->second));
                pending.erase(it);
                ++result.received;
                ++result.statusCounts[static_cast<size_t>(
                    response.status)];
                result.payloadBytesReceived += response.payloadBytes;
            }
            if (static_cast<unsigned>(n) < batch)
                break;
        }
    };

    double interval_ns = 1e9 / cfg.ratePerSec;
    uint64_t start_ns = monotonicNs();
    uint64_t sent = 0;
    uint64_t last_activity_ns = start_ns;

    while (sent < cfg.requests) {
        uint64_t now_ns = monotonicNs();
        // Open loop: everything whose scheduled arrival has passed
        // is due now, regardless of outstanding responses.
        uint64_t due = std::min<uint64_t>(
            cfg.requests,
            static_cast<uint64_t>(
                static_cast<double>(now_ns - start_ns) /
                interval_ns) +
                1);
        while (sent < due) {
            unsigned n = static_cast<unsigned>(
                std::min<uint64_t>(batch, due - sent));
            for (unsigned i = 0; i < n; ++i) {
                uint64_t slot =
                    rng.next() % cfg.clients;
                uint64_t client_id = kFirstClientId + slot;
                uint64_t nonce = ++nonces[slot];
                double draw = rng.uniform();
                uint8_t priority =
                    draw < mix0 ? 0 : (draw < mix1 ? 1 : 2);
                Request request;
                request.priority = priority;
                request.clientId = client_id;
                request.nonce = nonce;
                request.bytes = cfg.requestBytes;
                encodeRequest(
                    tx_buffers.data() + i * kRequestBytes, request);
                // Stamp the scheduled arrival, not the send: a
                // sender that fell behind must not hide its own
                // stall from the latency (coordinated omission).
                uint64_t scheduled_ns =
                    start_ns + static_cast<uint64_t>(
                                   static_cast<double>(sent + i) *
                                   interval_ns);
                pending.emplace(pendingKey(client_id, nonce),
                                scheduled_ns);
            }
            unsigned done = 0;
            while (done < n) {
                int s = ::sendmmsg(fd, tx_msgs.data() + done,
                                   n - done, 0);
                if (s < 0) {
                    if (errno == EINTR)
                        continue;
                    if (errno == EAGAIN || errno == ENOBUFS) {
                        // Loopback send buffer full: make room by
                        // consuming responses, then retry.
                        drain(monotonicNs());
                        pollfd pfd{fd, POLLOUT, 0};
                        ::poll(&pfd, 1, 10);
                        continue;
                    }
                    fatal("sendmmsg: %s", std::strerror(errno));
                }
                done += static_cast<unsigned>(s);
            }
            sent += n;
            result.sent += n;
            drain(monotonicNs());
        }
        now_ns = monotonicNs();
        drain(now_ns);
        if (!pending.empty() || sent < cfg.requests)
            last_activity_ns = now_ns;
        if (sent < cfg.requests) {
            // Sleep until the next scheduled arrival, waking early
            // for responses.
            uint64_t next_ns =
                start_ns + static_cast<uint64_t>(
                               static_cast<double>(sent) *
                               interval_ns);
            now_ns = monotonicNs();
            if (next_ns > now_ns) {
                int wait_ms = static_cast<int>(
                    (next_ns - now_ns) / 1000000u);
                pollfd pfd{fd, POLLIN, 0};
                ::poll(&pfd, 1, std::max(0, wait_ms));
            }
        }
    }

    // Drain stragglers until quiet or timeout.
    uint64_t deadline_ns =
        monotonicNs() +
        static_cast<uint64_t>(cfg.drainTimeoutMs) * 1000000u;
    while (!pending.empty()) {
        uint64_t now_ns = monotonicNs();
        if (now_ns >= deadline_ns)
            break;
        pollfd pfd{fd, POLLIN, 0};
        int r = ::poll(&pfd, 1, 10);
        now_ns = monotonicNs();
        if (r > 0) {
            drain(now_ns);
            last_activity_ns = now_ns;
        }
    }
    result.lost = pending.size();
    result.elapsedNs =
        std::max<uint64_t>(1, last_activity_ns - start_ns);
    result.achievedRps = static_cast<double>(result.received) * 1e9 /
                         static_cast<double>(result.elapsedNs);

    std::sort(latencies.begin(), latencies.end());
    result.p50Ns = percentile(latencies, 0.50);
    result.p95Ns = percentile(latencies, 0.95);
    result.p99Ns = percentile(latencies, 0.99);
    result.maxNs = latencies.empty() ? 0 : latencies.back();

    ::close(fd);
    return result;
}

SyncClient::SyncClient(const std::string &address, uint16_t port,
                       uint64_t client_id)
    : fd_(openConnectedSocket(address, port, false)),
      clientId_(client_id)
{
}

SyncClient::~SyncClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

SyncClient::Reply
SyncClient::sendRaw(const uint8_t *data, size_t len, int timeout_ms)
{
    if (::send(fd_, data, len, 0) < 0)
        fatal("send: %s", std::strerror(errno));
    Reply reply;
    uint8_t buffer[kResponseHeaderBytes + kMaxPayloadBytes];
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0)
        return reply; // silence — the expected answer to garbage
    ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0)
        return reply;
    Response response;
    if (parseResponse(buffer, static_cast<size_t>(n), response) !=
        ParseError::None)
        return reply;
    reply.received = true;
    reply.status = response.status;
    reply.payload.assign(buffer + kResponseHeaderBytes,
                         buffer + kResponseHeaderBytes +
                             response.payloadBytes);
    return reply;
}

SyncClient::Reply
SyncClient::request(uint32_t bytes, uint8_t priority, int timeout_ms)
{
    Request request;
    request.priority = priority;
    request.clientId = clientId_;
    request.nonce = ++nonce_;
    request.bytes = bytes;
    uint8_t wire[kRequestBytes];
    encodeRequest(wire, request);

    uint64_t deadline_ns =
        monotonicNs() +
        static_cast<uint64_t>(timeout_ms) * 1000000u;
    if (::send(fd_, wire, sizeof(wire), 0) < 0)
        fatal("send: %s", std::strerror(errno));
    Reply reply;
    uint8_t buffer[kResponseHeaderBytes + kMaxPayloadBytes];
    for (;;) {
        uint64_t now_ns = monotonicNs();
        if (now_ns >= deadline_ns)
            return reply;
        pollfd pfd{fd_, POLLIN, 0};
        int r = ::poll(&pfd, 1,
                       static_cast<int>(
                           (deadline_ns - now_ns) / 1000000u) +
                           1);
        if (r <= 0)
            return reply;
        ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
        if (n < 0)
            continue;
        Response response;
        if (parseResponse(buffer, static_cast<size_t>(n), response) !=
            ParseError::None)
            continue;
        if (response.clientId != clientId_ ||
            response.nonce != request.nonce)
            continue; // stale response from an earlier exchange
        reply.received = true;
        reply.status = response.status;
        reply.payload.assign(buffer + kResponseHeaderBytes,
                             buffer + kResponseHeaderBytes +
                                 response.payloadBytes);
        return reply;
    }
}

} // namespace quac::net
