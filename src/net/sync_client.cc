#include "net/sync_client.hh"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hh"

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
openConnectedSocket(const std::string &address, uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
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

} // anonymous namespace

SyncClient::SyncClient(const std::string &address, uint16_t port,
                       uint64_t client_id)
    : fd_(openConnectedSocket(address, port)), clientId_(client_id)
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
