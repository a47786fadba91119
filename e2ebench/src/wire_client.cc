#include "wire_client.hh"

#include <arpa/inet.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>

#include "trace.hh"

namespace e2e
{

namespace
{

[[noreturn]] void
sysFail(const char *what)
{
    throw std::runtime_error(std::string(what) + ": " +
                             std::strerror(errno));
}

void
setBuffer(int fd, int opt, int force_opt, int bytes)
{
    // The *FORCE variants ignore rmem_max/wmem_max when permitted.
    if (::setsockopt(fd, SOL_SOCKET, force_opt, &bytes, sizeof(bytes)) != 0)
        ::setsockopt(fd, SOL_SOCKET, opt, &bytes, sizeof(bytes));
}

} // anonymous namespace

WireClient::WireClient(uint16_t port, unsigned batch) : batch_(batch)
{
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd_ < 0)
        sysFail("socket");
    setBuffer(fd_, SO_RCVBUF, SO_RCVBUFFORCE, 8 << 20);
    setBuffer(fd_, SO_SNDBUF, SO_SNDBUFFORCE, 4 << 20);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        sysFail("connect");

    txBuf_.resize(batch_ * quac::net::kRequestBytes);
    txKeys_.resize(batch_);
    txPending_.resize(batch_);
    txIov_.resize(batch_);
    txMsgs_.resize(batch_);
    rxBuf_.resize(batch_ * kRxSlot);
    rxIov_.resize(batch_);
    rxMsgs_.resize(batch_);
    for (unsigned i = 0; i < batch_; ++i) {
        txIov_[i] = {txBuf_.data() + i * quac::net::kRequestBytes,
                     quac::net::kRequestBytes};
        txMsgs_[i] = {};
        txMsgs_[i].msg_hdr.msg_iov = &txIov_[i];
        txMsgs_[i].msg_hdr.msg_iovlen = 1;
        rxIov_[i] = {rxBuf_.data() + i * kRxSlot, kRxSlot};
    }
}

WireClient::~WireClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
WireClient::stage(const quac::net::Request &request,
                  const Pending &pending)
{
    if (staged_ == batch_)
        throw std::logic_error("WireClient: stage past batch size");
    quac::net::encodeRequest(
        txBuf_.data() + staged_ * quac::net::kRequestBytes, request);
    txKeys_[staged_] = {request.clientId, request.nonce};
    txPending_[staged_] = pending;
    ++staged_;
}

uint64_t
WireClient::flush(const ReplyFn &on_reply)
{
    uint64_t sent_ns = trace::nowNs();
    // Register before sending: a reply can arrive before sendmmsg
    // returns.
    for (size_t i = 0; i < staged_; ++i) {
        txPending_[i].sentNs = sent_ns;
        pending_[txKeys_[i]] = txPending_[i];
    }
    size_t done = 0;
    while (done < staged_) {
        int s = ::sendmmsg(fd_, txMsgs_.data() + done,
                           static_cast<unsigned>(staged_ - done), 0);
        if (s < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == ENOBUFS ||
                errno == ECONNREFUSED) {
                ++sendStalls_;
                drain(on_reply);
                pollfd pfd{fd_, POLLOUT, 0};
                ::poll(&pfd, 1, 1);
                continue;
            }
            sysFail("sendmmsg");
        }
        done += static_cast<size_t>(s);
    }
    staged_ = 0;
    return sent_ns;
}

size_t
WireClient::drain(const ReplyFn &on_reply)
{
    size_t handled = 0;
    for (;;) {
        for (unsigned i = 0; i < batch_; ++i) {
            rxMsgs_[i] = {};
            rxMsgs_[i].msg_hdr.msg_iov = &rxIov_[i];
            rxMsgs_[i].msg_hdr.msg_iovlen = 1;
        }
        int n = ::recvmmsg(fd_, rxMsgs_.data(), batch_, MSG_DONTWAIT,
                           nullptr);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == ECONNREFUSED)
                return handled;
            sysFail("recvmmsg");
        }
        uint64_t now = trace::nowNs();
        for (int i = 0; i < n; ++i) {
            const uint8_t *data = rxBuf_.data() + i * kRxSlot;
            size_t len = rxMsgs_[i].msg_len;
            Reply reply;
            if ((rxMsgs_[i].msg_hdr.msg_flags & MSG_TRUNC) != 0 ||
                quac::net::parseResponse(data, len, reply.header) !=
                    quac::net::ParseError::None) {
                ++malformed_;
                continue;
            }
            auto it = pending_.find(
                {reply.header.clientId, reply.header.nonce});
            if (it == pending_.end()) {
                ++unmatched_;
                continue;
            }
            reply.request = it->second;
            pending_.erase(it);
            reply.payload = data + quac::net::kResponseHeaderBytes;
            reply.receivedNs = now;
            on_reply(reply);
            ++handled;
        }
        if (static_cast<unsigned>(n) < batch_)
            return handled;
    }
}

void
WireClient::waitReadable(uint64_t until_ns)
{
    uint64_t now = trace::nowNs();
    if (until_ns <= now)
        return;
    uint64_t wait = until_ns - now;
    timespec ts{static_cast<time_t>(wait / 1000000000u),
                static_cast<long>(wait % 1000000000u)};
    pollfd pfd{fd_, POLLIN, 0};
    ::ppoll(&pfd, 1, &ts, nullptr);
}

uint64_t
WireClient::abandonOutstanding()
{
    uint64_t n = pending_.size();
    pending_.clear();
    return n;
}

} // namespace e2e
