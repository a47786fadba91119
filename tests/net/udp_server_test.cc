/**
 * @file
 * Loopback tests for the epoll UDP front end: byte-for-byte replay
 * identity against the direct service API, silence + zero service
 * effect for malformed datagrams, the full DENY taxonomy (replay,
 * oversized, throttled, global cap, bulk backpressure), the
 * every-well-formed-request-gets-exactly-one-response accounting
 * under an overload burst, and the recv syscalls that batching
 * saves. The burst tests drive the server through poll() from the
 * test thread, so their outcome does not depend on timing.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/fault_injection.hh"
#include "crypto/sha256.hh"
#include "net/sync_client.hh"
#include "net/udp_server.hh"
#include "service/entropy_service.hh"

namespace quac::net
{
namespace
{

using service::EntropyService;
using service::EntropyServiceConfig;
using service::Priority;

EntropyServiceConfig
serviceConfig(size_t shards)
{
    EntropyServiceConfig cfg;
    cfg.shards = shards;
    cfg.shardCapacityBytes = 16 * 1024;
    cfg.refillWatermark = 1.0;
    return cfg;
}

/** A server on an ephemeral loopback port with no loop thread: the
 * test drives every loop step through poll(). */
struct PolledServer
{
    std::vector<std::unique_ptr<core::SoftwareTrng>> backends;
    std::vector<core::Trng *> pool;
    std::unique_ptr<EntropyService> service;
    std::unique_ptr<UdpServer> server;

    explicit PolledServer(UdpServerConfig cfg = {}, size_t shards = 1,
                          uint64_t seed = 700)
    {
        for (size_t i = 0; i < shards; ++i) {
            backends.push_back(std::make_unique<core::SoftwareTrng>(
                seed + i, "wire" + std::to_string(i)));
            pool.push_back(backends.back().get());
        }
        service =
            std::make_unique<EntropyService>(pool, serviceConfig(shards));
        server = std::make_unique<UdpServer>(*service, cfg);
    }
};

/** A server on an ephemeral loopback port with its own run() thread. */
struct ServerHarness : PolledServer
{
    std::thread thread;

    explicit ServerHarness(UdpServerConfig cfg = {},
                           size_t shards = 1, uint64_t seed = 700)
        : PolledServer(cfg, shards, seed)
    {
        thread = std::thread([this] { server->run(); });
    }

    ~ServerHarness() { stop(); }

    /** Stop the loop and join; stats are safe to read after. */
    void
    stop()
    {
        if (thread.joinable()) {
            server->stop();
            thread.join();
        }
    }
};

/** Most requests one burst queues before the server drains it. Both
 * the server's 2 MiB receive buffer and the kernel default hold
 * this many small datagrams. */
constexpr size_t kMaxBurst = 128;

/** Responses to bursts, matched to requests by (clientId, nonce). */
struct BurstResult
{
    uint64_t sent = 0;
    uint64_t received = 0;
    /** Sent but never answered. */
    uint64_t lost = 0;
    /** Responses that matched no outstanding request. */
    uint64_t unmatched = 0;
    std::array<uint64_t, kStatusCount> statusCounts{};

    uint64_t okCount() const
    {
        return statusCounts[size_t(Status::Ok)] +
               statusCounts[size_t(Status::Partial)];
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

/** One loopback UDP socket connected to a PolledServer. */
class BurstSocket
{
  public:
    explicit BurstSocket(uint16_t port)
        : fd_(::socket(AF_INET, SOCK_DGRAM, 0))
    {
        EXPECT_GE(fd_, 0) << std::strerror(errno);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0)
            << std::strerror(errno);
        int size = 1 << 21;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
    }
    BurstSocket(const BurstSocket &) = delete;
    BurstSocket &operator=(const BurstSocket &) = delete;
    ~BurstSocket() { ::close(fd_); }

    /**
     * Send @p burst, poll @p server until it has read every
     * datagram, then collect the responses into @p result. Loopback
     * queues a datagram before send() returns, so the first poll()
     * finds the whole burst. A datagram that a full buffer dropped
     * is never answered: the wait for it times out and it counts as
     * lost.
     */
    void
    exchange(UdpServer &server, const std::vector<Request> &burst,
             BurstResult &result)
    {
        ASSERT_LE(burst.size(), kMaxBurst);
        std::set<std::pair<uint64_t, uint64_t>> pending;
        uint8_t wire[kRequestBytes];
        for (const Request &request : burst) {
            encodeRequest(wire, request);
            ASSERT_EQ(::send(fd_, wire, sizeof(wire), 0),
                      ssize_t(sizeof(wire)))
                << std::strerror(errno);
            pending.emplace(request.clientId, request.nonce);
        }
        result.sent += burst.size();

        size_t served = 0;
        while (served < burst.size()) {
            size_t n = server.poll(kWaitMs);
            if (n == 0)
                break;
            served += n;
        }

        // Wait for every pending response, then take whatever else
        // is already queued: a stray response counts as unmatched.
        uint8_t buffer[kResponseHeaderBytes + kMaxPayloadBytes];
        for (;;) {
            pollfd pfd{fd_, POLLIN, 0};
            if (::poll(&pfd, 1, pending.empty() ? 0 : kWaitMs) <= 0)
                break;
            ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
            ASSERT_GT(n, 0) << std::strerror(errno);
            Response response;
            ASSERT_EQ(parseResponse(buffer, size_t(n), response),
                      ParseError::None);
            if (pending.erase({response.clientId, response.nonce}) ==
                0) {
                ++result.unmatched;
                continue;
            }
            ++result.received;
            ++result.statusCounts[size_t(response.status)];
        }
        result.lost += pending.size();
    }

  private:
    /** Bound on a wait that only a lost datagram makes expire. */
    static constexpr int kWaitMs = 1000;

    int fd_;
};

TEST(UdpServer, NetworkStreamMatchesDirectServiceBytes)
{
    const std::vector<uint32_t> kSizes = {1,   16,   64,
                                          256, 1024, kMaxPayloadBytes};

    // Network path: every byte crosses the wire protocol, the client
    // table, and the zero-copy serveInto claim.
    UdpServerConfig cfg;
    cfg.idleRefill = false; // deterministic: no concurrent refill
    ServerHarness harness(cfg);
    Sha256 net_hash;
    SyncClient client("127.0.0.1", harness.server->port(), 42);
    for (uint32_t size : kSizes) {
        SyncClient::Reply reply = client.request(size, /*standard*/ 1);
        ASSERT_TRUE(reply.received) << size;
        ASSERT_EQ(reply.status, Status::Ok) << size;
        ASSERT_EQ(reply.payload.size(), size);
        net_hash.update(reply.payload);
    }
    harness.stop();

    // Direct path: the same backend seed consumed through the
    // in-process client API.
    core::SoftwareTrng backend(700, "wire0");
    EntropyService direct({&backend}, serviceConfig(1));
    EntropyService::Client direct_client =
        direct.connect("direct", Priority::Standard);
    Sha256 direct_hash;
    for (uint32_t size : kSizes)
        direct_hash.update(direct_client.request(size));

    EXPECT_EQ(net_hash.finish(), direct_hash.finish());
}

TEST(UdpServer, MalformedDatagramsGetSilenceAndNoServiceEffect)
{
    ServerHarness harness;
    SyncClient client("127.0.0.1", harness.server->port(), 7);

    // A valid encoding to corrupt (never sent as-is: nonce 99 stays
    // unused so the later real request is fresh).
    uint8_t valid[kRequestBytes];
    Request probe;
    probe.clientId = 7;
    probe.nonce = 99;
    probe.bytes = 32;
    encodeRequest(valid, probe);

    uint8_t garbage[kRequestBytes + 1];
    std::memcpy(garbage, valid, kRequestBytes);

    // Truncated: first 8 bytes of a valid request.
    EXPECT_FALSE(client.sendRaw(valid, 8).received);
    // Oversized: one trailing byte.
    garbage[kRequestBytes] = 0;
    EXPECT_FALSE(client.sendRaw(garbage, sizeof(garbage)).received);
    // Bad magic.
    std::memcpy(garbage, valid, kRequestBytes);
    garbage[0] ^= 0xFF;
    EXPECT_FALSE(client.sendRaw(garbage, kRequestBytes).received);
    // Bad version.
    std::memcpy(garbage, valid, kRequestBytes);
    garbage[4] = kVersion + 1;
    EXPECT_FALSE(client.sendRaw(garbage, kRequestBytes).received);
    // Reserved bits set.
    std::memcpy(garbage, valid, kRequestBytes);
    garbage[6] = 1;
    EXPECT_FALSE(client.sendRaw(garbage, kRequestBytes).received);

    // The server is alive and the garbage consumed nothing: a real
    // request is served immediately.
    SyncClient::Reply reply = client.request(32);
    ASSERT_TRUE(reply.received);
    EXPECT_EQ(reply.status, Status::Ok);
    harness.stop();

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.datagramsReceived, 6u);
    EXPECT_EQ(stats.malformedTotal(), 5u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::Truncated)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::Oversized)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::BadMagic)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::BadVersion)], 1u);
    EXPECT_EQ(stats.malformed[size_t(ParseError::BadReserved)], 1u);
    EXPECT_EQ(stats.wellFormed, 1u);
    EXPECT_EQ(stats.responsesSent, 1u);
    // Garbage reached neither the client table nor the service.
    EXPECT_EQ(harness.server->clientTable().stats().lookups, 1u);
    EXPECT_EQ(harness.server->clientTable().stats().inserts, 1u);
}

TEST(UdpServer, ReplayedNonceIsDeniedNotServed)
{
    ServerHarness harness;
    SyncClient client("127.0.0.1", harness.server->port(), 11);

    ASSERT_EQ(client.request(32).status, Status::Ok);
    // Replay the nonce just consumed: denied, no payload.
    client.setNextNonce(1);
    SyncClient::Reply replay = client.request(32);
    ASSERT_TRUE(replay.received);
    EXPECT_EQ(replay.status, Status::DenyReplay);
    EXPECT_TRUE(replay.payload.empty());
    // Jumping forward is served; the gap is recorded, not punished.
    client.setNextNonce(10);
    EXPECT_EQ(client.request(32).status, Status::Ok);
    harness.stop();

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.responses[size_t(Status::DenyReplay)], 1u);
    EXPECT_EQ(stats.responses[size_t(Status::Ok)], 2u);
    const service::ClientTable::Stats &table =
        harness.server->clientTable().stats();
    EXPECT_EQ(table.replays, 1u);
    EXPECT_EQ(table.nonceGaps, 1u);
    EXPECT_EQ(table.missingSeqs, 8u); // nonces 2..9
}

TEST(UdpServer, OversizedRequestsAreDeniedExplicitly)
{
    ServerHarness harness;
    SyncClient client("127.0.0.1", harness.server->port(), 3);

    SyncClient::Reply big = client.request(kMaxPayloadBytes + 1);
    ASSERT_TRUE(big.received);
    EXPECT_EQ(big.status, Status::DenyOversized);
    EXPECT_TRUE(big.payload.empty());
    SyncClient::Reply fits = client.request(kMaxPayloadBytes);
    ASSERT_TRUE(fits.received);
    EXPECT_EQ(fits.status, Status::Ok);
    EXPECT_EQ(fits.payload.size(), kMaxPayloadBytes);
}

TEST(UdpServer, PerClientPacingThrottlesOnlyTheOffender)
{
    UdpServerConfig cfg;
    // The bucket holds one second's rate (64 B); refill over the
    // test's round trips is negligible.
    cfg.table.perClientBytesPerSec = 64.0;
    ServerHarness harness(cfg);

    SyncClient hog("127.0.0.1", harness.server->port(), 1);
    EXPECT_EQ(hog.request(64).status, Status::Ok);
    SyncClient::Reply throttled = hog.request(64);
    ASSERT_TRUE(throttled.received);
    EXPECT_EQ(throttled.status, Status::DenyThrottled);
    EXPECT_TRUE(throttled.payload.empty());

    // A different client has its own untouched bucket.
    SyncClient polite("127.0.0.1", harness.server->port(), 2);
    EXPECT_EQ(polite.request(64).status, Status::Ok);
}

TEST(UdpServer, GlobalCapDeniesWhenExhausted)
{
    UdpServerConfig cfg;
    cfg.globalBytesPerSec = 64.0; // one second's burst: 64 B
    ServerHarness harness(cfg);

    SyncClient first("127.0.0.1", harness.server->port(), 1);
    EXPECT_EQ(first.request(64).status, Status::Ok);
    SyncClient second("127.0.0.1", harness.server->port(), 2);
    SyncClient::Reply denied = second.request(64);
    ASSERT_TRUE(denied.received);
    EXPECT_EQ(denied.status, Status::DenyGlobal);
    harness.stop();

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.responses[size_t(Status::Ok)], 1u);
    EXPECT_EQ(stats.responses[size_t(Status::DenyGlobal)], 1u);
    EXPECT_EQ(stats.payloadBytesServed, 64u);
}

TEST(UdpServer, BulkBackpressureAnswersPartial)
{
    UdpServerConfig cfg;
    cfg.idleRefill = false; // keep the shard drained
    ServerHarness harness(cfg);
    SyncClient client("127.0.0.1", harness.server->port(), 5);

    // Bulk never triggers a synchronous fill: an empty shard answers
    // PARTIAL with whatever was buffered (here: nothing) instead of
    // blocking or silently dropping.
    SyncClient::Reply reply = client.request(512, /*bulk*/ 2);
    ASSERT_TRUE(reply.received);
    EXPECT_EQ(reply.status, Status::Partial);
    EXPECT_LT(reply.payload.size(), 512u);
}

TEST(UdpServer, OverloadAccountingEveryRequestAnswered)
{
    // A burst from many clients against a deliberately tight server:
    // small table (forces evictions), per-client pacing, and a low
    // global cap. The contract under overload is explicit denial —
    // every well-formed request still gets exactly one response.
    // Each round is queued whole before the server drains it, so a
    // lost request is a dropped datagram, never a slow thread.
    UdpServerConfig cfg;
    cfg.table.capacity = 64;
    cfg.table.perClientBytesPerSec = 256.0;
    cfg.globalBytesPerSec = 16.0 * 1024.0;
    PolledServer harness(cfg);
    BurstSocket socket(harness.server->port());

    constexpr uint64_t kClients = 200;
    constexpr uint64_t kRequests = 2000;
    Xoshiro256pp rng(1);
    std::vector<uint64_t> nonces(kClients, 0);
    BurstResult result;
    for (uint64_t queued = 0; queued < kRequests;) {
        std::vector<Request> burst;
        for (; burst.size() < kMaxBurst && queued < kRequests;
             ++queued) {
            uint64_t slot = rng.next() % kClients;
            Request request;
            // Half interactive, half standard.
            request.priority = rng.uniform() < 0.5 ? 0 : 1;
            request.clientId = 1 + slot;
            request.nonce = ++nonces[slot];
            request.bytes = 64;
            burst.push_back(request);
        }
        socket.exchange(*harness.server, burst, result);
    }

    EXPECT_EQ(result.sent, 2000u);
    EXPECT_EQ(result.lost, 0u);
    EXPECT_EQ(result.unmatched, 0u);
    EXPECT_EQ(result.received, result.sent);
    EXPECT_EQ(result.okCount() + result.denyCount(), result.sent);
    EXPECT_GT(result.denyCount(), 0u) << "the cap never bit";

    const UdpServerStats &stats = harness.server->stats();
    EXPECT_EQ(stats.wellFormed, 2000u);
    EXPECT_EQ(stats.responsesSent, 2000u);
    EXPECT_EQ(stats.malformedTotal(), 0u);
    uint64_t answered =
        stats.responses[size_t(Status::Ok)] +
        stats.responses[size_t(Status::Partial)] +
        stats.deniesTotal();
    EXPECT_EQ(answered, stats.wellFormed);
    EXPECT_GT(harness.server->clientTable().stats().evictions, 0u);

    // Eviction disconnects the service client: the registry stays
    // bounded by the table (admission is off here, so no connect
    // waits in the queue), and the aggregate counter still counts
    // every request that reached the service, evicted clients'
    // included.
    EXPECT_LE(harness.service->clientCount(), cfg.table.capacity);
    EXPECT_EQ(harness.service->requestsServed(),
              stats.responses[size_t(Status::Ok)] +
                  stats.responses[size_t(Status::Partial)] +
                  stats.responses[size_t(Status::DenyService)]);
}

TEST(UdpServer, BatchingCutsRecvSyscalls)
{
    // The same burst, queued whole before one drain: recvmmsg takes
    // one datagram per call at batch 1 and 64 at batch 64 (two full
    // calls; the final EAGAIN is not counted).
    for (unsigned batch : {1u, 64u}) {
        UdpServerConfig cfg;
        cfg.batchMessages = batch;
        PolledServer harness(cfg);
        BurstSocket socket(harness.server->port());
        std::vector<Request> burst(kMaxBurst);
        for (size_t i = 0; i < burst.size(); ++i) {
            burst[i].clientId = 1;
            burst[i].nonce = i + 1;
            burst[i].bytes = 32;
        }
        BurstResult result;
        socket.exchange(*harness.server, burst, result);

        EXPECT_EQ(result.received, kMaxBurst) << "batch " << batch;
        EXPECT_EQ(result.lost, 0u) << "batch " << batch;
        EXPECT_EQ(result.unmatched, 0u) << "batch " << batch;
        const UdpServerStats &stats = harness.server->stats();
        EXPECT_EQ(stats.responsesSent, kMaxBurst) << "batch " << batch;
        if (batch == 1)
            EXPECT_GE(stats.recvCalls, kMaxBurst);
        else
            EXPECT_LE(stats.recvCalls, 3u);
    }
}

} // namespace
} // namespace quac::net
