/**
 * @file
 * End-to-end tests for net::RespServer over a loopback TCP client:
 * command semantics, pipelined-response ordering (including
 * out-of-order async completions), tenant isolation + quotas,
 * backpressure under a tiny in-flight cap, completions from foreign
 * threads that must each wake the loop, frame-limit enforcement on a
 * live socket, and listener state in the router's health report.
 *
 * Most tests run against MapStore (an inline-completing KvStore
 * double, so semantics are exact and fast) or DeferredStore (whose
 * async gets park until the test completes them — from another thread,
 * in reverse order — which is what proves reply ordering really comes
 * from the server's pipeline FIFO and not from lucky completion
 * order). One test drives the real Prism fixture.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/obs_server.h"
#include "common/stats.h"
#include "net/resp.h"
#include "net/resp_server.h"
#include "ycsb/kv_interface.h"
#include "ycsb/stores.h"

namespace prism::net {
namespace {

// ---------------------------------------------------------------------
// Store doubles
// ---------------------------------------------------------------------

/** Exact, inline-completing KvStore over a std::map. */
class MapStore : public ycsb::KvStore {
  public:
    std::string name() const override { return "map"; }

    Status
    put(uint64_t key, std::string_view value) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        map_[key] = std::string(value);
        return Status::ok();
    }

    Status
    get(uint64_t key, std::string *value) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end())
            return Status::notFound();
        *value = it->second;
        return Status::ok();
    }

    Status
    del(uint64_t key) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return map_.erase(key) ? Status::ok() : Status::notFound();
    }

    Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        out->clear();
        for (auto it = map_.lower_bound(start);
             it != map_.end() && out->size() < count; ++it)
            out->emplace_back(it->first, it->second);
        return Status::ok();
    }

  private:
    std::mutex mu_;
    std::map<uint64_t, std::string> map_;
};

/**
 * MapStore whose asyncGet parks until the test releases it. Gets are
 * completed from completeAllReversed() — on the test thread, newest
 * first — to force out-of-order completions.
 */
class DeferredStore : public MapStore {
  public:
    core::OpFuture
    asyncGet(uint64_t key, core::AsyncCallback cb) override
    {
        auto st = std::make_shared<core::AsyncOpState>();
        st->callback = std::move(cb);
        Status result = get(key, &st->value);
        {
            std::lock_guard<std::mutex> lock(mu_);
            parked_.push_back({st, std::move(result)});
        }
        return core::OpFuture(std::move(st));
    }

    /** Complete one parked get chosen at random; false when none. */
    bool
    completeOneRandom(std::mt19937 &rng)
    {
        Parked p;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (parked_.empty())
                return false;
            const size_t i = rng() % parked_.size();
            std::swap(parked_[i], parked_.back());
            p = std::move(parked_.back());
            parked_.pop_back();
        }
        p.state->complete(p.result);
        return true;
    }

    size_t
    parkedCount()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return parked_.size();
    }

    void
    completeAllReversed()
    {
        std::vector<Parked> take;
        {
            std::lock_guard<std::mutex> lock(mu_);
            take.swap(parked_);
        }
        for (auto it = take.rbegin(); it != take.rend(); ++it)
            it->state->complete(it->result);
    }

  private:
    struct Parked {
        std::shared_ptr<core::AsyncOpState> state;
        Status result;
    };
    std::mutex mu_;
    std::vector<Parked> parked_;
};

// ---------------------------------------------------------------------
// Loopback client
// ---------------------------------------------------------------------

/** Minimal blocking RESP client for one test connection. */
class Client {
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        connected_ =
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    void
    sendRaw(std::string_view bytes)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t w =
                ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
            ASSERT_GT(w, 0);
            sent += static_cast<size_t>(w);
        }
    }

    void
    sendCommand(const std::vector<std::string_view> &args)
    {
        std::string wire;
        encodeCommand(&wire, args);
        sendRaw(wire);
    }

    /** Read one reply; fails the test after ~5 s without one. */
    RespReply
    readReply()
    {
        RespReply r;
        for (int spins = 0; spins < 5000; spins++) {
            const size_t used = parseReply(buf_, &r);
            if (used == SIZE_MAX) {
                ADD_FAILURE() << "malformed reply: " << buf_;
                return r;
            }
            if (used > 0) {
                buf_.erase(0, used);
                return r;
            }
            pollfd pfd{fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 1) <= 0)
                continue;
            char tmp[4096];
            const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
            if (n <= 0) {
                ADD_FAILURE() << "connection closed mid-reply";
                return r;
            }
            buf_.append(tmp, static_cast<size_t>(n));
        }
        ADD_FAILURE() << "timed out waiting for reply";
        return r;
    }

    std::string
    roundTrip(const std::vector<std::string_view> &args)
    {
        sendCommand(args);
        return readReply().str;
    }

    /** True once the server closes the connection (EOF). */
    bool
    waitClosed()
    {
        for (int spins = 0; spins < 5000; spins++) {
            pollfd pfd{fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 1) <= 0)
                continue;
            char tmp[4096];
            const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
            buf_.append(tmp, static_cast<size_t>(n));
        }
        return false;
    }

    std::string buf_;

  private:
    int fd_ = -1;
    bool connected_ = false;
};

RespServer::Options
testOptions()
{
    RespServer::Options o;
    o.port = 0;  // ephemeral
    return o;
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

TEST(RespServerTest, CommandSemantics)
{
    MapStore store;
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    EXPECT_EQ(c.roundTrip({"PING"}), "PONG");
    EXPECT_EQ(c.roundTrip({"ECHO", "hi"}), "hi");
    EXPECT_EQ(c.roundTrip({"SET", "42", "hello"}), "OK");
    EXPECT_EQ(c.roundTrip({"GET", "42"}), "hello");

    c.sendCommand({"GET", "404"});
    EXPECT_EQ(c.readReply().type, RespReply::Type::kNull);

    c.sendCommand({"SET", "43", "x"});
    c.readReply();
    c.sendCommand({"DEL", "42", "43", "404"});
    EXPECT_EQ(c.readReply().integer, 2);

    c.sendCommand({"SET", "1", "a"});
    c.readReply();
    c.sendCommand({"MGET", "1", "404"});
    RespReply r = c.readReply();
    ASSERT_EQ(r.type, RespReply::Type::kArray);
    ASSERT_EQ(r.elements.size(), 2u);
    EXPECT_EQ(r.elements[0].str, "a");
    EXPECT_EQ(r.elements[1].type, RespReply::Type::kNull);

    // Errors: bad key, wrong arity, unknown command.
    EXPECT_TRUE(c.roundTrip({"GET", "notanumber"}).find("ERR") == 0);
    EXPECT_TRUE(c.roundTrip({"SET", "1"}).find("ERR") == 0);
    EXPECT_TRUE(c.roundTrip({"FLURB"}).find("ERR unknown") == 0);

    // INFO is a bulk string with the stock sections.
    const std::string info = c.roundTrip({"INFO"});
    EXPECT_NE(info.find("tcp_port:"), std::string::npos);
    EXPECT_NE(info.find("total_commands_processed:"),
              std::string::npos);

    server.stop();
}

TEST(RespServerTest, ScanPagination)
{
    MapStore store;
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;
    Client c(server.port());
    for (int i = 0; i < 10; i++)
        c.sendCommand({"SET", std::to_string(i), "v"});
    for (int i = 0; i < 10; i++)
        c.readReply();

    // Page through with COUNT 4: 4 + 4 + 2, cursor returns to 0.
    std::vector<uint64_t> seen;
    std::string cursor = "0";
    for (int page = 0; page < 5; page++) {
        c.sendCommand({"SCAN", cursor, "COUNT", "4"});
        RespReply r = c.readReply();
        ASSERT_EQ(r.type, RespReply::Type::kArray);
        ASSERT_EQ(r.elements.size(), 2u);
        for (const auto &k : r.elements[1].elements)
            seen.push_back(std::stoull(k.str));
        cursor = r.elements[0].str;
        if (cursor == "0")
            break;
    }
    EXPECT_EQ(seen.size(), 10u);
    for (size_t i = 1; i < seen.size(); i++)
        EXPECT_LT(seen[i - 1], seen[i]);
    server.stop();
}

TEST(RespServerTest, PipelinedRepliesStayInRequestOrder)
{
    MapStore store;
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;
    Client c(server.port());

    // One giant write of 200 pipelined commands, then read the 200
    // replies and check each matches its request slot.
    std::string wire;
    for (int i = 0; i < 100; i++) {
        const std::string k = std::to_string(i);
        encodeCommand(&wire, {"SET", k, "v" + k});
        encodeCommand(&wire, {"GET", k});
    }
    c.sendRaw(wire);
    for (int i = 0; i < 100; i++) {
        EXPECT_EQ(c.readReply().str, "OK") << i;
        EXPECT_EQ(c.readReply().str, "v" + std::to_string(i)) << i;
    }
    server.stop();
}

TEST(RespServerTest, OutOfOrderCompletionsDoNotReorderReplies)
{
    DeferredStore store;
    store.put(1, "one");
    store.put(2, "two");
    store.put(3, "three");
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;
    Client c(server.port());

    std::string wire;
    encodeCommand(&wire, {"GET", "1"});
    encodeCommand(&wire, {"GET", "2"});
    encodeCommand(&wire, {"GET", "3"});
    c.sendRaw(wire);

    // Wait for all three to be parked in the store, then complete them
    // newest-first from this (foreign) thread.
    for (int spins = 0; spins < 5000 && store.parkedCount() < 3;
         spins++)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(store.parkedCount(), 3u);
    store.completeAllReversed();

    EXPECT_EQ(c.readReply().str, "one");
    EXPECT_EQ(c.readReply().str, "two");
    EXPECT_EQ(c.readReply().str, "three");
    server.stop();
}

TEST(RespServerTest, BackpressureCapStillServesEverything)
{
    auto &paused =
        stats::StatsRegistry::global().counter("prism.server.backpressure");
    const uint64_t paused_before = paused.value();
    DeferredStore store;
    store.put(7, "v");
    RespServer::Options opts = testOptions();
    opts.inflight_cap = 4;
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(opts, &err)) << err;
    Client c(server.port());

    // 64 pipelined GETs against a cap of 4: the server must stop
    // reading rather than exceed the cap, then work through the burst
    // as completions free slots.
    std::string wire;
    for (int i = 0; i < 64; i++)
        encodeCommand(&wire, {"GET", "7"});
    std::thread sender([&] { c.sendRaw(wire); });

    size_t drained = 0;
    for (int spins = 0; spins < 10000 && drained < 64; spins++) {
        EXPECT_LE(store.parkedCount(), 4u);
        if (store.parkedCount() > 0) {
            drained += store.parkedCount();
            store.completeAllReversed();
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    }
    sender.join();
    EXPECT_EQ(drained, 64u);
    for (int i = 0; i < 64; i++)
        EXPECT_EQ(c.readReply().str, "v") << i;
    // Reads paused at the cap at least once, and each pause counts.
    EXPECT_GE(paused.value() - paused_before, 1u);
    server.stop();
}

TEST(RespServerTest, ForeignThreadCompletionsNeverStall)
{
    // Every get parks; 4 threads complete them in random order while 4
    // clients pipeline 2,000 GETs each, 4 at a time. At the end of a
    // round nothing but the last completions can wake the loop, so a
    // wake it lost leaves a reply unsent: the client's 5 s limit
    // catches the stall. (A loop that clears its pending flag after
    // the serve pass instead of before it stalls here in about half of
    // the runs.)
    constexpr int kClients = 4;
    constexpr int kRounds = 500;
    constexpr int kDepth = 4;
    DeferredStore store;
    for (int i = 0; i < kClients * kRounds * kDepth; i++)
        store.put(static_cast<uint64_t>(i), "v" + std::to_string(i));
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;

    std::atomic<bool> done{false};
    std::vector<std::thread> completers;
    for (int t = 0; t < 4; t++)
        completers.emplace_back([&, t] {
            std::mt19937 rng(static_cast<uint32_t>(t));
            while (!done.load(std::memory_order_relaxed))
                if (!store.completeOneRandom(rng))
                    std::this_thread::yield();
        });
    std::vector<std::unique_ptr<Client>> clients;
    for (int ci = 0; ci < kClients; ci++)
        clients.push_back(std::make_unique<Client>(server.port()));
    const auto key = [&](int ci, int round, int i) {
        return std::to_string((ci * kRounds + round) * kDepth + i);
    };
    for (int round = 0; round < kRounds && !HasFailure(); round++) {
        for (int ci = 0; ci < kClients; ci++) {
            std::string wire;
            for (int i = 0; i < kDepth; i++)
                encodeCommand(&wire, {"GET", key(ci, round, i)});
            clients[ci]->sendRaw(wire);
        }
        for (int ci = 0; ci < kClients; ci++)
            for (int i = 0; i < kDepth && !HasFailure(); i++)
                EXPECT_EQ(clients[ci]->readReply().str,
                          "v" + key(ci, round, i))
                    << "client " << ci << " round " << round;
    }
    done.store(true);
    for (auto &t : completers)
        t.join();
    server.stop();
}

TEST(RespServerTest, TenantIsolationAuthAndPrefix)
{
    MapStore store;
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;

    Client alice(server.port());
    EXPECT_EQ(alice.roundTrip({"AUTH", "alice"}), "OK");
    EXPECT_EQ(alice.roundTrip({"SET", "1", "alice-data"}), "OK");

    Client bob(server.port());
    EXPECT_EQ(bob.roundTrip({"AUTH", "bob"}), "OK");
    // Same wire key, different namespace: invisible.
    bob.sendCommand({"GET", "1"});
    EXPECT_EQ(bob.readReply().type, RespReply::Type::kNull);
    EXPECT_EQ(bob.roundTrip({"SET", "1", "bob-data"}), "OK");
    EXPECT_EQ(bob.roundTrip({"GET", "1"}), "bob-data");
    EXPECT_EQ(alice.roundTrip({"GET", "1"}), "alice-data");

    // The prefix convention crosses namespaces per key.
    Client anon(server.port());
    EXPECT_EQ(anon.roundTrip({"GET", "alice:1"}), "alice-data");
    anon.sendCommand({"GET", "1"});  // default tenant: empty
    EXPECT_EQ(anon.readReply().type, RespReply::Type::kNull);

    // SCAN respects the namespace: alice sees exactly her key.
    alice.sendCommand({"SCAN", "0", "COUNT", "100"});
    RespReply r = alice.readReply();
    ASSERT_EQ(r.elements.size(), 2u);
    EXPECT_EQ(r.elements[0].str, "0");
    ASSERT_EQ(r.elements[1].elements.size(), 1u);
    EXPECT_EQ(r.elements[1].elements[0].str, "1");
    server.stop();
}

TEST(RespServerTest, QuotaThrottlesWithErrorsNotDelay)
{
    MapStore store;
    RespServer::Options opts = testOptions();
    opts.quota_spec = "metered=10";  // 10 ops/s, burst 1000
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(opts, &err)) << err;
    Client c(server.port());
    EXPECT_EQ(c.roundTrip({"AUTH", "metered"}), "OK");

    // Far past the burst allowance: the tail must be THROTTLED errors,
    // returned immediately (no event-loop delay — 1200 round trips
    // complete in test time).
    int throttled = 0;
    for (int i = 0; i < 1200; i++) {
        c.sendCommand({"SET", std::to_string(i), "v"});
    }
    for (int i = 0; i < 1200; i++) {
        const RespReply r = c.readReply();
        if (r.isError()) {
            EXPECT_EQ(r.str.rfind("THROTTLED", 0), 0u) << r.str;
            throttled++;
        }
    }
    EXPECT_GT(throttled, 0);
    EXPECT_LT(throttled, 1200);
    server.stop();
}

TEST(RespServerTest, OversizedFrameGetsErrorThenClose)
{
    MapStore store;
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;
    Client c(server.port());

    // A valid command pipelined before the poison frame still gets its
    // reply, in order, before the error. The bulk header is over the
    // 512 KB bulk limit.
    c.sendCommand({"SET", "1", "ok"});
    c.sendRaw("*2\r\n$3\r\nSET\r\n$900000\r\n");
    c.sendRaw(std::string(4096, 'x'));
    EXPECT_EQ(c.readReply().str, "OK");
    const RespReply r = c.readReply();
    EXPECT_TRUE(r.isError());
    EXPECT_TRUE(c.waitClosed());

    // The server survives and serves new connections.
    Client c2(server.port());
    EXPECT_EQ(c2.roundTrip({"GET", "1"}), "ok");
    server.stop();
}

TEST(RespServerTest, InlineCommandsAndQuit)
{
    MapStore store;
    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;
    Client c(server.port());
    c.sendRaw("PING\r\n");
    EXPECT_EQ(c.readReply().str, "PONG");
    c.sendRaw("SET 5 netcat\r\nGET 5\r\n");
    EXPECT_EQ(c.readReply().str, "OK");
    EXPECT_EQ(c.readReply().str, "netcat");
    c.sendRaw("QUIT\r\n");
    EXPECT_EQ(c.readReply().str, "OK");
    EXPECT_TRUE(c.waitClosed());
    server.stop();
}

TEST(RespServerTest, ListenerSectionReachesHealthReport)
{
    // The router's health report (/healthz) builds its listener section
    // from the registry's prism.server.* values while a server listens.
    ycsb::FixtureOptions fx;
    fx.num_ssds = 1;
    fx.ssd_bytes = 64ull << 20;
    fx.dataset_bytes = 4ull << 20;
    fx.model_timing = false;
    core::PrismOptions po;
    po.obs_port = -1;
    ycsb::PrismStore store(fx, po);
    const auto listener = [&] {
        const std::string j = store.router().healthReport().json;
        const size_t at = j.find("\"listener\":{");
        return at == std::string::npos ? std::string() : j.substr(at);
    };
    EXPECT_EQ(listener(), "");

    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;
    Client c(server.port());
    EXPECT_EQ(c.roundTrip({"PING"}), "PONG");
    const std::string j = listener();
    EXPECT_NE(j.find("\"proto\":\"resp\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"port\":" + std::to_string(server.port())),
              std::string::npos)
        << j;

    server.stop();
    EXPECT_EQ(listener(), "");
    EXPECT_EQ(server.port(), 0);
}

TEST(RespServerTest, ServesRealPrismStore)
{
    ycsb::FixtureOptions fx;
    fx.num_ssds = 2;
    fx.ssd_bytes = 256ull << 20;
    fx.dataset_bytes = 16ull << 20;
    fx.model_timing = false;
    core::PrismOptions po;
    po.obs_port = -1;
    ycsb::PrismStore store(fx, po);

    RespServer server(store);
    std::string err;
    ASSERT_TRUE(server.start(testOptions(), &err)) << err;
    Client c(server.port());

    std::string wire;
    for (int i = 0; i < 200; i++)
        encodeCommand(&wire,
                      {"SET", std::to_string(i),
                       "value-" + std::to_string(i)});
    for (int i = 0; i < 200; i++)
        encodeCommand(&wire, {"GET", std::to_string(i)});
    c.sendRaw(wire);
    for (int i = 0; i < 200; i++)
        EXPECT_EQ(c.readReply().str, "OK") << i;
    for (int i = 0; i < 200; i++)
        EXPECT_EQ(c.readReply().str, "value-" + std::to_string(i))
            << i;

    // Scans flow through the async scan path.
    c.sendCommand({"SCAN", "0", "COUNT", "50"});
    const RespReply r = c.readReply();
    ASSERT_EQ(r.type, RespReply::Type::kArray);
    EXPECT_EQ(r.elements[1].elements.size(), 50u);

    // The Prism health report carries the listener section while the
    // server runs (the /healthz integration).
    const obs::HealthReport hr = store.router().healthReport();
    EXPECT_NE(hr.json.find("\"listener\":{"), std::string::npos);
    server.stop();
}

}  // namespace
}  // namespace prism::net
