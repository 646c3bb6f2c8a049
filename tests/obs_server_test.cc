/**
 * @file
 * HTTP ops endpoint (common/obs_server.h) correctness:
 *
 *  - renderPrometheus() emits well-formed exposition text: counters
 *    get `_total`, one `# TYPE` per family, `prism.shard.<n>.*` and
 *    `sim.ssd.<n>.*` flatten into `shard` / `device` labels, and
 *    histograms export cumulative `_bucket{le=}` with `_sum`/`_count`;
 *  - the server binds an ephemeral port (port 0), serves every
 *    endpoint, rejects malformed (400), non-GET (405), unknown (404)
 *    and oversized (431) requests, answers a half-closed client, and a
 *    stopped server's port can be rebound immediately;
 *  - a client that resets mid-response gets its socket closed, not
 *    polled forever;
 *  - /healthz flips 200 -> 503 -> 200 as a device drops out and
 *    returns (sim dropout, the same switch the fault harness uses);
 *  - concurrent scrapes against a store under write load all succeed
 *    (runs under TSan in CI).
 *
 * Runs under TSan and asan-ubsan in CI (.github/workflows/ci.yml).
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/obs_server.h"
#include "common/stats.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::obs {
namespace {

constexpr uint64_t kNvmBytes = 96ull * 1024 * 1024;
constexpr uint64_t kSsdBytes = 128ull * 1024 * 1024;

/** Blocking one-shot HTTP exchange against 127.0.0.1:port. */
struct HttpResponse {
    int status = -1;      ///< -1: connect/read failure
    std::string raw;      ///< full response, headers + body
    std::string body;     ///< bytes after the blank line
};

/** With @p half_close the client shuts down its sending side right
 *  after the request, before it reads the response. */
HttpResponse
httpExchange(int port, const std::string &request,
             bool half_close = false)
{
    HttpResponse r;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return r;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return r;
    }
    size_t off = 0;
    while (off < request.size()) {
        const ssize_t n =
            ::write(fd, request.data() + off, request.size() - off);
        if (n <= 0)
            break;
        off += static_cast<size_t>(n);
    }
    if (half_close)
        ::shutdown(fd, SHUT_WR);
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        r.raw.append(buf, static_cast<size_t>(n));
    ::close(fd);
    if (r.raw.rfind("HTTP/1.1 ", 0) == 0)
        r.status = std::atoi(r.raw.c_str() + 9);
    const size_t blank = r.raw.find("\r\n\r\n");
    if (blank != std::string::npos)
        r.body = r.raw.substr(blank + 4);
    return r;
}

HttpResponse
httpGet(int port, const std::string &path)
{
    return httpExchange(port, "GET " + path +
                                  " HTTP/1.1\r\nHost: t\r\n"
                                  "Connection: close\r\n\r\n");
}

core::PrismOptions
testOptions()
{
    core::PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;
    opts.svc_capacity_bytes = 2 * 1024 * 1024;
    opts.hsit_capacity = 32 * 1024;
    opts.chunk_bytes = 64 * 1024;
    return opts;
}

/** Single-shard router on fresh sim devices, ops server enabled. */
struct ObsRig {
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::shared_ptr<pmem::PmemRegion> region;
    std::unique_ptr<core::ShardRouter> db;

    explicit ObsRig(int obs_port = 0)
    {
        core::PrismOptions opts = testOptions();
        opts.shards = 1;
        opts.obs_port = obs_port;
        auto nvm = std::make_shared<sim::NvmDevice>(
            kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_shared<pmem::PmemRegion>(nvm, true);
        for (int i = 0; i < 2; i++)
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                kSsdBytes, sim::kSamsung980ProProfile,
                /*timing=*/false));
        db = core::ShardRouter::open(
            opts, {{region, {ssds.begin(), ssds.end()}}});
    }
};

TEST(RenderPrometheus, NamesTypesAndLabels)
{
    auto &reg = stats::StatsRegistry::global();
    reg.counter("obs.test.plain", "ops").add(3);
    reg.gauge("obs.test.level", "bytes").set(42);
    reg.counter("prism.shard.7.obstest", "ops").add(9);
    reg.counter("sim.ssd.3.obstest_bytes", "bytes").add(11);
    auto &h = reg.histogram("obs.test.lat_ns", "ns");
    h.record(10);
    h.record(1000);
    h.record(100000);

    const std::string out = renderPrometheus(reg.snapshot());

    // Counter: sanitized name + _total, typed once.
    EXPECT_NE(out.find("# TYPE obs_test_plain_total counter"),
              std::string::npos);
    EXPECT_NE(out.find("obs_test_plain_total 3"), std::string::npos);
    // Gauge: no _total suffix.
    EXPECT_NE(out.find("# TYPE obs_test_level gauge"),
              std::string::npos);
    EXPECT_NE(out.find("obs_test_level 42"), std::string::npos);
    // Indexed families flatten the index into a label.
    EXPECT_NE(out.find("prism_shard_obstest_total{shard=\"7\"} 9"),
              std::string::npos);
    EXPECT_NE(
        out.find("sim_ssd_obstest_bytes_total{device=\"3\"} 11"),
        std::string::npos);
    // Histogram: cumulative buckets, +Inf, _sum, _count.
    EXPECT_NE(out.find("# TYPE obs_test_lat_ns histogram"),
              std::string::npos);
    EXPECT_NE(out.find("obs_test_lat_ns_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(out.find("obs_test_lat_ns_count 3"), std::string::npos);
    EXPECT_NE(out.find("obs_test_lat_ns_sum"), std::string::npos);

    // Buckets must be cumulative (monotone non-decreasing in le order).
    uint64_t prev = 0;
    size_t pos = 0;
    int buckets = 0;
    while ((pos = out.find("obs_test_lat_ns_bucket{le=", pos)) !=
           std::string::npos) {
        const size_t close = out.find("} ", pos);
        ASSERT_NE(close, std::string::npos);
        const uint64_t v = std::strtoull(
            out.c_str() + close + 2, nullptr, 10);
        EXPECT_GE(v, prev);
        prev = v;
        buckets++;
        pos = close;
    }
    EXPECT_GE(buckets, 3);  // at least one per recorded magnitude +Inf
}

TEST(ObsServer, LifecycleEndpointsAndErrors)
{
    ObsServer srv;
    std::string err;
    ASSERT_TRUE(srv.start(0, &err)) << err;
    ASSERT_GT(srv.port(), 0);
    const int port = srv.port();

    EXPECT_EQ(httpGet(port, "/").status, 200);
    EXPECT_EQ(httpGet(port, "/healthz").status, 200);
    EXPECT_EQ(httpGet(port, "/readyz").status, 200);
    const HttpResponse metrics = httpGet(port, "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
    EXPECT_EQ(httpGet(port, "/slowops").status, 200);
    EXPECT_EQ(httpGet(port, "/telemetry").status, 404);
    EXPECT_EQ(httpGet(port, "/trace").status, 200);
    EXPECT_EQ(httpGet(port, "/nope").status, 404);
    // Query strings are stripped before routing.
    EXPECT_EQ(httpGet(port, "/metrics?x=1").status, 200);
    // A client that half-closes after its request still gets the reply.
    EXPECT_EQ(httpExchange(port, "GET /healthz HTTP/1.1\r\n\r\n",
                           /*half_close=*/true)
                  .status,
              200);

    EXPECT_EQ(httpExchange(port,
                           "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                  .status,
              405);
    EXPECT_EQ(httpExchange(port, "garbage\r\n\r\n").status, 400);
    EXPECT_EQ(
        httpExchange(port, "GET /metrics HTTP/1.1\r\nX: " +
                               std::string(10000, 'a') + "\r\n\r\n")
            .status,
        431);

    srv.stop();
    EXPECT_EQ(srv.port(), 0);
    // The port is released: a fresh server can bind it right away.
    ObsServer srv2;
    ASSERT_TRUE(srv2.start(port, &err)) << err;
    EXPECT_EQ(srv2.port(), port);
    EXPECT_EQ(httpGet(port, "/healthz").status, 200);
    srv2.stop();
}

TEST(ObsServer, HealthFlipsOnDeviceDropout)
{
    ObsRig rig;
    const int port = rig.db->obsPort();
    ASSERT_GT(port, 0);

    for (uint64_t k = 0; k < 64; k++)
        ASSERT_TRUE(rig.db->put(k, "v" + std::to_string(k)).isOk());

    HttpResponse ok = httpGet(port, "/healthz");
    EXPECT_EQ(ok.status, 200);
    EXPECT_NE(ok.body.find("\"status\":\"ok\""), std::string::npos);

    rig.ssds[0]->setDropout(true);
    HttpResponse sick = httpGet(port, "/healthz");
    EXPECT_EQ(sick.status, 503);
    EXPECT_NE(sick.body.find("\"degraded_devices\":1"),
              std::string::npos);
    EXPECT_EQ(httpGet(port, "/readyz").status, 503);

    rig.ssds[0]->setDropout(false);
    EXPECT_EQ(httpGet(port, "/healthz").status, 200);
    EXPECT_EQ(httpGet(port, "/readyz").status, 200);
}

TEST(ObsServer, ConcurrentScrapesDuringWrites)
{
    ObsRig rig;
    const int port = rig.db->obsPort();
    ASSERT_GT(port, 0);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        uint64_t v = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const uint64_t k = v % 512;
            ASSERT_TRUE(
                rig.db->put(k, "w" + std::to_string(v)).isOk());
            v++;
        }
    });

    constexpr int kScrapers = 4;
    constexpr int kScrapesEach = 15;
    std::atomic<int> failures{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < kScrapers; t++) {
        scrapers.emplace_back([&] {
            for (int i = 0; i < kScrapesEach; i++) {
                const HttpResponse r = httpGet(port, "/metrics");
                if (r.status != 200 ||
                    r.body.find("prism_shard_ops_total") ==
                        std::string::npos)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : scrapers)
        t.join();
    stop.store(true);
    writer.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(ObsServer, ResolvePortPrecedence)
{
    ::unsetenv("PRISM_OBS_PORT");
    EXPECT_EQ(resolveObsPort(-1), -1);  // off by default
    EXPECT_EQ(resolveObsPort(0), 0);
    EXPECT_EQ(resolveObsPort(9100), 9100);
    ::setenv("PRISM_OBS_PORT", "9200", 1);
    EXPECT_EQ(resolveObsPort(-1), 9200);   // env fills the default
    EXPECT_EQ(resolveObsPort(9100), 9100); // explicit option wins
    ::unsetenv("PRISM_OBS_PORT");
}

/** Open file descriptors of this process. */
size_t
openFds()
{
    size_t n = 0;
    DIR *d = ::opendir("/proc/self/fd");
    if (d == nullptr)
        return 0;
    while (::readdir(d) != nullptr)
        n++;
    ::closedir(d);
    return n;
}

// Kept last: the padding below stays in the process-wide registry and
// would slow every later /metrics scrape in this binary.
TEST(ObsServer, ResetMidResponseClosesConnection)
{
    // Several MB of /metrics, so the response is still being written
    // when the client resets.
    auto &reg = stats::StatsRegistry::global();
    const std::string pad(160, 'p');
    for (int i = 0; i < 20000; i++)
        reg.gauge("obs.test.pad." + pad + "." + std::to_string(i));

    ObsServer srv;
    std::string err;
    ASSERT_TRUE(srv.start(0, &err)) << err;
    const size_t baseline = openFds();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int rcvbuf = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(srv.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = "GET /metrics HTTP/1.1\r\n\r\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    // Reset once the response flows (rendering it can take longer than
    // the 1 s limit below in a sanitizer build): the server is then
    // mid-write, stalled on the client's small receive window.
    pollfd first{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&first, 1, 30000), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const linger rst{1, 0};  // close() now sends RST
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
    ::close(fd);

    // The server must notice the reset and close its socket, not poll
    // the dead connection forever.
    size_t now = openFds();
    for (int i = 0; i < 100 && now != baseline; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        now = openFds();
    }
    EXPECT_EQ(now, baseline);
    srv.stop();
}

}  // namespace
}  // namespace prism::obs
