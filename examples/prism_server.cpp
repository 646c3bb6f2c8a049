/**
 * @file
 * prism_server — Prism as a network service (docs/SERVER.md).
 *
 * Opens the standard Prism fixture (ShardRouter over simulated
 * heterogeneous devices) and fronts it with net::RespServer, the RESP
 * listener that drives the store through its async API. Clients are
 * ordinary Redis clients:
 *
 *   $ ./build/examples/prism_server --port=6399 &
 *   $ redis-cli -p 6399 SET 42 hello
 *   OK
 *   $ redis-cli -p 6399 GET 42
 *   "hello"
 *
 * --port=0 (the default) binds an ephemeral port; the bound port is
 * announced on stdout as `resp listening on <addr>:<port>` so scripts
 * (CI's server job, scripts/verify.sh) can scrape it. --obs-port=N
 * additionally starts the HTTP ops endpoint (/metrics, /healthz — the
 * health report gains a "listener" section while the server runs).
 *
 * Runs until SIGINT/SIGTERM. --duration=SECONDS self-terminates, for
 * smoke tests that must not leak a process on failure.
 */
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/obs_server.h"
#include "common/stats.h"
#include "net/resp_server.h"
#include "ycsb/stores.h"
#include "ycsb/workload.h"

using namespace prism;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --port=N            RESP port (default 0 = ephemeral)\n"
        "  --bind=ADDR         bind address (default 127.0.0.1)\n"
        "  --shards=N          shard count (default $PRISM_SHARDS or 1)\n"
        "  --obs-port=N        HTTP ops endpoint port (0 = ephemeral;\n"
        "                      default off)\n"
        "  --inflight-cap=N    per-connection pipelined-command cap\n"
        "  --max-conns=N       connection limit\n"
        "  --quota-default=N   default per-tenant ops/s quota (0 = off)\n"
        "  --quota=SPEC        per-tenant overrides, name=rate[,...]\n"
        "  --preload=N         insert N keys before serving\n"
        "  --value-bytes=N     preload value size (default 256)\n"
        "  --duration=SECS     exit after SECS seconds (default: until\n"
        "                      SIGINT/SIGTERM)\n"
        "  --no-timing         disable simulated device timing\n",
        argv0);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    net::RespServer::Options so;
    core::PrismOptions po;  // shards=0: defer to --shards/$PRISM_SHARDS
    po.obs_port = -1;
    uint64_t preload = 0, value_bytes = 256, duration_s = 0;
    bool model_timing = true;
    for (int i = 1; i < argc; i++) {
        const char *a = argv[i];
        if (std::strncmp(a, "--port=", 7) == 0)
            so.port = std::atoi(a + 7);
        else if (std::strncmp(a, "--bind=", 7) == 0)
            so.bind_addr = a + 7;
        else if (std::strncmp(a, "--shards=", 9) == 0)
            po.shards = std::atoi(a + 9);
        else if (std::strncmp(a, "--obs-port=", 11) == 0)
            po.obs_port = std::atoi(a + 11);
        else if (std::strncmp(a, "--inflight-cap=", 15) == 0)
            so.inflight_cap = std::atoi(a + 15);
        else if (std::strncmp(a, "--max-conns=", 12) == 0)
            so.max_connections = std::atoi(a + 12);
        else if (std::strncmp(a, "--quota-default=", 16) == 0)
            so.quota_default_ops =
                std::strtoull(a + 16, nullptr, 10);
        else if (std::strncmp(a, "--quota=", 8) == 0)
            so.quota_spec = a + 8;
        else if (std::strncmp(a, "--preload=", 10) == 0)
            preload = std::strtoull(a + 10, nullptr, 10);
        else if (std::strncmp(a, "--value-bytes=", 14) == 0)
            value_bytes = std::strtoull(a + 14, nullptr, 10);
        else if (std::strncmp(a, "--duration=", 11) == 0)
            duration_s = std::strtoull(a + 11, nullptr, 10);
        else if (std::strcmp(a, "--no-timing") == 0)
            model_timing = false;
        else
            return usage(argv[0]);
    }
    if (so.inflight_cap <= 0 || so.max_connections <= 0)
        return usage(argv[0]);

    ycsb::FixtureOptions fx;
    fx.num_ssds = 2;
    fx.ssd_bytes = 1ull << 30;
    fx.dataset_bytes = 128ull << 20;
    fx.model_timing = model_timing;
    ycsb::PrismStore store(fx, po);

    if (preload > 0) {
        std::string value;
        for (uint64_t i = 0; i < preload; i++) {
            // Match prism_loadgen's key space: keyOf(i) masked into
            // the default tenant's 48-bit range.
            const uint64_t key =
                ycsb::OpGenerator::keyOf(i) & net::kKeyMask;
            ycsb::OpGenerator::fillValue(key, value_bytes, &value);
            store.put(key, value);
        }
        store.flushAll();
        std::fprintf(stderr, "prism_server: preloaded %llu keys\n",
                     static_cast<unsigned long long>(preload));
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    net::RespServer server(store);
    std::string err;
    if (!server.start(so, &err)) {
        std::fprintf(stderr, "prism_server: %s\n", err.c_str());
        return 1;
    }
    // The announce line is an interface: CI and verify.sh scrape the
    // port from it. Keep the format stable.
    std::printf("prism_server: resp listening on %s:%d\n",
                so.bind_addr.c_str(), server.port());
    if (store.router().obsPort() > 0)
        std::printf("prism_server: ops endpoint at http://127.0.0.1:%d\n",
                    store.router().obsPort());
    std::fflush(stdout);

    const uint64_t deadline =
        duration_s > 0 ? duration_s * 10 : UINT64_MAX;
    for (uint64_t ticks = 0; g_stop == 0 && ticks < deadline; ticks++)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.stop();
    auto &reg = stats::StatsRegistry::global();
    std::fprintf(stderr,
                 "prism_server: served %llu commands over %llu "
                 "connections (%llu throttled)\n",
                 static_cast<unsigned long long>(
                     reg.counter("prism.server.commands").value()),
                 static_cast<unsigned long long>(
                     reg.counter("prism.server.accepted").value()),
                 static_cast<unsigned long long>(
                     reg.counter("prism.server.throttled").value()));
    return 0;
}
