/**
 * @file
 * prism_cli — an interactive/scriptable shell over a Prism store on
 * simulated heterogeneous devices. Useful for poking at the system and
 * for demos:
 *
 *   $ ./build/examples/prism_cli
 *   prism> put 42 hello
 *   OK
 *   prism> get 42
 *   hello
 *   prism> fill 10000 256
 *   inserted 10000 keys of 256B
 *   prism> stats
 *   ...
 *   prism> tracegen a 5000 /tmp/a.trace   # synthesize a YCSB-A trace
 *   prism> replay /tmp/a.trace            # replay it against the store
 *   prism> quit
 *
 * Commands: put, get, del, scan, fill, flush, gc, stats, metrics,
 * json, trace, top, profile, contention, slowops, tracegen, replay,
 * help, quit.
 * Run with --stats to dump the metrics registry on exit (see
 * docs/OBSERVABILITY.md).
 *
 * Non-interactive subcommands (render the ops-plane payloads
 * in-process, no HTTP server involved):
 *
 *   $ prism_cli healthz            # /healthz JSON; exit 0 ok, 1 degraded
 *   $ prism_cli metrics [--prom]   # registry dump (--prom: Prometheus)
 *
 * --obs-port=N starts the HTTP ops endpoint on the interactive store
 * (0 = ephemeral; see common/obs_server.h); `top` shows its URL.
 *
 * --resp-port=N embeds the RESP network front-end (docs/SERVER.md) on
 * the interactive store (0 = ephemeral), so redis-cli and
 * bench/prism_loadgen can hit the same store the shell is poking at;
 * `top` then adds listener and per-tenant rate lines.
 */
#include <sys/select.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "common/clock.h"
#include "common/obs_server.h"
#include "common/prof.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/shard_router.h"
#include "net/resp_server.h"
#include "sim/device_profile.h"
#include "ycsb/stores.h"
#include "ycsb/trace.h"

using namespace prism;

namespace {

/** Shard count of the open store, for the stats/top views. */
int g_shards = 1;

/** Bound ops-endpoint port (0 = no server), for the top view. */
int g_obs_port = 0;

void
printStats(ycsb::PrismStore &store)
{
    auto &db = store.router();
    // The shell's store is the only one in the process, so the
    // process-wide registry's totals are this store's.
    db.publishOccupancy();
    const auto snap = db.stats();
    const auto n = [&](const char *name) {
        return static_cast<unsigned long long>(snap.counter(name));
    };
    const auto mb = [&](const char *gauge) {
        return static_cast<double>(snap.gauge(gauge)) / 1e6;
    };
    std::printf("keys            %zu\n", db.size());
    if (db.shardCount() > 1) {
        std::printf("shards         ");
        for (size_t s = 0; s < db.shardCount(); s++)
            std::printf(" [%zu] %zu keys", s, db.shard(s).size());
        std::printf("\n");
    }
    std::printf("puts/gets/dels  %llu / %llu / %llu   scans %llu\n",
                n("prism.puts"), n("prism.gets"), n("prism.dels"),
                n("prism.scans"));
    std::printf("read sources    svc=%llu pwb=%llu ssd=%llu\n",
                n("prism.get.svc_hits"), n("prism.get.pwb_hits"),
                n("prism.get.vs_reads"));
    std::printf("svc             %.1f / %.1f MB used, %llu evictions, "
                "%llu scan reorgs\n",
                mb("prism.svc.used_bytes"), mb("prism.svc.capacity_bytes"),
                n("prism.svc.evictions"), n("prism.svc.scan_reorgs"));
    std::printf("reclaim         %llu passes, %llu values moved, %llu "
                "stale skipped\n",
                n("prism.pwb.reclaim_passes"),
                n("prism.pwb.reclaimed_values"),
                n("prism.pwb.reclaim_skipped_stale"));
    size_t free_chunks = 0, total_chunks = 0;
    for (size_t i = 0; i < db.valueStorageCount(); i++) {
        free_chunks += db.valueStorage(i).freeChunks();
        total_chunks += db.valueStorage(i).totalChunks();
    }
    std::printf("value storage   %zu/%zu chunks free, %llu GC passes\n",
                free_chunks, total_chunks, n("prism.vs.gc_passes"));
    std::printf("nvm index       %.1f MB (key index + HSIT)\n",
                static_cast<double>(db.nvmIndexBytes()) / 1e6);
    std::printf("ssd written     %.1f MB for %.1f MB of user writes\n",
                static_cast<double>(db.ssdBytesWritten()) / 1e6,
                static_cast<double>(n("prism.user_bytes_written")) / 1e6);
}

void
printSlowOps(const std::vector<trace::SlowOp> &ops)
{
    auto &tracer = trace::TraceRegistry::global();
    if (ops.empty()) {
        std::printf("no slow ops captured (threshold %llu us; set "
                    "one with 'trace slow <us>')\n",
                    static_cast<unsigned long long>(
                        tracer.slowOpThresholdUs()));
        return;
    }
    for (const auto &op : ops) {
        std::printf("%-14s %8.1f us  tid=%d%s\n", op.op.c_str(),
                    static_cast<double>(op.dur_ns) / 1e3, op.tid,
                    op.truncated ? "  [subtree truncated]" : "");
        for (const auto &ev : op.events) {
            std::printf("  %*s%-22s +%8.1fus  dur=%8.1fus",
                        ev.depth * 2, "",
                        tracer.nameOf(ev.name_id).c_str(),
                        static_cast<double>(ev.ts_ns - op.start_ns) /
                            1e3,
                        static_cast<double>(ev.dur_ns) / 1e3);
            if (ev.arg1_name_id != 0)
                std::printf("  %s=%llu",
                            tracer.nameOf(ev.arg1_name_id).c_str(),
                            static_cast<unsigned long long>(ev.arg1));
            if (ev.arg2_name_id != 0)
                std::printf("  %s=%llu",
                            tracer.nameOf(ev.arg2_name_id).c_str(),
                            static_cast<unsigned long long>(ev.arg2));
            std::printf("\n");
        }
    }
}

/**
 * Wait up to @p ms for input on stdin. Returns true when the user asked
 * to quit (q / quit / plain Enter / EOF). stdin stays line-buffered, so
 * keys take effect when Enter is pressed.
 */
bool
waitQuitOrTimeout(uint64_t ms)
{
    fd_set rd;
    FD_ZERO(&rd);
    FD_SET(STDIN_FILENO, &rd);
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    const int n = select(STDIN_FILENO + 1, &rd, nullptr, nullptr, &tv);
    if (n <= 0)
        return false;
    std::string line;
    if (!std::getline(std::cin, line))
        return true;  // EOF
    return line.empty() || line == "q" || line == "quit";
}

/**
 * One `top` frame: the registry's movement between two snapshots taken
 * dt_s apart. Counters read as rates, gauges as their value now.
 */
struct TopWindow {
    const stats::StatsSnapshot &prev;
    const stats::StatsSnapshot &cur;
    double dt_s;

    double
    rate(const std::string &counter) const
    {
        return static_cast<double>(cur.counterDelta(prev, counter)) / dt_s;
    }

    int64_t gauge(const std::string &name) const { return cur.gauge(name); }

    /**
     * Metrics of @p type named <prefix><middle><suffix>, as (middle,
     * metric) pairs in registry (name) order.
     */
    std::vector<std::pair<std::string, const stats::MetricSnapshot *>>
    family(stats::MetricType type, std::string_view prefix,
           std::string_view suffix) const
    {
        std::vector<std::pair<std::string, const stats::MetricSnapshot *>>
            out;
        for (const auto &m : cur.metrics) {
            if (m.type != type ||
                m.name.size() <= prefix.size() + suffix.size() ||
                !m.name.starts_with(prefix) || !m.name.ends_with(suffix))
                continue;
            out.emplace_back(
                m.name.substr(prefix.size(),
                              m.name.size() - prefix.size() - suffix.size()),
                &m);
        }
        return out;
    }

    /** Counters <prefix><middle><suffix> that moved: (middle, delta). */
    std::vector<std::pair<std::string, uint64_t>>
    moved(std::string_view prefix, std::string_view suffix) const
    {
        std::vector<std::pair<std::string, uint64_t>> out;
        for (const auto &[mid, m] :
             family(stats::MetricType::kCounter, prefix, suffix)) {
            if (const uint64_t d = cur.counterDelta(prev, m->name); d > 0)
                out.emplace_back(mid, d);
        }
        return out;
    }
};

/** Repaint one frame of the live view. */
void
renderTopFrame(const TopWindow &w, uint64_t frame, bool ansi)
{
    if (ansi)
        std::printf("\x1b[H\x1b[2J");
    std::printf("prism top — frame #%llu, %.2fs  (q + Enter quits)\n",
                static_cast<unsigned long long>(frame), w.dt_s);
    if (g_obs_port > 0)
        std::printf("ops: http://127.0.0.1:%d  (/metrics /healthz "
                    "/slowops /trace)\n",
                    g_obs_port);
    // Listener state when a RESP front-end is embedded: the gauge
    // only exists (is non-zero) while a server is running.
    if (const int64_t rp = w.gauge("prism.server.port"); rp > 0) {
        std::printf("resp: 127.0.0.1:%lld  %lld conns  %.0f cmd/s  "
                    "%.0f throttled/s  inflight %lld\n",
                    static_cast<long long>(rp),
                    static_cast<long long>(
                        w.gauge("prism.server.connections")),
                    w.rate("prism.server.commands"),
                    w.rate("prism.server.throttled"),
                    static_cast<long long>(
                        w.gauge("prism.server.inflight")));
        // Per-tenant op rates, active tenants only.
        const auto tenants = w.moved("prism.tenant.", ".ops");
        if (!tenants.empty()) {
            std::printf("tenants:  ");
            for (const auto &[tenant, ops] : tenants)
                std::printf(" %s %.0f ops/s", tenant.c_str(),
                            static_cast<double>(ops) / w.dt_s);
            std::printf("\n");
        }
    }
    std::printf("\n");

    std::printf("ops/s      put %9.0f   get %9.0f   del %9.0f   "
                "scan %9.0f\n",
                w.rate("prism.puts"), w.rate("prism.gets"),
                w.rate("prism.dels"), w.rate("prism.scans"));
    std::printf("pipeline   pwb-append %7.1f MB/s   reclaimed %7.0f "
                "vals/s   gc-moved %7.1f MB/s\n",
                w.rate("prism.pwb.append_bytes") / 1e6,
                w.rate("prism.pwb.reclaimed_values"),
                w.rate("prism.vs.gc_moved_bytes") / 1e6);
    std::printf("devices    ssd-read %8.1f MB/s   ssd-write %8.1f MB/s"
                "   bg-tasks %6.0f/s (queue %lld)\n\n",
                w.rate("sim.ssd.bytes_read") / 1e6,
                w.rate("sim.ssd.bytes_written") / 1e6,
                w.rate("prism.bg.tasks"),
                static_cast<long long>(w.gauge("prism.bg.queue_depth")));

    const int64_t pwb_used = w.gauge("prism.pwb.used_bytes");
    const int64_t pwb_cap = w.gauge("prism.pwb.capacity_bytes");
    const int64_t svc_used = w.gauge("prism.svc.used_bytes");
    const int64_t svc_cap = w.gauge("prism.svc.capacity_bytes");
    std::printf("occupancy  pwb %6.1f / %6.1f MB (%3.0f%%)   "
                "svc %6.1f / %6.1f MB (%3.0f%%)\n\n",
                static_cast<double>(pwb_used) / 1e6,
                static_cast<double>(pwb_cap) / 1e6,
                pwb_cap > 0 ? 100.0 * static_cast<double>(pwb_used) /
                                  static_cast<double>(pwb_cap)
                            : 0.0,
                static_cast<double>(svc_used) / 1e6,
                static_cast<double>(svc_cap) / 1e6,
                svc_cap > 0 ? 100.0 * static_cast<double>(svc_used) /
                                  static_cast<double>(svc_cap)
                            : 0.0);

    // Hottest locks: top-3 prism.lock.<site>.wait_ns_total by wait rate
    // this frame. All-zero (or profiler off) prints nothing.
    auto hot = w.moved("prism.lock.", ".wait_ns_total");
    std::sort(hot.begin(), hot.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    if (!hot.empty()) {
        std::printf("locks     ");
        for (size_t i = 0; i < hot.size() && i < 3; i++)
            std::printf(" %s %.1fms/s", hot[i].first.c_str(),
                        static_cast<double>(hot[i].second) / w.dt_s / 1e6);
        std::printf("   (wait, prism.lock.*)\n\n");
    }

    if (g_shards > 1) {
        std::printf("%-8s %12s %12s %6s\n", "shard", "ops/s", "keys",
                    "node");
        for (int sh = 0; sh < g_shards; sh++) {
            const std::string p =
                "prism.shard." + std::to_string(sh) + ".";
            std::printf("shard%-3d %12.0f %12lld %6lld\n", sh,
                        w.rate(p + "ops"),
                        static_cast<long long>(w.gauge(p + "keys")),
                        static_cast<long long>(w.gauge(p + "node")));
        }
        std::printf("\n");
    }

    // Tracer self-time per layer: deltas of the cumulative
    // prism.trace.busy_ns.<layer> gauges, as cores kept busy.
    std::printf("layer busy (cores)\n");
    int64_t total_busy = 0;
    for (size_t i = 0; i < trace::kNumLayers; i++) {
        const std::string g =
            std::string("prism.trace.busy_ns.") + trace::layerName(i);
        const int64_t busy = std::max<int64_t>(
            w.cur.gauge(g) - w.prev.gauge(g), 0);
        total_busy += busy;
        std::printf("  %-6s %6.2f\n", trace::layerName(i),
                    static_cast<double>(busy) / (w.dt_s * 1e9));
    }
    if (total_busy == 0 && !trace::TraceRegistry::global().enabled())
        std::printf("  (all zero — CPU attribution needs tracing; run "
                    "'trace on')\n");

    // Per-device bandwidth and utilization from the sim.ssd.<n>.*
    // series; every device publishes its channel count.
    std::vector<std::pair<int, int64_t>> devices;  // (number, channels)
    for (const auto &[dev, m] :
         w.family(stats::MetricType::kGauge, "sim.ssd.", ".channels")) {
        if (dev.find_first_not_of("0123456789") == std::string::npos)
            devices.emplace_back(std::stoi(dev), m->gauge);
    }
    std::sort(devices.begin(), devices.end());
    if (!devices.empty()) {
        std::printf("\n%-6s %12s %12s %6s\n", "device", "read MB/s",
                    "write MB/s", "util");
        for (const auto &[dev, channels] : devices) {
            const std::string p = "sim.ssd." + std::to_string(dev) + ".";
            std::printf("ssd%-3d %12.1f %12.1f %5.0f%%\n", dev,
                        w.rate(p + "bytes_read") / 1e6,
                        w.rate(p + "bytes_written") / 1e6,
                        100.0 * w.rate(p + "busy_ns") /
                            (1e9 * static_cast<double>(
                                       std::max<int64_t>(channels, 1))));
        }
    }
    std::fflush(stdout);
}

/**
 * Live view: every @p interval_ms, refresh the derived gauges, take a
 * registry snapshot and show its difference from the previous one, until
 * the user quits or @p frames frames were shown (0 = until quit).
 */
void
runTop(core::ShardRouter &router, uint64_t interval_ms, uint64_t frames)
{
    const bool ansi = isatty(STDOUT_FILENO) != 0;
    auto &reg = stats::StatsRegistry::global();
    router.publishGauges();
    stats::StatsSnapshot prev = reg.snapshot();
    uint64_t prev_ns = nowNs();
    for (uint64_t i = 0; frames == 0 || i < frames; i++) {
        if (waitQuitOrTimeout(interval_ms))
            break;
        router.publishGauges();
        stats::StatsSnapshot cur = reg.snapshot();
        const uint64_t now_ns = nowNs();
        const double dt_s =
            std::max(static_cast<double>(now_ns - prev_ns) / 1e9, 1e-9);
        renderTopFrame(TopWindow{prev, cur, dt_s}, i, ansi);
        prev = std::move(cur);
        prev_ns = now_ns;
    }
}

ycsb::Mix
mixByName(const std::string &name)
{
    if (name == "load") return ycsb::Mix::kLoad;
    if (name == "a") return ycsb::Mix::kA;
    if (name == "b") return ycsb::Mix::kB;
    if (name == "c") return ycsb::Mix::kC;
    if (name == "d") return ycsb::Mix::kD;
    if (name == "e") return ycsb::Mix::kE;
    if (name == "nutanix") return ycsb::Mix::kNutanix;
    return ycsb::Mix::kC;
}

void
help()
{
    std::printf(
        "commands:\n"
        "  put <key> <value>          insert or update\n"
        "  get <key>                  point lookup\n"
        "  del <key>                  delete\n"
        "  scan <key> <count>         range scan\n"
        "  fill <n> [bytes]           bulk-insert n keys\n"
        "  flush                      drain PWBs to Value Storage\n"
        "  gc                         force garbage collection\n"
        "  stats                      show store statistics\n"
        "  metrics                    dump the metrics registry (text)\n"
        "  json                       dump the metrics registry (JSON)\n"
        "  trace on|off               toggle cross-layer tracing\n"
        "  trace dump <file>          export Chrome-trace JSON "
        "(ui.perfetto.dev)\n"
        "  trace slow <us>            capture ops slower than <us> "
        "(0 = off)\n"
        "  trace clear                drop recorded events + slow ops\n"
        "  top [ms] [frames]          live per-layer rate/occupancy "
        "view (default 1000 ms)\n"
        "  profile [sec] [file]       sample CPU for sec seconds "
        "(default 5) and print/export\n"
        "                             collapsed stacks "
        "(scripts/flamegraph.py renders them)\n"
        "  contention                 lock-wait folded stacks "
        "(prism.lock.* sites)\n"
        "  slowops                    show captured slow ops, worst "
        "first\n"
        "  tracegen <mix> <n> <file>  synthesize a YCSB trace "
        "(mix: load|a|b|c|d|e|nutanix)\n"
        "  replay <file>              replay a trace file\n"
        "  quit\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    bool dump_stats = false, dump_json = false, prom = false;
    int resp_port = -1;  // -1 = no RESP listener; 0 = ephemeral
    std::string subcommand;
    core::PrismOptions po;  // shards=0: defer to --shards/$PRISM_SHARDS
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--stats") == 0)
            dump_stats = true;
        else if (std::strcmp(argv[i], "--stats=json") == 0)
            dump_stats = dump_json = true;
        else if (std::strncmp(argv[i], "--shards=", 9) == 0)
            po.shards = std::atoi(argv[i] + 9);
        else if (std::strncmp(argv[i], "--obs-port=", 11) == 0)
            po.obs_port = std::atoi(argv[i] + 11);
        else if (std::strncmp(argv[i], "--resp-port=", 12) == 0)
            resp_port = std::atoi(argv[i] + 12);
        else if (std::strcmp(argv[i], "--prom") == 0)
            prom = true;
        else if (argv[i][0] != '-' && subcommand.empty())
            subcommand = argv[i];
    }

    if (!subcommand.empty() && subcommand != "healthz" &&
        subcommand != "metrics") {
        std::fprintf(stderr,
                     "unknown subcommand '%s' (healthz | metrics "
                     "[--prom])\n",
                     subcommand.c_str());
        return 2;
    }
    if (!subcommand.empty())
        po.obs_port = -1;  // one-shot render: never start a listener

    ycsb::FixtureOptions fx;
    fx.num_ssds = 2;
    fx.ssd_bytes = 1ull << 30;
    fx.dataset_bytes = 128ull << 20;
    fx.model_timing = true;
    ycsb::PrismStore store(fx, po);
    g_shards = static_cast<int>(store.router().shardCount());
    g_obs_port = store.router().obsPort();

    // One-shot ops-plane renders: exactly the payloads the HTTP
    // endpoint serves, produced in-process with no server.
    if (subcommand == "healthz") {
        const obs::HealthReport r = store.router().healthReport();
        std::printf("%s\n", r.json.c_str());
        return r.healthy ? 0 : 1;
    }
    if (subcommand == "metrics") {
        store.router().publishGauges();
        const auto snap = stats::StatsRegistry::global().snapshot();
        if (prom)
            std::printf("%s", obs::renderPrometheus(snap).c_str());
        else
            std::printf("%s", snap.toString().c_str());
        return 0;
    }

    std::printf("prism_cli: store open — %d shard%s, %d NVM region%s + "
                "%zu %s SSDs. Type 'help'.\n",
                g_shards, g_shards == 1 ? "" : "s", g_shards,
                g_shards == 1 ? "" : "s", store.devices().size(),
                std::string(store.devices().front()->kind()).c_str());
    if (g_obs_port > 0)
        std::printf("prism_cli: ops endpoint at http://127.0.0.1:%d\n",
                    g_obs_port);

    // Embed the RESP front-end so network clients share this store.
    std::unique_ptr<net::RespServer> resp;
    if (resp_port >= 0) {
        resp = std::make_unique<net::RespServer>(store);
        net::RespServer::Options so;
        so.port = resp_port;
        std::string err;
        if (!resp->start(so, &err)) {
            std::fprintf(stderr, "prism_cli: %s\n", err.c_str());
            return 1;
        }
        std::printf("prism_cli: resp listening on 127.0.0.1:%d  "
                    "(try: redis-cli -p %d)\n",
                    resp->port(), resp->port());
    }

    std::string line;
    while (true) {
        std::printf("prism> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, line))
            break;
        std::istringstream in(line);
        std::string cmd;
        in >> cmd;
        if (cmd.empty())
            continue;

        if (cmd == "quit" || cmd == "exit")
            break;
        if (cmd == "help") {
            help();
        } else if (cmd == "put") {
            uint64_t key;
            std::string value;
            if (!(in >> key) || !(in >> value)) {
                std::printf("usage: put <key> <value>\n");
                continue;
            }
            std::printf("%s\n", store.put(key, value).toString().c_str());
        } else if (cmd == "get") {
            uint64_t key;
            if (!(in >> key)) {
                std::printf("usage: get <key>\n");
                continue;
            }
            std::string value;
            const Status st = store.get(key, &value);
            std::printf("%s\n", st.isOk() ? value.c_str()
                                          : st.toString().c_str());
        } else if (cmd == "del") {
            uint64_t key;
            if (!(in >> key)) {
                std::printf("usage: del <key>\n");
                continue;
            }
            std::printf("%s\n", store.del(key).toString().c_str());
        } else if (cmd == "scan") {
            uint64_t key;
            size_t count;
            if (!(in >> key >> count)) {
                std::printf("usage: scan <key> <count>\n");
                continue;
            }
            std::vector<std::pair<uint64_t, std::string>> out;
            const Status st = store.scan(key, count, &out);
            if (!st.isOk()) {
                std::printf("%s\n", st.toString().c_str());
                continue;
            }
            for (const auto &[k, v] : out) {
                std::printf("%llu = %.40s%s\n",
                            static_cast<unsigned long long>(k), v.c_str(),
                            v.size() > 40 ? "..." : "");
            }
        } else if (cmd == "fill") {
            uint64_t n;
            uint32_t bytes = 256;
            if (!(in >> n)) {
                std::printf("usage: fill <n> [bytes]\n");
                continue;
            }
            in >> bytes;
            std::string value;
            for (uint64_t i = 0; i < n; i++) {
                const uint64_t key = ycsb::OpGenerator::keyOf(i);
                ycsb::OpGenerator::fillValue(key, bytes, &value);
                store.put(key, value);
            }
            std::printf("inserted %llu keys of %uB\n",
                        static_cast<unsigned long long>(n), bytes);
        } else if (cmd == "flush") {
            store.flushAll();
            std::printf("OK\n");
        } else if (cmd == "gc") {
            store.router().forceGc();
            std::printf("OK\n");
        } else if (cmd == "stats") {
            printStats(store);
        } else if (cmd == "metrics") {
            std::printf("%s", store.router().stats().toString().c_str());
        } else if (cmd == "json") {
            std::printf("%s\n", store.router().stats().toJson().c_str());
        } else if (cmd == "trace") {
            std::string sub;
            in >> sub;
            auto &tracer = trace::TraceRegistry::global();
            if (sub == "on") {
                tracer.setEnabled(true);
                std::printf("tracing on\n");
            } else if (sub == "off") {
                tracer.setEnabled(false);
                std::printf("tracing off\n");
            } else if (sub == "dump") {
                std::string file;
                if (!(in >> file)) {
                    std::printf("usage: trace dump <file>\n");
                    continue;
                }
                if (tracer.exportJsonToFile(file))
                    std::printf("trace written to %s (open at "
                                "https://ui.perfetto.dev)\n",
                                file.c_str());
                else
                    std::printf("cannot write %s\n", file.c_str());
            } else if (sub == "slow") {
                uint64_t us;
                if (!(in >> us)) {
                    std::printf("usage: trace slow <us>\n");
                    continue;
                }
                tracer.setSlowOpThresholdUs(us);
                std::printf("slow-op threshold %llu us\n",
                            static_cast<unsigned long long>(us));
            } else if (sub == "clear") {
                tracer.clear();
                std::printf("OK\n");
            } else {
                std::printf(
                    "usage: trace on|off|dump <file>|slow <us>|clear\n");
            }
        } else if (cmd == "top") {
            uint64_t ms = 1000, frames = 0;
            in >> ms >> frames;
            if (ms == 0)
                ms = 1000;
            runTop(store.router(), ms, frames);
        } else if (cmd == "profile") {
            double seconds = 5.0;
            std::string file;
            in >> seconds >> file;
            if (seconds <= 0)
                seconds = 5.0;
            std::printf("sampling %.1fs at %d Hz...\n", seconds,
                        prof::Profiler::global().running()
                            ? prof::Profiler::global().hz()
                            : 99);
            std::fflush(stdout);
            const std::string folded =
                prof::Profiler::global().profileForWindow(0, seconds);
            if (!file.empty()) {
                FILE *f = std::fopen(file.c_str(), "w");
                if (f == nullptr) {
                    std::printf("cannot write %s\n", file.c_str());
                } else {
                    std::fwrite(folded.data(), 1, folded.size(), f);
                    std::fclose(f);
                    std::printf("profile written to %s (render with "
                                "scripts/flamegraph.py)\n",
                                file.c_str());
                }
            } else {
                std::fputs(folded.c_str(), stdout);
            }
        } else if (cmd == "contention") {
            std::fputs(prof::renderContentionFolded().c_str(), stdout);
        } else if (cmd == "slowops") {
            printSlowOps(store.router().slowOps());
        } else if (cmd == "tracegen") {
            std::string mix, file;
            uint64_t n;
            if (!(in >> mix >> n >> file)) {
                std::printf("usage: tracegen <mix> <n> <file>\n");
                continue;
            }
            ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::forMix(
                mixByName(mix), std::max<uint64_t>(store.router().size(), 1),
                n);
            spec.value_bytes = 256;
            const uint64_t written = ycsb::generateTrace(spec, 1, file);
            std::printf("wrote %llu records to %s\n",
                        static_cast<unsigned long long>(written),
                        file.c_str());
        } else if (cmd == "replay") {
            std::string file;
            if (!(in >> file)) {
                std::printf("usage: replay <file>\n");
                continue;
            }
            const ycsb::RunResult r = ycsb::replayTrace(store, file, 4);
            std::printf("replayed %llu ops at %.1f Kops/s (%s)\n",
                        static_cast<unsigned long long>(r.ops),
                        r.throughput() / 1e3,
                        r.overall.summaryUs().c_str());
        } else {
            std::printf("unknown command '%s' (try 'help')\n",
                        cmd.c_str());
        }
    }
    if (resp)
        resp->stop();
    if (dump_stats) {
        const auto snap = stats::StatsRegistry::global().snapshot();
        if (dump_json)
            std::fprintf(stderr, "%s\n", snap.toJson().c_str());
        else
            std::fprintf(stderr, "---- prism stats ----\n%s",
                         snap.toString().c_str());
    }
    return 0;
}
