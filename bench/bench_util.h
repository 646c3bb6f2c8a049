/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench prints the rows/series of one paper table or figure. The
 * scale is reduced from the paper's testbed (100 M keys, 40 cores,
 * 8 SSDs) to what a simulation on one machine can run in seconds;
 * shapes, not absolute numbers, are the reproduction target (see
 * EXPERIMENTS.md). Environment overrides:
 *
 *   PRISM_BENCH_RECORDS  dataset size in keys   (default 100000)
 *   PRISM_BENCH_OPS      operations per run     (default 40000)
 *   PRISM_BENCH_THREADS  client threads         (default 8)
 *   PRISM_BENCH_SSDS     number of SSDs         (default 4)
 *   PRISM_BENCH_BACKEND  Prism I/O backend      (default sim;
 *                        sim|posix|uring|auto — docs/IO_BACKENDS.md)
 *   PRISM_BENCH_SHARDS   Prism shard count      (default 1; power of
 *                        two — src/core/shard_router.h)
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/prof.h"
#include "common/stats.h"
#include "common/trace.h"
#include "io/io_backend.h"
#include "ycsb/driver.h"
#include "ycsb/stores.h"

namespace prism::bench {

using ycsb::FixtureOptions;
using ycsb::KvStore;
using ycsb::Mix;
using ycsb::RunResult;
using ycsb::WorkloadSpec;

inline uint64_t
envOr(const char *name, uint64_t def)
{
    const char *v = std::getenv(name);
    return v == nullptr ? def : std::strtoull(v, nullptr, 10);
}

/**
 * @name --stats support (docs/OBSERVABILITY.md)
 *
 * Every bench accepts `--stats` (text) or `--stats=json` to dump the
 * process-wide metrics registry when it exits; PRISM_BENCH_STATS=1 or
 * =json does the same without a flag. The dump goes to stderr so it
 * never mixes with a bench's tabular stdout.
 * @{
 */

struct StatsFlag {
    bool enabled = false;
    bool json = false;
};

inline StatsFlag
parseStatsFlag(int argc, char **argv)
{
    StatsFlag f;
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a == "--stats")
            f.enabled = true;
        else if (a == "--stats=json")
            f.enabled = f.json = true;
    }
    if (const char *env = std::getenv("PRISM_BENCH_STATS")) {
        f.enabled = true;
        if (std::string_view(env) == "json")
            f.json = true;
    }
    return f;
}

inline void
dumpStats(const StatsFlag &f)
{
    if (!f.enabled)
        return;
    const auto snap = stats::StatsRegistry::global().snapshot();
    if (f.json)
        std::fprintf(stderr, "%s\n", snap.toJson().c_str());
    else
        std::fprintf(stderr, "---- prism stats ----\n%s",
                     snap.toString().c_str());
}

namespace detail {
inline StatsFlag g_stats_flag;
}  // namespace detail

/** Call first thing in main(); dumps at normal process exit. */
inline void
maybeDumpStatsAtExit(int argc, char **argv)
{
    detail::g_stats_flag = parseStatsFlag(argc, argv);
    if (detail::g_stats_flag.enabled)
        std::atexit([] { dumpStats(detail::g_stats_flag); });
}

/** @} */

/**
 * @name --trace support (docs/OBSERVABILITY.md, "Tracing")
 *
 * Every bench accepts `--trace=<file>` (or `PRISM_BENCH_TRACE=<file>`)
 * to enable the cross-layer tracer for the whole run and export a
 * Chrome-trace/Perfetto JSON dump to <file> at normal process exit.
 * Open the dump at https://ui.perfetto.dev or chrome://tracing.
 * @{
 */

namespace detail {
inline std::string g_trace_path;
}  // namespace detail

/** Call first thing in main(), next to maybeDumpStatsAtExit(). */
inline void
maybeTraceToFileAtExit(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a.rfind("--trace=", 0) == 0)
            detail::g_trace_path = std::string(a.substr(8));
    }
    if (const char *env = std::getenv("PRISM_BENCH_TRACE")) {
        if (*env != '\0' && detail::g_trace_path.empty())
            detail::g_trace_path = env;
    }
    if (detail::g_trace_path.empty())
        return;
    trace::TraceRegistry::global().setEnabled(true);
    std::atexit([] {
        trace::TraceRegistry::global().publishStats();
        if (!trace::TraceRegistry::global().exportJsonToFile(
                detail::g_trace_path)) {
            std::fprintf(stderr, "trace export to %s failed\n",
                         detail::g_trace_path.c_str());
            return;
        }
        std::fprintf(stderr, "trace written to %s\n",
                     detail::g_trace_path.c_str());
    });
}

/** @} */

/**
 * @name --profile support (docs/OBSERVABILITY.md, "Profiling")
 *
 * `--profile=<file>` (or `PRISM_BENCH_PROFILE=<file>`) arms the
 * sampling CPU profiler (common/prof.h) for the whole run and writes
 * the collapsed-stack profile to <file> at normal process exit.
 * Sampling rate: `PRISM_BENCH_PROF_HZ` (default 99). Render the file
 * with scripts/flamegraph.py; the lock-contention folded stacks go to
 * <file>.contention alongside it.
 * @{
 */

namespace detail {
inline std::string g_profile_path;
}  // namespace detail

/** Call first thing in main(), next to maybeTraceToFileAtExit(). */
inline void
maybeProfileToFileAtExit(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a.rfind("--profile=", 0) == 0)
            detail::g_profile_path = std::string(a.substr(10));
    }
    if (const char *env = std::getenv("PRISM_BENCH_PROFILE")) {
        if (*env != '\0' && detail::g_profile_path.empty())
            detail::g_profile_path = env;
    }
    if (detail::g_profile_path.empty())
        return;
    const int hz = static_cast<int>(envOr("PRISM_BENCH_PROF_HZ", 99));
    prof::Profiler::global().start(hz);
    std::atexit([] {
        auto &p = prof::Profiler::global();
        const std::string folded = p.collectFolded();
        p.stop();
        auto write = [](const std::string &path, const std::string &body) {
            FILE *f = std::fopen(path.c_str(), "w");
            if (f == nullptr) {
                std::fprintf(stderr, "profile export to %s failed\n",
                             path.c_str());
                return;
            }
            std::fwrite(body.data(), 1, body.size(), f);
            std::fclose(f);
        };
        write(detail::g_profile_path, folded);
        write(detail::g_profile_path + ".contention",
              prof::renderContentionFolded());
        std::fprintf(stderr,
                     "profile (%llu samples) written to %s (+ .contention)\n",
                     static_cast<unsigned long long>(p.samplesTaken()),
                     detail::g_profile_path.c_str());
    });
}

/** @} */

/**
 * @name --backend support (docs/IO_BACKENDS.md)
 *
 * Every bench accepts `--backend={sim,posix,uring,auto}` (or
 * `PRISM_BENCH_BACKEND=<kind>`) to pick the io::IoBackend Prism's
 * Value Storage runs on: the timing-modelled simulator (default) or
 * real files via the POSIX pool / io_uring. Only the Prism store is
 * switchable; the baselines always simulate. Non-sim runs tag every
 * JSON row with a `"backend"` field so their rows never collide with
 * the committed simulator baselines in scripts/bench_compare.py.
 * @{
 */

namespace detail {
inline std::string g_backend;
}  // namespace detail

/** Call first thing in main(), next to maybeDumpStatsAtExit(). */
inline void
parseBackendFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a.rfind("--backend=", 0) == 0)
            detail::g_backend = std::string(a.substr(10));
    }
    if (detail::g_backend.empty()) {
        if (const char *env = std::getenv("PRISM_BENCH_BACKEND"))
            detail::g_backend = env;
    }
}

/** Selector for PrismOptions::io_backend ("" = default resolution). */
inline const std::string &
benchBackend()
{
    return detail::g_backend;
}

/**
 * Resolved backend kind name for logs/rows ("sim", "posix", "uring" —
 * "auto" resolves to what the kernel probe picked).
 */
inline const char *
benchBackendName()
{
    return io::backendKindName(
        io::resolveBackendKind(detail::g_backend));
}

/** @} */

/**
 * @name --shards support (src/core/shard_router.h)
 *
 * Every bench accepts `--shards=N` (or `PRISM_SHARDS=N` /
 * `PRISM_BENCH_SHARDS=N`) to run the Prism store as an N-shard
 * ShardRouter (N a power of two; 1 = the default one-shard store).
 * Like `--backend`, only Prism is switchable. Sharded runs tag every
 * JSON row with a `"shards"` field so their rows never collide with
 * the committed unsharded baselines in scripts/bench_compare.py.
 * @{
 */

namespace detail {
inline int g_shards = 1;
}  // namespace detail

/** Call first thing in main(), next to parseBackendFlag(). */
inline void
parseShardsFlag(int argc, char **argv)
{
    int n = 0;
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a.rfind("--shards=", 0) == 0)
            n = std::atoi(a.substr(9).data());
    }
    if (n == 0)
        n = static_cast<int>(envOr("PRISM_BENCH_SHARDS", 0));
    if (n == 0)
        n = static_cast<int>(envOr("PRISM_SHARDS", 0));
    detail::g_shards = n == 0 ? 1 : n;
}

/** Shard count for PrismOptions::shards (>= 1 once parsed). */
inline int
benchShards()
{
    return detail::g_shards;
}

/** @} */

/**
 * @name --obs-port support (common/obs_server.h)
 *
 * Every bench accepts `--obs-port=N` (or `PRISM_OBS_PORT=N`) to serve
 * the HTTP ops endpoints from the Prism store while the bench runs:
 * 0 binds an ephemeral port (the store logs
 * "obs: listening on http://127.0.0.1:PORT" via the obs.server log
 * site — CI greps it), >0 binds that port. Off by default, so
 * committed baselines never pay for the listener.
 * @{
 */

namespace detail {
inline int g_obs_port = -1;
}  // namespace detail

/** Call first thing in main(), next to parseShardsFlag(). */
inline void
parseObsFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a.rfind("--obs-port=", 0) == 0)
            detail::g_obs_port = std::atoi(a.substr(11).data());
    }
    // -1 defers to $PRISM_OBS_PORT inside obs::resolveObsPort.
}

/** Port for PrismOptions::obs_port (-1 = env, then off). */
inline int
benchObsPort()
{
    return detail::g_obs_port;
}

/** @} */

/**
 * @name Machine-readable results (`PRISM_BENCH_JSON`)
 *
 * When `PRISM_BENCH_JSON=<path>` is set, benches that support it append
 * one complete JSON object per result row to that file (JSON-lines).
 * Each row carries a `"figure"` tag so a harness can regroup rows from
 * several binaries into one document; `run_benches.sh` assembles them
 * into `BENCH_pr2.json`.
 * @{
 */

inline void
benchJsonRow(const std::string &obj)
{
    const char *path = std::getenv("PRISM_BENCH_JSON");
    if (path == nullptr || *path == '\0')
        return;
    FILE *f = std::fopen(path, "a");
    if (f == nullptr)
        return;
    // Non-sim runs get a "backend" identity field appended to every
    // row. Simulator rows stay byte-identical to the committed
    // BENCH_pr*.json baselines (bench_compare.py keys rows on their
    // field set, so adding the field only off the default path keeps
    // default runs comparable against old documents).
    std::string row = obj;
    const std::string kind = benchBackendName();
    if (kind != "sim" && !row.empty() && row.back() == '}')
        row.insert(row.size() - 1, ", \"backend\": \"" + kind + "\"");
    // Sharded runs likewise get a "shards" identity field; unsharded
    // rows stay byte-identical to the committed baselines.
    if (detail::g_shards > 1 && !row.empty() && row.back() == '}')
        row.insert(row.size() - 1,
                   ", \"shards\": " + std::to_string(detail::g_shards));
    std::fprintf(f, "%s\n", row.c_str());
    std::fclose(f);
}

/**
 * benchJsonRow() minus the "shards" tag, for rows of stores that
 * `--shards` does not apply to (KVell, the LSMs). Their rows stay
 * comparable to the unsharded baselines even inside a sharded run.
 */
inline void
benchJsonRowUnsharded(const std::string &obj)
{
    const int saved = detail::g_shards;
    detail::g_shards = 1;
    benchJsonRow(obj);
    detail::g_shards = saved;
}

/** @} */

/**
 * Parse a `--threads=1,2,4,8` style flag (or @p env_name) into a
 * thread-count list; returns @p def when neither is present. Lets
 * sweep benches (fig16) take an arbitrary ladder instead of a
 * hard-coded one.
 */
inline std::vector<int>
parseThreadListFlag(int argc, char **argv, const char *env_name,
                    std::vector<int> def)
{
    std::string spec;
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a.rfind("--threads=", 0) == 0)
            spec = std::string(a.substr(10));
    }
    if (spec.empty()) {
        if (const char *env = std::getenv(env_name);
            env != nullptr && *env != '\0')
            spec = env;
    }
    if (spec.empty())
        return def;
    std::vector<int> out;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const int t = std::atoi(spec.substr(pos, comma - pos).c_str());
        if (t > 0)
            out.push_back(t);
        pos = comma + 1;
    }
    return out.empty() ? def : out;
}

/** Common bench scale. */
struct BenchScale {
    uint64_t records = envOr("PRISM_BENCH_RECORDS", 100000);
    uint64_t ops = envOr("PRISM_BENCH_OPS", 40000);
    int threads = static_cast<int>(envOr("PRISM_BENCH_THREADS", 8));
    int ssds = static_cast<int>(envOr("PRISM_BENCH_SSDS", 4));
    uint32_t value_bytes = 1024;
};

inline FixtureOptions
fixtureFor(const BenchScale &s)
{
    FixtureOptions fx;
    fx.num_ssds = s.ssds;
    fx.dataset_bytes = s.records * s.value_bytes;
    fx.ssd_bytes =
        std::max<uint64_t>(fx.dataset_bytes * 3 / s.ssds, 256 << 20);
    fx.model_timing = true;
    fx.expected_threads = s.threads;
    return fx;
}

/** Build one of the evaluated stores by name. */
inline std::unique_ptr<KvStore>
makeStore(const std::string &which, const FixtureOptions &fx)
{
    if (which == "Prism") {
        core::PrismOptions po;
        po.io_backend = benchBackend();  // "" = sim/$PRISM_IO_BACKEND
        po.shards = benchShards();       // 1 = one-shard store
        po.obs_port = benchObsPort();    // -1 = $PRISM_OBS_PORT, then off
        return std::make_unique<ycsb::PrismStore>(fx, po);
    }
    if (which == "KVell")
        return std::make_unique<ycsb::KvellStore>(fx,
                                                  kvell::KvellOptions{});
    if (which == "MatrixKV")
        return std::make_unique<ycsb::LsmStore>(
            fx, ycsb::LsmFlavor::kMatrixKv, lsm::LsmOptions{});
    if (which == "RocksDB-NVM")
        return std::make_unique<ycsb::LsmStore>(
            fx, ycsb::LsmFlavor::kRocksDbNvm, lsm::LsmOptions{});
    if (which == "RocksDB")
        return std::make_unique<ycsb::LsmStore>(
            fx, ycsb::LsmFlavor::kRocksDbSsd, lsm::LsmOptions{});
    if (which == "SLM-DB")
        return std::make_unique<ycsb::SlmDbStore>(fx,
                                                  lsm::SlmDbOptions{});
    std::fprintf(stderr, "unknown store %s\n", which.c_str());
    std::abort();
}

/** Load the dataset, then run one mix; returns the run result. */
inline RunResult
loadAndRun(KvStore &store, Mix mix, const BenchScale &s, double theta = 0.99)
{
    WorkloadSpec load = WorkloadSpec::forMix(Mix::kLoad, s.records, 0);
    load.value_bytes = s.value_bytes;
    ycsb::loadPhase(store, load, s.threads);
    store.flushAll();
    WorkloadSpec run = WorkloadSpec::forMix(mix, s.records, s.ops, theta);
    run.value_bytes = s.value_bytes;
    return ycsb::runPhase(store, run, s.threads);
}

/** Run one mix against an already-loaded store. */
inline RunResult
runMix(KvStore &store, Mix mix, const BenchScale &s, double theta = 0.99,
       uint64_t ops_override = 0)
{
    WorkloadSpec run = WorkloadSpec::forMix(
        mix, s.records, ops_override ? ops_override : s.ops, theta);
    run.value_bytes = s.value_bytes;
    return ycsb::runPhase(store, run, s.threads);
}

/** Load the full dataset into @p store. */
inline void
loadDataset(KvStore &store, const BenchScale &s, int threads_override = 0)
{
    WorkloadSpec load = WorkloadSpec::forMix(Mix::kLoad, s.records, 0);
    load.value_bytes = s.value_bytes;
    ycsb::loadPhase(store, load,
                    threads_override ? threads_override : s.threads);
    store.flushAll();
}

inline void
printScale(const BenchScale &s)
{
    std::printf("# scale: records=%llu ops=%llu threads=%d ssds=%d "
                "value=%uB\n",
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.ops), s.threads, s.ssds,
                s.value_bytes);
}

inline void
printThroughputRow(const std::string &store, const std::string &workload,
                   const RunResult &r)
{
    std::printf("%-12s %-8s %10.1f Kops/s  (%llu ops in %.2fs)\n",
                store.c_str(), workload.c_str(), r.throughput() / 1e3,
                static_cast<unsigned long long>(r.ops),
                static_cast<double>(r.duration_ns) / 1e9);
    std::fflush(stdout);
}

inline void
printLatencyRow(const std::string &store, const std::string &workload,
                const Histogram &h)
{
    std::printf("%-12s %-8s avg=%8.1fus  p50=%8.1fus  p99=%8.1fus\n",
                store.c_str(), workload.c_str(), h.mean() / 1e3,
                static_cast<double>(h.percentile(0.5)) / 1e3,
                static_cast<double>(h.percentile(0.99)) / 1e3);
    std::fflush(stdout);
}

}  // namespace prism::bench
