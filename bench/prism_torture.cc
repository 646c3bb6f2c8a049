/**
 * @file
 * Crash-torture harness (docs/FAULTS.md).
 *
 * Seeded loop of torture iterations, each a fresh store driven by a
 * mixed workload under a randomized fault schedule drawn from the seed:
 *
 *  - crash iterations: GC is disabled (append-only SSD state), a crash
 *    image is captured the instant a randomly-armed pmem flush/fence
 *    site fires mid-run, the store is recovered from that image and the
 *    full invariants are checked — no lost acked writes, no torn or
 *    fabricated values, size()/get()/scan() agreement;
 *
 *  - degradation iterations: injected SSD errors, chunk-write faults,
 *    bg-task faults and a mid-run device dropout run against the full
 *    put/get/del/scan/multiGet mix, with an SVC and a GC watermark
 *    small enough that scan reorganisation and GC both run under them;
 *    after the faults clear, the store must contain exactly the
 *    expected map.
 *
 * On failure it prints the --seed and the armed fault schedule (the
 * repro recipe) and writes repro.txt, stats.json and trace.json to the
 * artifacts directory. Usage:
 *
 *   prism_torture --seed=1234 --iters=200        # deterministic run
 *   prism_torture --smoke                        # seconds-scale sweep
 *   prism_torture --minutes=20 --seed=$(date +%Y%m%d)   # nightly soak
 *   prism_torture --shards=4 --seed=7            # N-shard ShardRouter
 *
 * `--shards=N` (power of two) runs every iteration against an N-shard
 * core::ShardRouter instead of a one-shard one: each shard gets its
 * own tracked NVM region and SSD slice, the crash image spans all
 * shards, and recovery replays the shards sequentially — so a given
 * (--seed, --shards) pair replays deterministically, byte-identical
 * stdout included.
 */
#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/obs_server.h"
#include "common/rand.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

using namespace prism;

namespace {

constexpr uint64_t kNvmBytes = 96ull * 1024 * 1024;
constexpr uint64_t kSsdBytes = 128ull * 1024 * 1024;

struct TortureConfig {
    uint64_t seed = 1;
    int iters = 20;
    int minutes = 0;  ///< when > 0, loop until this much wall time
    uint64_t ops = 20000;
    uint64_t keys = 512;
    int shards = 1;  ///< > 1 tortures an N-shard ShardRouter
    std::string artifacts = "torture-artifacts";
    /** CI self-check: abort() mid-iteration while faults are armed, so
     *  the crash handlers' postmortem can be asserted on. */
    bool selftest_crash = false;
};

struct IterationContext {
    int iter = 0;
    uint64_t iter_seed = 0;
    std::string schedule;  ///< armed fault schedule, repro syntax
};

TortureConfig g_cfg;
IterationContext g_ctx;

[[noreturn]] void
fail(const char *fmt, ...)
{
    std::fprintf(stderr, "\nTORTURE FAILURE (iteration %d)\n", g_ctx.iter);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr,
                 "\nrepro: prism_torture --seed=%" PRIu64
                 " --iters=%d --ops=%" PRIu64 " --keys=%" PRIu64
                 " --shards=%d\n"
                 "iteration seed: %" PRIu64 "\nfault schedule: %s\n",
                 g_cfg.seed, g_ctx.iter + 1, g_cfg.ops, g_cfg.keys,
                 g_cfg.shards, g_ctx.iter_seed,
                 g_ctx.schedule.empty() ? "(none)" : g_ctx.schedule.c_str());

    // Artifact bundle for the CI uploader (and for humans).
    std::error_code ec;
    std::filesystem::create_directories(g_cfg.artifacts, ec);
    if (!ec) {
        std::ofstream repro(g_cfg.artifacts + "/repro.txt");
        repro << "seed=" << g_cfg.seed << "\niteration=" << g_ctx.iter
              << "\niteration_seed=" << g_ctx.iter_seed
              << "\nops=" << g_cfg.ops << "\nkeys=" << g_cfg.keys
              << "\nshards=" << g_cfg.shards
              << "\nschedule=" << g_ctx.schedule << "\n";
        std::ofstream stats(g_cfg.artifacts + "/stats.json");
        stats << stats::StatsRegistry::global().snapshot().toJson()
              << "\n";
        trace::TraceRegistry::global().exportJsonToFile(
            g_cfg.artifacts + "/trace.json");
        std::fprintf(stderr, "artifacts written to %s/\n",
                     g_cfg.artifacts.c_str());
    }
    // Full black-box bundle (stats + trace + slow ops + armed fault
    // schedule + log tail) next to the classic artifacts.
    obs::writePostmortem(g_cfg.artifacts, "torture check failed");
    std::exit(1);
}

#define TORTURE_CHECK(cond, ...)                                         \
    do {                                                                 \
        if (!(cond))                                                     \
            fail(__VA_ARGS__);                                           \
    } while (0)

std::string
makeValue(uint64_t key, uint64_t version)
{
    std::string v = "v" + std::to_string(key) + "." +
                    std::to_string(version) + ".";
    v.resize(64 + (key % 96), 'x');  // mixed sizes, deterministic
    return v;
}

/** Parse "v<key>.<version>." and validate shape; -1 when torn. */
int64_t
parseVersion(uint64_t key, const std::string &v)
{
    unsigned long long k = 0, ver = 0;
    if (std::sscanf(v.c_str(), "v%llu.%llu.", &k, &ver) != 2 || k != key)
        return -1;
    if (v != makeValue(key, ver))
        return -1;
    return static_cast<int64_t>(ver);
}

core::PrismOptions
tortureOptions()
{
    core::PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;
    opts.hsit_capacity = 32 * 1024;
    opts.chunk_bytes = 64 * 1024;
    opts.svc_capacity_bytes = 4 * 1024 * 1024;
    return opts;
}

/**
 * Torture rig: a ShardRouter over --shards shards (1 by default), each
 * shard with its own NVM region and @p ssds_per_shard devices. The
 * flat `ssds` list is shard-major so snapshot/dropout code can ignore
 * sharding.
 */
struct Rig {
    core::PrismOptions opts;
    std::vector<std::shared_ptr<sim::NvmDevice>> nvms;
    std::vector<std::shared_ptr<pmem::PmemRegion>> regions;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    int ssds_per_shard = 0;
    std::unique_ptr<core::ShardRouter> db;

    Rig(const core::PrismOptions &o, int num_ssds, bool tracked)
        : opts(o), ssds_per_shard(num_ssds)
    {
        opts.shards = g_cfg.shards;
        std::vector<core::ShardBackends> backends;
        for (int s = 0; s < g_cfg.shards; s++) {
            nvms.push_back(std::make_shared<sim::NvmDevice>(
                kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false));
            regions.push_back(std::make_shared<pmem::PmemRegion>(
                nvms.back(), /*format=*/true));
            if (tracked)
                regions.back()->enableTracking();
            std::vector<std::shared_ptr<sim::SsdDevice>> shard_ssds;
            for (int i = 0; i < num_ssds; i++) {
                shard_ssds.push_back(std::make_shared<sim::SsdDevice>(
                    kSsdBytes, sim::kSamsung980ProProfile,
                    /*timing=*/false));
                ssds.push_back(shard_ssds.back());
            }
            backends.push_back(
                {regions.back(), {shard_ssds.begin(), shard_ssds.end()}});
        }
        db = core::ShardRouter::open(opts, std::move(backends));
    }
};

/**
 * Draw a random transient-fault schedule for this iteration. Low
 * probabilities: the retry paths must absorb them without surfacing
 * errors to the strict post-fault verification.
 */
void
armTransientFaults(Xorshift &rng, const Rig &rig)
{
    auto &freg = fault::FaultRegistry::global();
    for (const auto &ssd : rig.ssds) {
        const std::string dev = "ssd." + std::to_string(ssd->deviceNumber());
        if (rng.nextUniform(2) == 0) {
            fault::FaultSpec s;
            s.trigger = fault::Trigger::kProbability;
            s.probability = 0.002 + rng.nextDouble() * 0.008;
            freg.arm(dev + ".io_error", s);
        }
        if (rng.nextUniform(2) == 0) {
            fault::FaultSpec s;
            s.trigger = fault::Trigger::kProbability;
            s.probability = 0.01;
            s.payload = 100'000 + rng.nextUniform(400'000);  // ns spike
            freg.arm(dev + ".latency", s);
        }
    }
    if (rng.nextUniform(2) == 0) {
        fault::FaultSpec s;
        s.trigger = fault::Trigger::kProbability;
        s.probability = 0.01 + rng.nextDouble() * 0.04;
        freg.arm("pwb.chunk_write", s);
    }
    if (rng.nextUniform(2) == 0) {
        fault::FaultSpec s;
        s.trigger = fault::Trigger::kProbability;
        s.probability = 0.05;
        freg.arm("bg.task", s);
    }
}

/**
 * Crash iteration: puts-only workload on tracked NVM with GC disabled
 * (append-only SSDs), crash image captured at a randomly-placed armed
 * pmem site, recovery verified against the acked/attempted bounds.
 */
void
runCrashIteration(Xorshift &rng)
{
    core::PrismOptions opts = tortureOptions();
    opts.vs_gc_watermark = 1.1;  // append-only: mid-run capture is safe
    const int num_ssds = 1 + static_cast<int>(rng.nextUniform(3));
    Rig rig(opts, num_ssds, /*tracked=*/true);

    const uint64_t keys = g_cfg.keys;
    std::vector<std::atomic<uint64_t>> acked(keys);
    std::vector<std::atomic<uint64_t>> attempted(keys);
    std::vector<uint64_t> acked_floor(keys, 0);
    std::vector<std::vector<uint8_t>> nvm_imgs(rig.regions.size());
    std::vector<std::vector<uint8_t>> ssd_imgs(rig.ssds.size());
    std::atomic<bool> captured{false};

    auto &freg = fault::FaultRegistry::global();
    const auto capture = [&](uint64_t) {
        if (captured.exchange(true))
            return;
        // Capture-and-continue crash model: every shard's NVM durable
        // image is snapped first; with append-only SSDs, any SSD write
        // landing after it is unreferenced by those images.
        for (uint64_t k = 0; k < keys; k++)
            acked_floor[k] = acked[k].load(std::memory_order_acquire);
        for (size_t s = 0; s < rig.regions.size(); s++)
            rig.regions[s]->snapshotDurableTo(nvm_imgs[s]);
        for (size_t i = 0; i < rig.ssds.size(); i++)
            rig.ssds[i]->snapshotTo(ssd_imgs[i]);
    };
    const char *crash_site =
        rng.nextUniform(2) == 0 ? "pmem.flush" : "pmem.fence";
    freg.onFire(crash_site, capture);
    fault::FaultSpec crash_at;
    crash_at.trigger = fault::Trigger::kNth;
    // Land the crash somewhere in the middle of the run: every put
    // flushes at least once, so ops/2 flush hits sit well inside it.
    crash_at.n = 1 + rng.nextUniform(g_cfg.ops / 2);
    freg.arm(crash_site, crash_at);
    armTransientFaults(rng, rig);
    g_ctx.schedule = freg.scheduleString();

    uint64_t version = 0;
    for (uint64_t i = 0; i < g_cfg.ops; i++) {
        const uint64_t key = rng.nextUniform(keys);
        version++;
        attempted[key].store(version, std::memory_order_release);
        const Status st = rig.db->put(key, makeValue(key, version));
        TORTURE_CHECK(st.isOk(), "put(%" PRIu64 ") failed: %s", key,
                      st.toString().c_str());
        acked[key].store(version, std::memory_order_release);
    }
    if (g_cfg.selftest_crash) {
        // Deliberate crash *before* disarmAll() so the postmortem's
        // faults.txt carries a non-empty, replayable schedule.
        std::fprintf(stderr, "selftest-crash: aborting on purpose\n");
        std::abort();
    }
    freg.disarmAll();
    TORTURE_CHECK(captured.load(), "crash site %s never fired",
                  crash_site);

    // Rebuild every shard's devices from the crash image and recover
    // the whole router (shards replay sequentially, in shard order).
    opts.shards = g_cfg.shards;
    std::vector<core::ShardBackends> backends2;
    for (size_t s = 0; s < nvm_imgs.size(); s++) {
        auto nvm2 = std::make_shared<sim::NvmDevice>(
            kNvmBytes, sim::kOptaneDcpmmProfile, false);
        nvm2->loadImage(nvm_imgs[s].data(), nvm_imgs[s].size());
        auto region2 = std::make_shared<pmem::PmemRegion>(nvm2, false);
        std::vector<std::shared_ptr<sim::SsdDevice>> ssds2;
        for (int i = 0; i < rig.ssds_per_shard; i++) {
            auto d = std::make_shared<sim::SsdDevice>(
                kSsdBytes, sim::kSamsung980ProProfile, false);
            d->loadFrom(ssd_imgs[s * static_cast<size_t>(
                                         rig.ssds_per_shard) +
                                 static_cast<size_t>(i)]);
            ssds2.push_back(std::move(d));
        }
        backends2.push_back({region2, {ssds2.begin(), ssds2.end()}});
    }
    auto recovered = core::ShardRouter::recover(opts, backends2);

    // Invariants: acked-before-crash survives, nothing torn, nothing
    // from the future, and the read paths agree with each other.
    size_t present = 0;
    for (uint64_t k = 0; k < keys; k++) {
        std::string v;
        const Status st = recovered->get(k, &v);
        if (st.isOk())
            present++;
        if (acked_floor[k] == 0)
            continue;
        TORTURE_CHECK(st.isOk(), "lost acked key %" PRIu64 " (floor %"
                      PRIu64 "): %s", k, acked_floor[k],
                      st.toString().c_str());
        const int64_t ver = parseVersion(k, v);
        TORTURE_CHECK(ver >= 0, "torn value for key %" PRIu64, k);
        TORTURE_CHECK(static_cast<uint64_t>(ver) >= acked_floor[k],
                      "lost acked write: key %" PRIu64 " ver %" PRId64
                      " < floor %" PRIu64, k, ver, acked_floor[k]);
        TORTURE_CHECK(static_cast<uint64_t>(ver) <=
                          attempted[k].load(std::memory_order_acquire),
                      "fabricated version: key %" PRIu64 " ver %" PRId64,
                      k, ver);
    }
    TORTURE_CHECK(recovered->size() == present,
                  "size() %zu disagrees with get() sweep %zu",
                  recovered->size(), present);

    std::vector<std::pair<uint64_t, std::string>> scanned;
    const Status sst = recovered->scan(0, keys, &scanned);
    TORTURE_CHECK(sst.isOk(), "scan failed: %s", sst.toString().c_str());
    TORTURE_CHECK(scanned.size() == present,
                  "scan() %zu disagrees with get() sweep %zu",
                  scanned.size(), present);
    for (const auto &[k, sv] : scanned) {
        std::string gv;
        const Status st = recovered->get(k, &gv);
        TORTURE_CHECK(st.isOk() && sv == gv,
                      "scan/get disagree on key %" PRIu64, k);
    }

    // The recovered store must remain writable.
    const Status wst = recovered->put(0, makeValue(0, version + 1));
    TORTURE_CHECK(wst.isOk(), "recovered store rejected a put: %s",
                  wst.toString().c_str());
}

/**
 * Degradation iteration: full op mix under transient faults plus a
 * mid-run SSD dropout; after faults clear and a flush, the store must
 * match the expected map exactly.
 */
void
runDegradationIteration(Xorshift &rng)
{
    core::PrismOptions opts = tortureOptions();
    // Relocation writers under the faults: a PWB small enough that most
    // values live on the SSDs, an SVC that evicts scanned ranges (so
    // they are reorganised) and GC whenever a chunk is in use.
    opts.pwb_size_bytes = 64 * 1024;
    opts.svc_capacity_bytes = 1024;
    opts.vs_gc_watermark = 0.0;
    const int num_ssds = 2 + static_cast<int>(rng.nextUniform(2));
    Rig rig(opts, num_ssds, /*tracked=*/false);
    const auto before = stats::StatsRegistry::global().snapshot();
    auto &freg = fault::FaultRegistry::global();
    armTransientFaults(rng, rig);
    g_ctx.schedule = freg.scheduleString();

    const uint64_t keys = g_cfg.keys;
    std::map<uint64_t, uint64_t> expected;
    const uint64_t dropout_at = g_cfg.ops / 3;
    const uint64_t dropout_until = 2 * g_cfg.ops / 3;
    const size_t dropout_dev = rng.nextUniform(rig.ssds.size());

    uint64_t version = 0;
    for (uint64_t i = 0; i < g_cfg.ops; i++) {
        if (i == dropout_at)
            rig.ssds[dropout_dev]->setDropout(true);
        if (i == dropout_until)
            rig.ssds[dropout_dev]->setDropout(false);
        const uint64_t key = rng.nextUniform(keys);
        const uint32_t dice = rng.nextUniform(100);
        if (dice < 70) {
            version++;
            const Status st = rig.db->put(key, makeValue(key, version));
            TORTURE_CHECK(st.isOk(), "put failed: %s",
                          st.toString().c_str());
            expected[key] = version;
        } else if (dice < 80) {
            const Status st = rig.db->del(key);
            const bool expect_hit = expected.erase(key) > 0;
            TORTURE_CHECK(st.isOk() == expect_hit,
                          "del(%" PRIu64 ") surprising status %s", key,
                          st.toString().c_str());
        } else if (dice < 92) {
            std::string v;
            const Status st = rig.db->get(key, &v);
            const auto it = expected.find(key);
            // Injected I/O errors may surface here; only *wrong data*
            // or a consistency break is a failure mid-faults.
            if (st.isOk()) {
                TORTURE_CHECK(it != expected.end(),
                              "get returned a deleted key %" PRIu64, key);
                TORTURE_CHECK(v == makeValue(key, it->second),
                              "get returned wrong value for %" PRIu64,
                              key);
            } else if (st.isNotFound()) {
                TORTURE_CHECK(it == expected.end(),
                              "acked key %" PRIu64 " not found", key);
            }
        } else if (dice < 96) {
            std::vector<std::pair<uint64_t, std::string>> out;
            (void)rig.db->scan(key, 16, &out);  // may hit injected errors
        } else {
            std::vector<uint64_t> batch;
            for (int j = 0; j < 8; j++)
                batch.push_back(rng.nextUniform(keys));
            std::vector<std::optional<std::string>> out;
            (void)rig.db->multiGet(batch, &out);
        }
    }
    rig.ssds[dropout_dev]->setDropout(false);
    freg.disarmAll();
    rig.db->flushAll();
    const auto after = stats::StatsRegistry::global().snapshot();
    for (const char *moved : {"prism.svc.scan_reorgs", "prism.vs.gc_passes"})
        TORTURE_CHECK(after.counterDelta(before, moved) > 0,
                      "%s did not move", moved);

    // Strict verification with the faults gone.
    TORTURE_CHECK(rig.db->size() == expected.size(),
                  "size() %zu != expected %zu", rig.db->size(),
                  expected.size());
    for (const auto &[k, ver] : expected) {
        std::string v;
        const Status st = rig.db->get(k, &v);
        TORTURE_CHECK(st.isOk(), "lost key %" PRIu64 ": %s", k,
                      st.toString().c_str());
        TORTURE_CHECK(v == makeValue(k, ver),
                      "wrong value for key %" PRIu64, k);
    }
    std::vector<std::pair<uint64_t, std::string>> scanned;
    const Status sst = rig.db->scan(0, keys, &scanned);
    TORTURE_CHECK(sst.isOk(), "scan failed: %s", sst.toString().c_str());
    TORTURE_CHECK(scanned.size() == expected.size(),
                  "scan() %zu != expected %zu", scanned.size(),
                  expected.size());
}

}  // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const auto num = [&](const char *prefix) -> std::optional<uint64_t> {
            if (arg.rfind(prefix, 0) != 0)
                return std::nullopt;
            return std::stoull(arg.substr(std::strlen(prefix)));
        };
        if (arg == "--smoke") {
            g_cfg.iters = 4;
            g_cfg.ops = 4000;
            g_cfg.keys = 256;
        } else if (auto v = num("--seed=")) {
            g_cfg.seed = *v;
        } else if (auto v = num("--iters=")) {
            g_cfg.iters = static_cast<int>(*v);
        } else if (auto v = num("--minutes=")) {
            g_cfg.minutes = static_cast<int>(*v);
        } else if (auto v = num("--ops=")) {
            g_cfg.ops = *v;
        } else if (auto v = num("--keys=")) {
            g_cfg.keys = *v;
        } else if (auto v = num("--shards=")) {
            g_cfg.shards = static_cast<int>(*v);
        } else if (arg.rfind("--artifacts=", 0) == 0) {
            g_cfg.artifacts = arg.substr(std::strlen("--artifacts="));
        } else if (arg == "--selftest-crash") {
            g_cfg.selftest_crash = true;
        } else {
            std::fprintf(stderr,
                         "usage: prism_torture [--seed=S] [--iters=N] "
                         "[--minutes=M] [--ops=N] [--keys=N] "
                         "[--shards=N] [--artifacts=DIR] [--smoke] "
                         "[--selftest-crash]\n");
            return 2;
        }
    }
    if (g_cfg.shards < 1 || g_cfg.shards > 256 ||
        (g_cfg.shards & (g_cfg.shards - 1)) != 0) {
        std::fprintf(stderr,
                     "prism_torture: --shards must be a power of two "
                     "in [1, 256]\n");
        return 2;
    }

    // Keep the trace ring live so a failure can export its last events.
    trace::TraceRegistry::global().setEnabled(true);
    // Any SIGSEGV/SIGABRT/uncaught exception leaves a black-box bundle
    // in the artifacts directory (common/obs_server.h).
    obs::installCrashHandlers(g_cfg.artifacts);

    std::printf("prism_torture: seed=%" PRIu64 " iters=%d minutes=%d "
                "ops=%" PRIu64 " keys=%" PRIu64 " shards=%d\n",
                g_cfg.seed, g_cfg.iters, g_cfg.minutes, g_cfg.ops,
                g_cfg.keys, g_cfg.shards);
    const uint64_t t0 = nowNs();
    int iter = 0;
    while (true) {
        if (g_cfg.minutes > 0) {
            const uint64_t elapsed_min = (nowNs() - t0) / 60'000'000'000ull;
            if (elapsed_min >= static_cast<uint64_t>(g_cfg.minutes))
                break;
        } else if (iter >= g_cfg.iters) {
            break;
        }
        g_ctx.iter = iter;
        g_ctx.iter_seed = hash64(g_cfg.seed ^ hash64(iter + 1));
        g_ctx.schedule.clear();
        fault::FaultRegistry::global().disarmAll();
        fault::FaultRegistry::global().setSeed(g_ctx.iter_seed);
        Xorshift rng(g_ctx.iter_seed);

        const bool crash_iter = iter % 2 == 0;
        if (crash_iter)
            runCrashIteration(rng);
        else
            runDegradationIteration(rng);
        std::printf("  iter %3d (%s) ok  [schedule: %s]\n", iter,
                    crash_iter ? "crash" : "degrade",
                    g_ctx.schedule.empty() ? "none"
                                           : g_ctx.schedule.c_str());
        std::fflush(stdout);
        iter++;
    }
    // stdout is the deterministic replay record (same seed → identical
    // bytes); timing and concurrency-dependent totals go to stderr.
    std::printf("prism_torture: %d iterations passed\n", iter);
    std::fprintf(stderr, "elapsed %.1f s, %" PRIu64 " fault fires\n",
                 static_cast<double>(nowNs() - t0) / 1e9,
                 stats::StatsRegistry::global()
                     .counter("prism.fault.fired")
                     .value());
    return 0;
}
