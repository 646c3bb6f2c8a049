/**
 * @file
 * Figure 16: multicore scalability (client thread sweep) on YCSB A, C
 * and E for Prism, KVell (QD 64 and QD 1) and MatrixKV.
 *
 * Extensions over the paper's figure:
 *  - `--threads=1,2,4,8,16,32,64` (or PRISM_BENCH_THREAD_LIST) sweeps
 *    an arbitrary thread ladder; the default now reaches 16 threads so
 *    the sharded-vs-unsharded comparison is measured where it matters.
 *  - `--shards=N` runs Prism as an N-shard ShardRouter
 *    (src/core/shard_router.h); sharded rows carry a "shards" JSON
 *    field so bench_compare.py never mixes them with unsharded
 *    baselines.
 *  - `--stores=Prism,KVell` / `--mixes=A,C` restrict the sweep when
 *    iterating on one configuration (default: all stores, all mixes).
 *
 * NOTE: this sandbox exposes a single CPU core, so the curves show the
 * I/O-overlap component of scaling only; CPU-bound sections flatten
 * once the core saturates (see EXPERIMENTS.md).
 */
#include "bench_util.h"

using namespace prism;
using namespace prism::bench;

namespace {

// "--stores=Prism,KVell" / "--mixes=A,C" -> the selected subset.
std::vector<std::string>
parseListFlag(int argc, char **argv, std::string_view flag)
{
    std::vector<std::string> out;
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a.size() <= flag.size() || a.substr(0, flag.size()) != flag)
            continue;
        std::string item;
        for (const char c : a.substr(flag.size())) {
            if (c == ',') {
                if (!item.empty())
                    out.push_back(item);
                item.clear();
            } else {
                item.push_back(c);
            }
        }
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

bool
selected(const std::vector<std::string> &list, std::string_view name)
{
    if (list.empty())
        return true;
    for (const auto &s : list)
        if (s == name)
            return true;
    return false;
}

}  // namespace

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    parseBackendFlag(argc, argv);  // --backend={sim,posix,uring,auto}
    parseShardsFlag(argc, argv);   // --shards=N (Prism only)
    parseObsFlag(argc, argv);      // --obs-port=N (Prism only)
    BenchScale base;
    base.ops = envOr("PRISM_BENCH_OPS", 40000) / 2;
    printScale(base);
    std::printf("== Figure 16: throughput vs client threads "
                "(prism backend: %s, shards: %d) ==\n",
                benchBackendName(), benchShards());

    const std::vector<int> thread_counts = parseThreadListFlag(
        argc, argv, "PRISM_BENCH_THREAD_LIST", {1, 2, 4, 8, 16});
    const int max_threads =
        *std::max_element(thread_counts.begin(), thread_counts.end());
    const auto store_filter = parseListFlag(argc, argv, "--stores=");
    const auto mix_filter = parseListFlag(argc, argv, "--mixes=");
    for (const char *name :
         {"Prism", "KVell", "KVell-QD1", "MatrixKV"}) {
        if (!selected(store_filter, name))
            continue;
        FixtureOptions fx = fixtureFor(base);
        // PWB budgets are split per expected thread; size for the
        // widest point of the sweep.
        fx.expected_threads = std::max(base.threads, max_threads);
        std::unique_ptr<KvStore> store;
        if (std::string(name) == "KVell-QD1") {
            kvell::KvellOptions ko;
            ko.queue_depth = 1;
            store = std::make_unique<ycsb::KvellStore>(fx, ko);
        } else {
            store = makeStore(name, fx);
        }
        loadDataset(*store, base);

        const bool sharded_prism =
            std::string(name) == "Prism" && benchShards() > 1;
        for (const Mix mix : {Mix::kA, Mix::kC, Mix::kE}) {
            // mixName() is "YCSB-A"; accept both "A" and "YCSB-A".
            const std::string_view mn = ycsb::mixName(mix);
            if (!selected(mix_filter, mn) &&
                !selected(mix_filter, mn.substr(mn.size() - 1)))
                continue;
            std::printf("%-8s %-10s:", ycsb::mixName(mix), name);
            for (const int threads : thread_counts) {
                BenchScale s = base;
                s.threads = threads;
                const uint64_t ops =
                    mix == Mix::kE ? s.ops / 10 : s.ops;
                const auto snap0 =
                    stats::StatsRegistry::global().snapshot();
                const RunResult r = runMix(*store, mix, s, 0.99, ops);
                const auto snap1 =
                    stats::StatsRegistry::global().snapshot();
                std::printf("  t%d=%8.1fK", threads,
                            r.throughput() / 1e3);
                std::fflush(stdout);
                char row[512];
                std::snprintf(
                    row, sizeof(row),
                    "{\"figure\": \"fig16\", \"store\": \"%s\", "
                    "\"mix\": \"%s\", \"threads\": %d, "
                    "\"kops\": %.1f, \"pwb_stalls\": %llu, "
                    "\"reclaim_dispatches\": %llu, "
                    "\"bg_tasks\": %llu}",
                    name, ycsb::mixName(mix), threads,
                    r.throughput() / 1e3,
                    static_cast<unsigned long long>(snap1.counterDelta(
                        snap0, "prism.pwb.stalls")),
                    static_cast<unsigned long long>(snap1.counterDelta(
                        snap0, "prism.pwb.reclaim_dispatches")),
                    static_cast<unsigned long long>(
                        snap1.counterDelta(snap0, "prism.bg.tasks")));
                // Only Prism is sharded; baseline rows must stay
                // comparable whatever --shards says.
                if (sharded_prism)
                    benchJsonRow(row);
                else
                    benchJsonRowUnsharded(row);
            }
            std::printf("\n");
        }
    }
    return 0;
}
