/**
 * @file
 * Figure 9: relative throughput under varying data skew (Zipfian
 * coefficient 0.5 .. 1.5, normalized to 0.99) for all five stores.
 *
 * Prism's PWB+SVC make it *improve* with skew; the shared-nothing
 * KVell degrades (load imbalance across hash-partitioned workers);
 * the LSM stores improve (memtable/block-cache hits).
 */
#include "bench_util.h"

using namespace prism;
using namespace prism::bench;

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    BenchScale s;
    s.ops = envOr("PRISM_BENCH_OPS", 40000) / 2;
    printScale(s);
    std::printf("== Figure 9: throughput vs Zipfian coefficient "
                "(normalized to 0.99) ==\n");

    const double thetas[] = {0.5, 0.9, 0.99, 1.2, 1.5};
    for (const char *name :
         {"Prism", "KVell", "MatrixKV", "RocksDB-NVM", "SLM-DB"}) {
        const bool single = std::string(name) == "SLM-DB";
        BenchScale ls = s;
        if (single) {
            ls.records = s.records / 4;
            ls.ops = s.ops / 8;
            ls.threads = 1;
        }
        FixtureOptions fx = fixtureFor(ls);
        fx.expected_threads = ls.threads;
        auto store = makeStore(name, fx);
        loadDataset(*store, ls);

        for (const Mix mix : {Mix::kA, Mix::kC, Mix::kE}) {
            double base = 0;
            std::printf("%-12s %-8s", name, ycsb::mixName(mix));
            for (const double theta : thetas) {
                const uint64_t ops =
                    mix == Mix::kE ? ls.ops / 10 : ls.ops;
                const RunResult r = runMix(*store, mix, ls, theta, ops);
                if (theta == 0.99)
                    base = r.throughput();
                std::printf("  z%.2f=%8.1fK", theta,
                            r.throughput() / 1e3);
                std::fflush(stdout);
            }
            std::printf("   (0.99 base %.1fK)\n", base / 1e3);
        }
    }
    std::printf("# note: relative values = column / z0.99 column\n");
    return 0;
}
