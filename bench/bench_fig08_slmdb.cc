/**
 * @file
 * Figure 8 + Table 4: Prism vs SLM-DB, single-threaded (the
 * open-source SLM-DB has no multi-threading, §7.4). As in the paper,
 * Prism is constrained to a 64 MB SVC and 64 MB PWB for fairness, and
 * the dataset is smaller than the main experiments'.
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
    s.records = envOr("PRISM_BENCH_RECORDS", 100000) / 2;
    s.ops = envOr("PRISM_BENCH_OPS", 40000) / 2;
    s.threads = 1;
    printScale(s);
    std::printf("== Figure 8 / Table 4: Prism vs SLM-DB "
                "(single-threaded) ==\n");

    FixtureOptions fx = fixtureFor(s);
    fx.expected_threads = 1;

    for (const char *name : {"Prism", "SLM-DB"}) {
        std::unique_ptr<KvStore> store;
        if (std::string(name) == "Prism") {
            core::PrismOptions opts;
            opts.pwb_size_bytes = 64ull << 20;   // §7.4 fairness config
            opts.svc_capacity_bytes = 64ull << 20;
            FixtureOptions pfx = fx;
            pfx.derive_prism_budgets = false;
            auto prism_store =
                std::make_unique<ycsb::PrismStore>(pfx, opts);
            store = std::move(prism_store);
        } else {
            store = makeStore(name, fx);
        }

        WorkloadSpec load = WorkloadSpec::forMix(Mix::kLoad, s.records, 0);
        load.value_bytes = s.value_bytes;
        const RunResult loaded = ycsb::loadPhase(*store, load, 1);
        printThroughputRow(name, "LOAD", loaded);
        store->flushAll();

        for (const Mix mix :
             {Mix::kA, Mix::kB, Mix::kC, Mix::kD, Mix::kE}) {
            const uint64_t ops = mix == Mix::kE ? s.ops / 10 : s.ops;
            const RunResult r = runMix(*store, mix, s, 0.99, ops);
            printThroughputRow(name, ycsb::mixName(mix), r);
            if (mix == Mix::kA || mix == Mix::kC || mix == Mix::kE)
                printLatencyRow(name, ycsb::mixName(mix), r.overall);
        }
    }
    return 0;
}
