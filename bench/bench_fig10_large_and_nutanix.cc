/**
 * @file
 * Figure 10: (a) YCSB on a dataset several times larger than the main
 * runs (the paper's 1-billion-key experiment, scaled), Prism vs KVell;
 * (b) the Nutanix production mix (57% update / 41% read / 2% scan).
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
    s.records = envOr("PRISM_BENCH_RECORDS", 100000) * 4;  // "1B" scale-up
    printScale(s);
    std::printf("== Figure 10a: large dataset, Prism vs KVell ==\n");

    for (const char *name : {"Prism", "KVell"}) {
        auto store = makeStore(name, fixtureFor(s));
        loadDataset(*store, s);
        for (const Mix mix :
             {Mix::kA, Mix::kB, Mix::kC, Mix::kD, Mix::kE}) {
            const uint64_t ops = mix == Mix::kE ? s.ops / 10 : s.ops;
            const RunResult r = runMix(*store, mix, s, 0.99, ops);
            printThroughputRow(name, ycsb::mixName(mix), r);
        }
        std::printf("== Figure 10b: Nutanix production mix ==\n");
        const RunResult r = runMix(*store, Mix::kNutanix, s);
        printThroughputRow(name, "Nutanix", r);
    }
    return 0;
}
