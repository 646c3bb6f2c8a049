/**
 * @file
 * Figure 7: YCSB throughput of Prism vs KVell vs MatrixKV vs
 * RocksDB-NVM (LOAD, A, B, C, D in ops/s; E in scans/s).
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
    // The paper runs as many operations as there are records.
    s.ops = envOr("PRISM_BENCH_OPS", s.records);
    printScale(s);
    std::printf("== Figure 7: YCSB throughput (Zipfian 0.99) ==\n");

    for (const char *name :
         {"Prism", "KVell", "MatrixKV", "RocksDB-NVM"}) {
        auto store = makeStore(name, fixtureFor(s));

        // LOAD: time the insert phase itself.
        WorkloadSpec load = WorkloadSpec::forMix(Mix::kLoad, s.records, 0);
        load.value_bytes = s.value_bytes;
        const RunResult loaded = ycsb::loadPhase(*store, load, s.threads);
        printThroughputRow(name, "LOAD", loaded);
        store->flushAll();

        for (const Mix mix :
             {Mix::kA, Mix::kB, Mix::kC, Mix::kD, Mix::kE}) {
            // Workload E issues fewer, much heavier operations.
            const uint64_t ops = mix == Mix::kE ? s.ops / 10 : s.ops;
            const RunResult r = runMix(*store, mix, s, 0.99, ops);
            printThroughputRow(name, ycsb::mixName(mix), r);
        }
    }
    return 0;
}
