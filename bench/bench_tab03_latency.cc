/**
 * @file
 * Table 3: operation latency (average / median / 99th percentile) for
 * YCSB A, C and E across Prism, KVell, MatrixKV and RocksDB-NVM.
 *
 * Slow-op capture (docs/OBSERVABILITY.md, "Tracing") runs alongside:
 * Prism ops slower than PRISM_BENCH_SLOWOP_US (default 2000 us) are
 * captured with their span trees, and the per-mix capture count rides
 * on each JSON row — tail latency in the table, attribution in
 * `prism_cli slowops` / the trace dump.
 */
#include "bench_util.h"
#include "common/trace.h"

using namespace prism;
using namespace prism::bench;

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    BenchScale s;
    printScale(s);
    std::printf("== Table 3: latency (us) for YCSB A / C / E ==\n");

    auto &tracer = trace::TraceRegistry::global();
    const uint64_t slow_us = envOr("PRISM_BENCH_SLOWOP_US", 2000);
    tracer.setSlowOpThresholdUs(slow_us);

    for (const char *name :
         {"Prism", "KVell", "MatrixKV", "RocksDB-NVM"}) {
        auto store = makeStore(name, fixtureFor(s));
        loadDataset(*store, s);
        for (const Mix mix : {Mix::kA, Mix::kC, Mix::kE}) {
            const uint64_t ops = mix == Mix::kE ? s.ops / 10 : s.ops;
            const uint64_t slow_before = tracer.slowOpsCaptured();
            const RunResult r = runMix(*store, mix, s, 0.99, ops);
            // Only Prism's op paths carry OpScope instrumentation, so
            // the delta is 0 for the baseline stores.
            const uint64_t slow =
                tracer.slowOpsCaptured() - slow_before;
            printLatencyRow(name, ycsb::mixName(mix), r.overall);
            char row[320];
            std::snprintf(
                row, sizeof(row),
                "{\"figure\":\"tab03\",\"store\":\"%s\","
                "\"workload\":\"%s\",\"avg_us\":%.1f,\"p50_us\":%.1f,"
                "\"p90_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f,"
                "\"slow_ops\":%llu,\"slow_threshold_us\":%llu}",
                name, ycsb::mixName(mix),
                r.overall.mean() / 1e3,
                static_cast<double>(r.overall.percentile(0.5)) / 1e3,
                static_cast<double>(r.overall.percentile(0.9)) / 1e3,
                static_cast<double>(r.overall.percentile(0.99)) / 1e3,
                static_cast<double>(r.overall.percentile(0.999)) / 1e3,
                static_cast<unsigned long long>(slow),
                static_cast<unsigned long long>(slow_us));
            benchJsonRow(row);
        }
    }
    std::printf("# slow ops captured (>%llu us): %llu; inspect with "
                "prism_cli slowops or a --trace dump\n",
                static_cast<unsigned long long>(slow_us),
                static_cast<unsigned long long>(
                    tracer.slowOpsCaptured()));
    return 0;
}
