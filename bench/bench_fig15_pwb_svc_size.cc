/**
 * @file
 * Figure 15: (a) throughput vs Persistent Write Buffer size on LOAD and
 * YCSB-A; (b) lookup/scan throughput vs Scan-aware Value Cache size on
 * YCSB-C and YCSB-E. Sizes are scaled from the paper's 1-16 GB (PWB)
 * and 4-20 GB (SVC) to the reduced dataset.
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
    printScale(s);
    const uint64_t mb = 1 << 20;

    std::printf("== Figure 15a: throughput vs PWB size (per thread) ==\n");
    for (const unsigned long long pwb_mb : {1ull, 2ull, 4ull, 8ull, 16ull}) {
        core::PrismOptions opts;
        opts.pwb_size_bytes = pwb_mb * mb;
        FixtureOptions fx = fixtureFor(s);
        fx.derive_prism_budgets = false;

        {
            ycsb::PrismStore store(fx, opts);
            WorkloadSpec load =
                WorkloadSpec::forMix(Mix::kLoad, s.records, 0);
            load.value_bytes = s.value_bytes;
            const RunResult lr = ycsb::loadPhase(store, load, s.threads);
            std::printf("PWB=%2lluMB LOAD   %9.1f Kops/s\n", pwb_mb,
                        lr.throughput() / 1e3);
            std::fflush(stdout);
            const RunResult ar = runMix(store, Mix::kA, s);
            std::printf("PWB=%2lluMB YCSB-A %9.1f Kops/s\n", pwb_mb,
                        ar.throughput() / 1e3);
            std::fflush(stdout);
        }
    }

    std::printf("== Figure 15b: throughput vs SVC size ==\n");
    const uint64_t dataset = s.records * s.value_bytes;
    for (const unsigned long long pct : {4ull, 8ull, 12ull, 16ull, 20ull}) {
        core::PrismOptions opts;
        opts.svc_capacity_bytes =
            std::max<uint64_t>(dataset * pct / 100, 1 * mb);
        opts.pwb_size_bytes = 8 * mb;
        FixtureOptions fx = fixtureFor(s);
        fx.derive_prism_budgets = false;
        ycsb::PrismStore store(fx, opts);
        loadDataset(store, s);
        const RunResult cr = runMix(store, Mix::kC, s);
        const RunResult er =
            runMix(store, Mix::kE, s, 0.99, s.ops / 10);
        std::printf("SVC=%2llu%%  YCSB-C %9.1f Kops/s   YCSB-E %7.1f "
                    "Kops/s\n",
                    pct, cr.throughput() / 1e3, er.throughput() / 1e3);
        std::fflush(stdout);
    }
    return 0;
}
