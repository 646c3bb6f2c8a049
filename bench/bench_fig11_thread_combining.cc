/**
 * @file
 * Figure 11: opportunistic thread combining (TC) vs timeout-based
 * asynchronous I/O (TA) for Value Storage reads, sweeping the queue
 * depth 1..64 on YCSB-C. The SVC is shrunk so reads actually hit the
 * SSD, which is what the batching policies arbitrate.
 *
 * With PRISM_BENCH_JSON set, each (side, QD) point is one row:
 * throughput, p50/p99 latency and the combine ratio (Value Storage
 * reads per device submission).
 */
#include "bench_util.h"

using namespace prism;
using namespace prism::bench;

namespace {

void
runSide(const char *label, core::ReadBatchMode mode, const BenchScale &s)
{
    for (const int qd : {1, 2, 4, 8, 16, 32, 64}) {
        core::PrismOptions opts;
        opts.read_batch_mode = mode;
        opts.read_queue_depth = qd;
        // The experiment measures the Value Storage read path: no DRAM
        // cache, so every lookup reaches the SSD.
        opts.enable_svc = false;

        FixtureOptions fx = fixtureFor(s);
        fx.derive_prism_budgets = false;
        opts.pwb_size_bytes = 8 << 20;
        ycsb::PrismStore store(fx, opts);
        loadDataset(store, s);
        const auto snap0 = stats::StatsRegistry::global().snapshot();
        const RunResult r = runMix(store, Mix::kC, s);
        const auto snap1 = stats::StatsRegistry::global().snapshot();
        const uint64_t batches =
            snap1.counterDelta(snap0, "prism.tcq.batches");
        const double combine =
            batches == 0 ? 0.0
                         : static_cast<double>(snap1.counterDelta(
                               snap0, "prism.tcq.requests")) /
                               static_cast<double>(batches);
        const double p50 =
            static_cast<double>(r.overall.percentile(0.5)) / 1e3;
        const double p99 =
            static_cast<double>(r.overall.percentile(0.99)) / 1e3;
        std::printf("%-4s QD=%-3d %9.1f Kops/s  avg=%7.1fus p50=%7.1fus "
                    "p99=%7.1fus combine=%5.2f\n",
                    label, qd, r.throughput() / 1e3,
                    r.overall.mean() / 1e3, p50, p99, combine);
        char row[256];
        std::snprintf(row, sizeof(row),
                      "{\"figure\": \"fig11_thread_combining\", "
                      "\"row\": \"%s qd=%d\", \"threads\": %d, "
                      "\"kops\": %.1f, \"p50_us\": %.1f, "
                      "\"p99_us\": %.1f, \"combine_ratio\": %.2f}",
                      label, qd, s.threads, r.throughput() / 1e3, p50, p99,
                      combine);
        benchJsonRow(row);
        std::fflush(stdout);
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    BenchScale s;
    s.records = envOr("PRISM_BENCH_RECORDS", 100000) / 2;
    s.ops = envOr("PRISM_BENCH_OPS", 40000) / 2;
    printScale(s);
    std::printf("== Figure 11: thread combining (TC) vs timeout async "
                "(TA), YCSB-C ==\n");
    runSide("TC", core::ReadBatchMode::kThreadCombining, s);
    runSide("TA", core::ReadBatchMode::kTimeoutAsync, s);
    return 0;
}
