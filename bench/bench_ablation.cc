/**
 * @file
 * §7.6 "Impact of individual techniques": ablates Prism's design
 * choices one at a time —
 *
 *   full           everything on (baseline)
 *   no-svc         Scan-aware Value Cache disabled
 *   no-scan-reorg  SVC on, scan-range reorganisation off
 *   no-combining   reads submitted one by one (QD 1, no TCQ)
 *   timeout-async  TA batching instead of thread combining
 *   small-chunks   4 KB Value Storage chunks instead of 512 KB
 *                  (ablates the asynchronous bandwidth-optimized write)
 */
#include "bench_util.h"

using namespace prism;
using namespace prism::bench;

namespace {

struct Variant {
    const char *name;
    core::PrismOptions opts;
};

}  // namespace

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    BenchScale s;
    s.ops = envOr("PRISM_BENCH_OPS", 40000) / 2;
    printScale(s);
    std::printf("== Ablation of Prism's techniques (LOAD/A/C/E) ==\n");

    std::vector<Variant> variants;
    variants.push_back({"full", {}});
    {
        core::PrismOptions o;
        o.enable_svc = false;
        variants.push_back({"no-svc", o});
    }
    {
        core::PrismOptions o;
        o.enable_scan_reorg = false;
        variants.push_back({"no-scan-reorg", o});
    }
    {
        core::PrismOptions o;
        o.read_batch_mode = core::ReadBatchMode::kNone;
        variants.push_back({"no-combining", o});
    }
    {
        core::PrismOptions o;
        o.read_batch_mode = core::ReadBatchMode::kTimeoutAsync;
        variants.push_back({"timeout-async", o});
    }
    {
        core::PrismOptions o;
        o.chunk_bytes = 4 * 1024;
        variants.push_back({"small-chunks", o});
    }

    // Single-core run-to-run variance is large; average several
    // repetitions of each mix on the same loaded store.
    constexpr int kReps = 3;
    auto mean_tput = [&](KvStore &store, Mix mix, const BenchScale &bs,
                         uint64_t ops) {
        double sum = 0;
        for (int rep = 0; rep < kReps; rep++)
            sum += runMix(store, mix, bs, 0.99, ops).throughput();
        return sum / kReps;
    };

    for (auto &v : variants) {
        FixtureOptions fx = fixtureFor(s);
        ycsb::PrismStore store(fx, v.opts);
        WorkloadSpec load = WorkloadSpec::forMix(Mix::kLoad, s.records, 0);
        load.value_bytes = s.value_bytes;
        const RunResult lr = ycsb::loadPhase(store, load, s.threads);
        store.flushAll();
        const double a = mean_tput(store, Mix::kA, s, s.ops);
        const double c = mean_tput(store, Mix::kC, s, s.ops);
        const double e = mean_tput(store, Mix::kE, s, s.ops / 10);
        std::printf("%-14s LOAD=%8.1fK  A=%8.1fK  C=%8.1fK  E=%7.1fK\n",
                    v.name, lr.throughput() / 1e3, a / 1e3, c / 1e3,
                    e / 1e3);
        std::fflush(stdout);
    }
    return 0;
}
