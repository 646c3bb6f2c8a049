/**
 * @file
 * Figure 13: throughput vs number of aggregated SSDs (1, 2, 4, 8) for
 * write-intensive YCSB-A and read-intensive YCSB-C, Prism vs KVell.
 */
#include "bench_util.h"

using namespace prism;
using namespace prism::bench;

namespace {

/**
 * The 1-core sandbox cannot generate enough IOPS to saturate a
 * full-speed 980 Pro, which would make device count irrelevant. We
 * scale per-device bandwidth down ~100x, preserving the paper
 * testbed's bandwidth:CPU ratio (~7 GB/s x 8 SSDs : 40 cores), so the
 * bandwidth-vs-device-count tradeoff plays out at reachable op rates.
 */
prism::sim::DeviceProfile
scaledSsdProfile()
{
    prism::sim::DeviceProfile p = prism::sim::kSamsung980ProProfile;
    p.name = "ssd-980pro-scaled";
    p.read_bw_bytes_per_sec /= 100;
    p.write_bw_bytes_per_sec /= 100;
    p.internal_parallelism = 8;
    return p;
}

}  // namespace

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    BenchScale base;
    printScale(base);
    std::printf("== Figure 13: throughput vs #SSDs ==\n");

    for (const Mix mix : {Mix::kA, Mix::kC}) {
        for (const char *name : {"Prism", "KVell"}) {
            std::printf("%-8s %-6s:", ycsb::mixName(mix), name);
            for (const int n : {1, 2, 4, 8}) {
                BenchScale s = base;
                s.ssds = n;
                FixtureOptions fx = fixtureFor(s);
                fx.ssd_profile = scaledSsdProfile();
                auto store = makeStore(name, fx);
                loadDataset(*store, s);
                const RunResult r = runMix(*store, mix, s);
                std::printf("  %dssd=%8.1fK", n, r.throughput() / 1e3);
                std::fflush(stdout);
            }
            std::printf("\n");
        }
    }
    return 0;
}
