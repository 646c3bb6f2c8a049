/**
 * @file
 * Figure 14: YCSB-C latency (average / median / p99) vs number of
 * SSDs, Prism vs KVell. Prism's thread combining keeps latency low
 * even with few devices, where KVell's deeper batching pays in tail.
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
    std::printf("== Figure 14: YCSB-C latency vs #SSDs ==\n");

    for (const char *name : {"Prism", "KVell"}) {
        for (const int n : {1, 2, 4, 8}) {
            BenchScale s = base;
            s.ssds = n;
            FixtureOptions fx = fixtureFor(s);
            fx.ssd_profile = scaledSsdProfile();
            auto store = makeStore(name, fx);
            loadDataset(*store, s);
            const RunResult r = runMix(*store, Mix::kC, s);
            std::printf("%-6s %dssd  avg=%8.1fus  p50=%8.1fus  "
                        "p99=%8.1fus\n",
                        name, n, r.overall.mean() / 1e3,
                        static_cast<double>(r.overall.percentile(0.5)) /
                            1e3,
                        static_cast<double>(r.overall.percentile(0.99)) /
                            1e3);
            std::fflush(stdout);
        }
    }
    return 0;
}
