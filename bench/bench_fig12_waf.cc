/**
 * @file
 * Figure 12: SSD-level write amplification (device bytes written /
 * user bytes written) while updating the full dataset, for 512 B and
 * 1 KB values across Zipfian 0.5 / 0.99 / 1.2 — Prism vs KVell vs
 * MatrixKV.
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
    BenchScale base;
    base.ops = envOr("PRISM_BENCH_OPS", 40000) * 2;  // updates of dataset
    printScale(base);
    std::printf("== Figure 12: SSD-level WAF vs skew ==\n");

    for (const uint32_t value_bytes : {512u, 1024u}) {
        for (const double theta : {0.5, 0.99, 1.2}) {
            for (const char *name : {"Prism", "KVell", "MatrixKV"}) {
                BenchScale s = base;
                s.value_bytes = value_bytes;
                auto store = makeStore(name, fixtureFor(s));
                loadDataset(*store, s);
                store->flushAll();

                const uint64_t ssd0 = store->ssdBytesWritten();
                const uint64_t usr0 = store->userBytesWritten();
                WorkloadSpec run = WorkloadSpec::forMix(
                    Mix::kUpdateOnly, s.records, s.ops, theta);
                run.value_bytes = value_bytes;
                ycsb::runPhase(*store, run, s.threads);
                store->flushAll();
                const uint64_t ssd = store->ssdBytesWritten() - ssd0;
                const uint64_t usr = store->userBytesWritten() - usr0;
                const double waf = usr ? static_cast<double>(ssd) /
                                             static_cast<double>(usr)
                                       : 0.0;
                std::printf("%-10s value=%4uB zipf=%.2f  WAF=%6.2f  "
                            "(ssd=%.1fMB user=%.1fMB)\n",
                            name, value_bytes, theta, waf,
                            static_cast<double>(ssd) / 1e6,
                            static_cast<double>(usr) / 1e6);
                std::fflush(stdout);
                char row[256];
                std::snprintf(
                    row, sizeof(row),
                    "{\"figure\": \"fig12\", \"store\": \"%s\", "
                    "\"value_bytes\": %u, \"zipf\": %.2f, "
                    "\"waf\": %.3f, \"ssd_mb\": %.1f, "
                    "\"user_mb\": %.1f}",
                    name, value_bytes, theta, waf,
                    static_cast<double>(ssd) / 1e6,
                    static_cast<double>(usr) / 1e6);
                benchJsonRow(row);
            }
        }
    }
    return 0;
}
