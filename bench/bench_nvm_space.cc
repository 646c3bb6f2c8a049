/**
 * @file
 * §7.6 "Size of NVM space": NVM consumed by the Persistent Key Index
 * and the HSIT as the key count grows (the paper reports ~5.4 GB for
 * 100 M keys — about 54 B/key).
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
    maybeTelemetryToFileAtExit(argc, argv);
    std::printf("== NVM space of Key Index + HSIT ==\n");
    for (const uint64_t keys : {50000ull, 100000ull, 200000ull,
                                400000ull}) {
        BenchScale s;
        s.records = keys;
        s.ops = 0;
        FixtureOptions fx = fixtureFor(s);
        fx.model_timing = false;  // space experiment, not timing
        core::PrismOptions opts;
        opts.hsit_capacity = keys * 2;
        ycsb::PrismStore store(fx, opts);
        loadDataset(store, s);
        const uint64_t bytes = store.router().nvmIndexBytes();
        std::printf("%8llu keys: %8.1f MB NVM (%5.1f B/key)\n",
                    static_cast<unsigned long long>(keys),
                    static_cast<double>(bytes) / 1e6,
                    static_cast<double>(bytes) /
                        static_cast<double>(keys));
        std::fflush(stdout);
    }
    return 0;
}
