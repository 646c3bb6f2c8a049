/**
 * @file
 * §7.6 "Recovery time": Prism vs KVell after a crash with a loaded
 * dataset. Prism walks the Persistent Key Index and re-couples the
 * HSIT; KVell must scan every slab page on every SSD to rebuild its
 * in-memory indexes.
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
    std::printf("== Recovery time after crash ==\n");

    {
        FixtureOptions fx = fixtureFor(s);
        core::PrismOptions opts;
        ycsb::PrismStore store(fx, opts);
        loadDataset(store, s);
        const uint64_t ns = store.crashAndRecover(opts);
        std::printf("Prism : %8.1f ms (recovered %zu keys)\n",
                    static_cast<double>(ns) / 1e6, store.router().size());
    }
    {
        FixtureOptions fx = fixtureFor(s);
        ycsb::KvellStore store(fx, kvell::KvellOptions{});
        loadDataset(store, s);
        const uint64_t ns = store.db().recoverByFullScan();
        std::printf("KVell : %8.1f ms (recovered %zu keys)\n",
                    static_cast<double>(ns) / 1e6, store.db().size());
    }
    return 0;
}
