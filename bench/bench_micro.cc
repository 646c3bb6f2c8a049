/**
 * @file
 * google-benchmark microbenchmarks for the individual components:
 * PacTree operations, HSIT durable pointer updates, PWB appends,
 * workload generators and the latency histogram. Device timing is
 * disabled — these measure the software paths themselves.
 */
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "core/hsit.h"
#include "core/pwb.h"
#include "index/pactree.h"
#include "pmem/pmem_allocator.h"
#include "sim/device_profile.h"

namespace prism {
namespace {

struct PmemFixture {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::unique_ptr<pmem::PmemRegion> region;
    std::unique_ptr<pmem::PmemAllocator> alloc;

    explicit PmemFixture(uint64_t bytes = 512ull << 20)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            bytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_unique<pmem::PmemRegion>(nvm, true);
        alloc = std::make_unique<pmem::PmemAllocator>(*region);
    }
};

void
BM_PacTreeInsert(benchmark::State &state)
{
    PmemFixture fx;
    auto tree = index::PacTree::create(*fx.region, *fx.alloc);
    uint64_t i = 0;
    for (auto _ : state) {
        tree->insertOrGet(hash64(i), i);
        i++;
    }
    state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_PacTreeInsert);

void
BM_PacTreeLookup(benchmark::State &state)
{
    PmemFixture fx;
    auto tree = index::PacTree::create(*fx.region, *fx.alloc);
    constexpr uint64_t kKeys = 200000;
    for (uint64_t i = 0; i < kKeys; i++)
        tree->insertOrGet(hash64(i), i);
    Xorshift rng(7);
    uint64_t found = 0;
    for (auto _ : state) {
        const auto r = tree->lookup(hash64(rng.nextUniform(kKeys)));
        found += r.has_value();
    }
    benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_PacTreeLookup);

void
BM_PacTreeScan50(benchmark::State &state)
{
    PmemFixture fx;
    auto tree = index::PacTree::create(*fx.region, *fx.alloc);
    constexpr uint64_t kKeys = 200000;
    for (uint64_t i = 0; i < kKeys; i++)
        tree->insertOrGet(hash64(i), i);
    Xorshift rng(7);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (auto _ : state) {
        out.clear();
        tree->scan(rng.next(), 50, out);
    }
}
BENCHMARK(BM_PacTreeScan50);

void
BM_HsitDurableCas(benchmark::State &state)
{
    PmemFixture fx;
    auto hsit = core::Hsit::create(*fx.region, *fx.alloc, 1024);
    const uint64_t idx = hsit->allocEntry();
    uint64_t off = 64;
    for (auto _ : state) {
        const core::ValueAddr old = hsit->loadPrimary(idx);
        hsit->casPrimaryDurable(idx, old,
                                core::ValueAddr::pwb(off, 64));
        off += 64;
        if (off > (1 << 20))
            off = 64;
    }
}
BENCHMARK(BM_HsitDurableCas);

void
BM_PwbAppend1K(benchmark::State &state)
{
    PmemFixture fx;
    auto pwb = core::Pwb::create(*fx.region, *fx.alloc, 64ull << 20);
    std::string value(1024, 'v');
    uint64_t key = 0;
    for (auto _ : state) {
        core::ValueAddr a = pwb->append(key % 512, key, value.data(),
                                        static_cast<uint32_t>(
                                            value.size()));
        pwb->markPublished();
        if (a.isNull()) {
            // Recycle the whole buffer; appends outside timing scope.
            state.PauseTiming();
            pwb->advanceHead(pwb->tailLogical());
            state.ResumeTiming();
        }
        key++;
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            1024);
}
BENCHMARK(BM_PwbAppend1K);

void
BM_ZipfianNext(benchmark::State &state)
{
    ZipfianGenerator zipf(100000000, 0.99, 3);
    uint64_t x = 0;
    for (auto _ : state)
        x += zipf.next();
    benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_ZipfianNext);

void
BM_HistogramRecord(benchmark::State &state)
{
    Histogram h;
    Xorshift rng(5);
    for (auto _ : state)
        h.record(rng.nextUniform(1000000));
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace
}  // namespace prism

// Custom main (vs BENCHMARK_MAIN()): peel off the bench_util flags
// (--stats, --trace=, --telemetry=, --profile=) before
// google-benchmark rejects them as unrecognized.
int
main(int argc, char **argv)
{
    prism::bench::maybeDumpStatsAtExit(argc, argv);
    prism::bench::maybeTraceToFileAtExit(argc, argv);
    prism::bench::maybeProfileToFileAtExit(argc, argv);
    prism::bench::maybeTelemetryToFileAtExit(argc, argv);
    std::vector<char *> args;
    for (int i = 0; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a != "--stats" && a != "--stats=json" &&
            a.rfind("--trace=", 0) != 0 &&
            a.rfind("--telemetry=", 0) != 0 &&
            a.rfind("--profile=", 0) != 0)
            args.push_back(argv[i]);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
