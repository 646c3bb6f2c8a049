/**
 * @file
 * google-benchmark microbenchmarks for the individual components:
 * PacTree operations, HSIT durable pointer updates, PWB appends,
 * workload generators, the latency histogram, and the simulated SSD's
 * lone-read path. Device timing is disabled except in BM_SsdLoneRead,
 * which measures what the timed device itself costs a caller.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "core/hsit.h"
#include "core/pwb.h"
#include "index/pactree.h"
#include "pmem/pmem_allocator.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

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

/** The @p q quantile of @p v, in microseconds (reorders @p v). */
double
quantileUs(std::vector<uint64_t> &v, double q)
{
    const auto k = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return static_cast<double>(v[k]) / 1e3;
}

/**
 * Single 1 KB reads into a timed 980 Pro device, paced at 10 K/s, while
 * a reaper thread blocks in waitCompletions: the way the RESP loop
 * issues Value Storage misses and the VS completion thread reaps them.
 * Counters, in µs: submit() p50/p90, submit-to-reap p50, and the
 * completions' own latency_ns p50 (device_p50_us). Compare the submit
 * cost with SsdDevice::kSubmitOverheadNs, and the latencies with the
 * profile's 50 µs read latency.
 */
void
BM_SsdLoneRead(benchmark::State &state)
{
    constexpr uint64_t kGapNs = 100000;  // 10 K reads/s
    sim::SsdDevice dev(64ull << 20);
    const auto n = static_cast<size_t>(state.max_iterations);
    std::vector<uint64_t> submit_ns(n), issued_at(n), device_ns(n);
    std::vector<std::atomic<uint64_t>> reaped_at(n);
    std::atomic<bool> stop{false};
    std::thread reaper([&] {
        std::vector<io::IoCompletion> done;
        while (!stop.load(std::memory_order_acquire)) {
            done.clear();
            dev.waitCompletions(done, 16, 1000);
            const uint64_t now = nowNs();
            for (const auto &c : done) {
                device_ns[c.user_data] = c.latency_ns;
                reaped_at[c.user_data].store(now, std::memory_order_release);
            }
        }
    });

    std::vector<uint8_t> buf(1024);
    io::IoRequest req;
    req.op = io::IoRequest::Op::kRead;
    req.length = static_cast<uint32_t>(buf.size());
    req.buf = buf.data();
    size_t i = 0;
    uint64_t next = nowNs();
    for (auto _ : state) {
        const uint64_t now = nowNs();
        if (next > now)
            std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
        next += kGapNs;
        req.offset = (i % 4096) * 4096;
        req.user_data = i;
        const uint64_t t0 = nowNs();
        if (!dev.submit(req).isOk()) {
            state.SkipWithError("submit failed");
            break;
        }
        submit_ns[i] = nowNs() - t0;
        issued_at[i++] = t0;
    }
    for (size_t k = 0; k < i; k++) {
        while (reaped_at[k].load(std::memory_order_acquire) == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
    reaper.join();

    std::vector<uint64_t> reap_ns(i);
    for (size_t k = 0; k < i; k++)
        reap_ns[k] = reaped_at[k].load() - issued_at[k];
    submit_ns.resize(i);
    device_ns.resize(i);
    state.counters["submit_p50_us"] = quantileUs(submit_ns, 0.5);
    state.counters["submit_p90_us"] = quantileUs(submit_ns, 0.9);
    state.counters["reap_p50_us"] = quantileUs(reap_ns, 0.5);
    state.counters["device_p50_us"] = quantileUs(device_ns, 0.5);
}
BENCHMARK(BM_SsdLoneRead)->Iterations(20000)->UseRealTime();

}  // namespace
}  // namespace prism

// Custom main (vs BENCHMARK_MAIN()): peel off the bench_util flags
// (--stats, --trace=, --profile=) before
// google-benchmark rejects them as unrecognized.
int
main(int argc, char **argv)
{
    prism::bench::maybeDumpStatsAtExit(argc, argv);
    prism::bench::maybeTraceToFileAtExit(argc, argv);
    prism::bench::maybeProfileToFileAtExit(argc, argv);
    std::vector<char *> args;
    for (int i = 0; i < argc; i++) {
        const std::string_view a = argv[i];
        if (a != "--stats" && a != "--stats=json" &&
            a.rfind("--trace=", 0) != 0 &&
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
