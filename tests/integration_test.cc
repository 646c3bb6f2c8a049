/**
 * @file
 * Cross-cutting integration tests: device-model conformance against
 * the Figure-1 profiles, recovery interacting with GC-compacted state,
 * HSIT entry reuse across delete/insert cycles, and API edge cases.
 */
#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "ycsb/driver.h"
#include "ycsb/stores.h"

namespace prism {
namespace {

// ---------------------------------------------------------------------------
// Device model conformance

TEST(DeviceModelTest, SsdLatencyTracksProfile)
{
    // A lone 4 KB read on an idle device should complete near the
    // profile's media latency (plus small model overheads).
    sim::SsdDevice dev(64 << 20, sim::kSamsung980ProProfile, true);
    std::vector<uint8_t> buf(4096);
    Histogram lat;
    for (int i = 0; i < 20; i++) {
        const uint64_t t0 = nowNs();
        ASSERT_TRUE(dev.readSync(static_cast<uint64_t>(i) * 4096,
                                 buf.data(), 4096)
                        .isOk());
        lat.record(nowNs() - t0);
    }
    // 50 us profile latency; allow up to 4x for scheduler noise.
    EXPECT_GE(lat.percentile(0.5), 45 * 1000u);
    EXPECT_LE(lat.percentile(0.5), 200 * 1000u);
}

TEST(DeviceModelTest, SsdBandwidthIsBounded)
{
    // Pushing far more than the device's write bandwidth must take at
    // least bytes / bandwidth wall time.
    sim::DeviceProfile slow = sim::kSamsung980ProProfile;
    slow.write_bw_bytes_per_sec = 100e6;  // 100 MB/s for a fast test
    sim::SsdDevice dev(256 << 20, slow, true);
    std::vector<uint8_t> chunk(1 << 20, 7);
    const uint64_t t0 = nowNs();
    constexpr int kChunks = 30;  // 30 MB at 100 MB/s => >= 300 ms
    std::vector<sim::SsdCompletion> done;
    for (int i = 0; i < kChunks; i++) {
        sim::SsdIoRequest req;
        req.op = sim::SsdIoRequest::Op::kWrite;
        req.offset = static_cast<uint64_t>(i) << 20;
        req.length = 1 << 20;
        req.src = chunk.data();
        req.user_data = static_cast<uint64_t>(i) + 1;
        ASSERT_TRUE(dev.submit(req).isOk());
    }
    while (done.size() < kChunks)
        dev.waitCompletions(done, kChunks, 2000);
    const double secs = static_cast<double>(nowNs() - t0) / 1e9;
    // The token bucket grants an 8 MB burst; the remaining ~22 MB must
    // be paced at 100 MB/s.
    EXPECT_GE(secs, 0.2);  // bandwidth cap enforced
    EXPECT_LE(secs, 3.0);
}

TEST(DeviceModelTest, NvmReadScalesWithTimeScale)
{
    sim::NvmDevice dev(1 << 20, sim::kOptaneDcpmmProfile, true);
    const uint64_t t0 = nowNs();
    for (int i = 0; i < 200; i++)
        dev.chargeRead(64);
    const uint64_t full = nowNs() - t0;

    TimeScale::set(0.25);
    const uint64_t t1 = nowNs();
    for (int i = 0; i < 200; i++)
        dev.chargeRead(64);
    const uint64_t quarter = nowNs() - t1;
    TimeScale::set(1.0);
    // 200 x 300 ns = 60 us at full scale; the scaled run must be
    // clearly cheaper.
    EXPECT_GT(full, quarter);
    EXPECT_GE(full, 55 * 1000u);
}

// ---------------------------------------------------------------------------
// Store integration

struct Rig {
    core::PrismOptions opts;
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<core::ShardRouter> db;

    explicit Rig(core::PrismOptions o = {},
                 uint64_t ssd_bytes = 128ull << 20)
        : opts(o)
    {
        opts.hsit_capacity = 64 * 1024;
        opts.chunk_bytes = 64 * 1024;
        nvm = std::make_shared<sim::NvmDevice>(
            128ull << 20, sim::kOptaneDcpmmProfile, false);
        region = std::make_shared<pmem::PmemRegion>(nvm, true);
        for (int i = 0; i < 2; i++) {
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                ssd_bytes, sim::kSamsung980ProProfile, false));
        }
        db = core::ShardRouter::open(opts, backends());
    }

    std::vector<core::ShardBackends>
    backends() const
    {
        return {{region, {ssds.begin(), ssds.end()}}};
    }

    void
    restart()
    {
        db.reset();
        db = core::ShardRouter::recover(opts, backends());
    }
};

TEST(IntegrationTest, RecoveryAfterGcCompaction)
{
    core::PrismOptions opts;
    opts.pwb_size_bytes = 512 * 1024;
    // Small Value Storages so churn actually crosses the GC watermark.
    Rig rig(opts, 4ull << 20);
    const auto before = rig.db->stats();
    // Churn so GC relocates surviving values, then recover: the
    // recovered bitmaps/pointers must reflect the *moved* locations.
    for (int round = 0; round < 20; round++) {
        for (uint64_t k = 0; k < 3000; k++) {
            ASSERT_TRUE(rig.db
                            ->put(k, "r" + std::to_string(round) + "k" +
                                         std::to_string(k) +
                                         std::string(300, 'g'))
                            .isOk());
        }
        rig.db->flushAll();
    }
    rig.db->forceGc();
    ASSERT_GT(rig.db->stats().counterDelta(before, "prism.vs.gc_passes"),
              0u);

    rig.restart();
    EXPECT_EQ(rig.db->size(), 3000u);
    std::string v;
    for (uint64_t k = 0; k < 3000; k += 7) {
        ASSERT_TRUE(rig.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v.substr(0, 3), "r19");
    }
    // Post-recovery writes and GC must keep working.
    for (uint64_t k = 0; k < 500; k++)
        ASSERT_TRUE(rig.db->put(k, "post").isOk());
    rig.db->flushAll();
    ASSERT_TRUE(rig.db->get(100, &v).isOk());
    EXPECT_EQ(v, "post");
}

TEST(IntegrationTest, HsitEntriesRecycleAcrossDeleteCycles)
{
    Rig rig;
    core::PrismDb &shard = rig.db->shard(0);
    const uint64_t before = shard.hsit().liveCount();
    for (int cycle = 0; cycle < 30; cycle++) {
        for (uint64_t k = 0; k < 500; k++)
            ASSERT_TRUE(rig.db->put(k, "c" + std::to_string(cycle))
                            .isOk());
        for (uint64_t k = 0; k < 500; k++)
            ASSERT_TRUE(rig.db->del(k).isOk());
        shard.epochs().drain();
    }
    // Entries must be recycled, not leaked: live count returns to
    // baseline and the table never needed more than one generation.
    EXPECT_EQ(rig.db->size(), 0u);
    EXPECT_LE(shard.hsit().liveCount(), before + 500);
}

TEST(IntegrationTest, RecoveryPreservesFreeEntryBudget)
{
    Rig rig;
    for (uint64_t k = 0; k < 2000; k++)
        ASSERT_TRUE(rig.db->put(k, "x").isOk());
    for (uint64_t k = 0; k < 2000; k += 2)
        ASSERT_TRUE(rig.db->del(k).isOk());
    rig.restart();
    // The rebuilt free list must allow reusing every unreachable entry:
    // filling back up must not exhaust the table.
    for (uint64_t k = 10000; k < 10000 + 60000; k++)
        ASSERT_TRUE(rig.db->put(k, "y").isOk()) << k;
    EXPECT_EQ(rig.db->size(), 1000u + 60000u);
}

TEST(IntegrationTest, MultiGetEdgeCases)
{
    Rig rig;
    std::vector<std::optional<std::string>> out;
    // Empty batch.
    ASSERT_TRUE(rig.db->multiGet({}, &out).isOk());
    EXPECT_TRUE(out.empty());

    ASSERT_TRUE(rig.db->put(5, "five").isOk());
    rig.db->flushAll();
    // Duplicate keys are each answered; missing keys stay nullopt.
    ASSERT_TRUE(rig.db->multiGet({5, 5, 6, 5}, &out).isOk());
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(*out[0], "five");
    EXPECT_EQ(*out[1], "five");
    EXPECT_FALSE(out[2].has_value());
    EXPECT_EQ(*out[3], "five");
}

TEST(IntegrationTest, ConcurrentMixedWorkloadStaysConsistent)
{
    core::PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;
    Rig rig(opts);
    // Writers own disjoint ranges with monotone versions; readers and
    // scanners verify monotonicity throughout.
    constexpr int kWriters = 2;
    constexpr uint64_t kRange = 400;
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; w++) {
        threads.emplace_back([&, w] {
            uint64_t version = 0;
            while (!stop.load()) {
                for (uint64_t k = 0; k < kRange; k++) {
                    const uint64_t key =
                        static_cast<uint64_t>(w) * 10000 + k;
                    rig.db->put(key, std::to_string(version) + "|" +
                                         std::string(120, 'm'));
                }
                version++;
            }
        });
    }
    threads.emplace_back([&] {
        Xorshift rng(3);
        std::string v;
        std::vector<std::pair<uint64_t, std::string>> out;
        while (!stop.load()) {
            const uint64_t key = rng.nextUniform(2) * 10000 +
                                 rng.nextUniform(kRange);
            const Status st = rig.db->get(key, &v);
            if (st.isOk()) {
                ASSERT_NE(v.find('|'), std::string::npos);
            }
            rig.db->scan(key, 5, &out);
            for (const auto &[k2, v2] : out)
                ASSERT_NE(v2.find('|'), std::string::npos) << k2;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    stop.store(true);
    for (auto &t : threads)
        t.join();
}

// ---------------------------------------------------------------------------
// Metrics registry consistency (docs/OBSERVABILITY.md)

TEST(IntegrationTest, RegistryStaysConsistentAcrossYcsbRun)
{
    ycsb::FixtureOptions fx;
    fx.num_ssds = 2;
    fx.dataset_bytes = 8ull << 20;
    fx.ssd_bytes = 64ull << 20;
    fx.model_timing = false;
    ycsb::PrismStore store(fx, core::PrismOptions{});

    constexpr uint64_t kRecords = 2000;
    constexpr uint32_t kValueBytes = 512;
    const auto start = stats::StatsRegistry::global().snapshot();

    ycsb::WorkloadSpec load =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kLoad, kRecords, 0);
    load.value_bytes = kValueBytes;
    ycsb::loadPhase(store, load, 2);
    store.flushAll();

    const auto before = stats::StatsRegistry::global().snapshot();
    ycsb::WorkloadSpec run =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kA, kRecords, 4000, 0.99);
    run.value_bytes = kValueBytes;
    ycsb::runPhase(store, run, 2);
    store.flushAll();
    const auto after = stats::StatsRegistry::global().snapshot();

    // YCSB A has no scans and every key was loaded, so each get is
    // classified as exactly one of SVC hit or SVC miss.
    const uint64_t gets = after.counterDelta(before, "prism.gets");
    EXPECT_GT(gets, 0u);
    EXPECT_EQ(after.counterDelta(before, "prism.svc.hits") +
                  after.counterDelta(before, "prism.svc.misses"),
              gets);
    EXPECT_GT(after.counterDelta(before, "prism.svc.hits"), 0u);
    EXPECT_GT(after.counterDelta(before, "prism.pwb.appends"), 0u);

    // The devices must have absorbed at least the live dataset: after
    // flushAll every live value has been written to SSD once or more.
    EXPECT_GE(after.counterDelta(start, "sim.ssd.bytes_written"),
              kRecords * kValueBytes);

    // The driver folded its phase histograms into the registry.
    const stats::MetricSnapshot *load_lat =
        after.histogram("ycsb.load.latency_ns");
    ASSERT_NE(load_lat, nullptr);
    EXPECT_GE(load_lat->count, kRecords);
    const stats::MetricSnapshot *run_lat =
        after.histogram("ycsb.run.latency_ns");
    ASSERT_NE(run_lat, nullptr);
    EXPECT_GT(run_lat->count, 0u);
}

// ---------------------------------------------------------------------------
// Cross-layer tracing (docs/OBSERVABILITY.md, "Tracing")

TEST(IntegrationTest, YcsbTraceCoversLayersAndNestsChunkWrites)
{
    auto &tracer = trace::TraceRegistry::global();
    tracer.clear();

    ycsb::FixtureOptions fx;
    fx.num_ssds = 2;
    fx.dataset_bytes = 8ull << 20;
    fx.ssd_bytes = 64ull << 20;
    fx.model_timing = false;
    core::PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;  // force reclaim passes
    tracer.setEnabled(true);
    ycsb::PrismStore store(fx, opts);

    constexpr uint64_t kRecords = 2000;
    ycsb::WorkloadSpec load =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kLoad, kRecords, 0);
    load.value_bytes = 512;
    ycsb::loadPhase(store, load, 2);
    store.flushAll();
    ycsb::WorkloadSpec run =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kA, kRecords, 4000, 0.99);
    run.value_bytes = 512;
    ycsb::runPhase(store, run, 2);
    store.flushAll();
    tracer.setEnabled(false);

    // The PR 3 acceptance check: spans from >= 4 layers, and at least
    // one PWB reclaim pass whose per-chunk writes nest inside it
    // ((ts, dur) containment on the same thread — exactly what the
    // Perfetto view draws as parent/child).
    const uint32_t reclaim_id = tracer.internName("pwb.reclaim_pass");
    const uint32_t chunk_id = tracer.internName("pwb.chunk_write");
    bool core = false, pwb = false, svc = false, ssd = false;
    uint64_t reclaim_passes = 0;
    bool nested_chunk = false;
    for (const auto &[tid, evs] : tracer.snapshotAll()) {
        std::vector<std::pair<uint64_t, uint64_t>> passes;
        for (const auto &e : evs) {
            if (e.type == trace::EventType::kSpan &&
                e.name_id == reclaim_id)
                passes.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
        }
        reclaim_passes += passes.size();
        for (const auto &e : evs) {
            if (e.type != trace::EventType::kSpan)
                continue;
            const std::string n = tracer.nameOf(e.name_id);
            core |= n.rfind("prism.", 0) == 0;
            pwb |= n.rfind("pwb.", 0) == 0;
            svc |= n.rfind("svc.", 0) == 0;
            ssd |= n.rfind("ssd.", 0) == 0;
            if (e.name_id == chunk_id) {
                for (const auto &[s, t] : passes) {
                    nested_chunk |=
                        e.ts_ns >= s && e.ts_ns + e.dur_ns <= t;
                }
            }
        }
    }
    EXPECT_TRUE(core) << "no prism.* op spans";
    EXPECT_TRUE(pwb) << "no pwb.* spans";
    EXPECT_TRUE(svc) << "no svc.* spans";
    EXPECT_TRUE(ssd) << "no ssd.* spans";
    EXPECT_GE(reclaim_passes, 1u);
    EXPECT_TRUE(nested_chunk)
        << "no pwb.chunk_write span nested in a pwb.reclaim_pass";

    // And the dump itself is a Chrome-trace JSON object.
    const std::string json = tracer.exportJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("pwb.reclaim_pass"), std::string::npos);
}

}  // namespace
}  // namespace prism
