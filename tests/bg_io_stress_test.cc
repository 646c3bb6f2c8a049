/**
 * @file
 * Stress and crash tests for the background I/O engine (§5.2): the
 * worker pool running concurrent per-PWB reclamation passes, pipelined
 * chunk writes, and per-Value-Storage GC.
 *
 *  - Stress: 8 writers on tiny PWBs force continuous parallel
 *    reclamation while forceGc() rounds overlap from the control
 *    thread; no acked value may be lost or torn.
 *  - Crash injection: crash images are captured while parallel
 *    reclamation is mid-flight (pmem tracking mode); recovery must see
 *    every acked value exactly once, never a torn or duplicated one.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/rand.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

constexpr uint64_t kNvmBytes = 96ull * 1024 * 1024;
constexpr uint64_t kSsdBytes = 128ull * 1024 * 1024;

PrismOptions
stressOptions()
{
    PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;  // tiny: reclamation is constant
    opts.svc_capacity_bytes = 2 * 1024 * 1024;
    opts.hsit_capacity = 64 * 1024;
    opts.chunk_bytes = 64 * 1024;
    opts.bg_workers = 4;
    opts.reclaim_pipeline_depth = 4;
    return opts;
}

struct Rig {
    PrismOptions opts;
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<ShardRouter> db;

    explicit Rig(const PrismOptions &o, int num_ssds, bool tracking,
                 uint64_t ssd_bytes = kSsdBytes)
        : opts(o)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
        if (tracking)
            region->enableTracking();
        for (int i = 0; i < num_ssds; i++) {
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                ssd_bytes, sim::kSamsung980ProProfile, /*timing=*/false));
        }
        db = ShardRouter::open(opts, {{region, {ssds.begin(), ssds.end()}}});
    }
};

std::string
versionedValue(uint64_t key, uint64_t version)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "k%llu.v%llu.",
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(version));
    std::string v(buf);
    v.resize(120, '#');
    return v;
}

int64_t
parseVersion(uint64_t key, const std::string &value)
{
    unsigned long long k = 0, ver = 0;
    if (std::sscanf(value.c_str(), "k%llu.v%llu.", &k, &ver) != 2)
        return -1;
    if (k != key || value != versionedValue(key, ver))
        return -1;
    return static_cast<int64_t>(ver);
}

TEST(BgIoStressTest, ParallelReclaimAndGcNeverLoseValues)
{
    // 8 writers over disjoint ranges; PWBs a fraction of the write
    // volume, so every writer's ring is reclaimed dozens of times by
    // the pool while forceGc() rounds overlap from this thread.
    // SSDs sized so the workload's garbage crosses the GC watermark
    // many times: ~16 MB of relocated records over 4 x 6 MB devices.
    PrismOptions opts = stressOptions();
    opts.vs_gc_watermark = 0.4;  // keep GC busy
    Rig rig(opts, 4, /*tracking=*/false, /*ssd_bytes=*/6ull * 1024 * 1024);

    constexpr int kWriters = 8;
    constexpr uint64_t kKeysPerWriter = 4000;
    constexpr int kRoundsPerWriter = 4;

    const auto before = rig.db->stats();
    std::vector<std::thread> writers;
    std::atomic<bool> stop_gc{false};
    std::thread gc_kicker([&] {
        while (!stop_gc.load(std::memory_order_acquire)) {
            rig.db->forceGc();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    for (int w = 0; w < kWriters; w++) {
        writers.emplace_back([&, w] {
            for (int r = 1; r <= kRoundsPerWriter; r++) {
                for (uint64_t i = 0; i < kKeysPerWriter; i++) {
                    const uint64_t key =
                        static_cast<uint64_t>(w) * kKeysPerWriter + i;
                    ASSERT_TRUE(
                        rig.db
                            ->put(key, versionedValue(
                                           key, static_cast<uint64_t>(r)))
                            .isOk());
                }
            }
        });
    }
    for (auto &t : writers)
        t.join();
    stop_gc.store(true, std::memory_order_release);
    gc_kicker.join();
    rig.db->flushAll();
    rig.db->forceGc();

    // Every key holds its final version — nothing lost, torn, or stale.
    constexpr uint64_t kTotal = kWriters * kKeysPerWriter;
    EXPECT_EQ(rig.db->size(), kTotal);
    std::string v;
    for (uint64_t key = 0; key < kTotal; key++) {
        ASSERT_TRUE(rig.db->get(key, &v).isOk()) << key;
        ASSERT_EQ(parseVersion(key, v), kRoundsPerWriter) << key;
    }

    // The engine demonstrably ran in parallel-dispatch mode.
    const auto after = rig.db->stats();
    EXPECT_GT(after.counterDelta(before, "prism.pwb.reclaim_dispatches"),
              0u);
    EXPECT_GT(after.counterDelta(before, "prism.bg.tasks"), 0u);
    EXPECT_GT(after.counterDelta(before, "prism.vs.gc_passes"), 0u);
    EXPECT_GT(after.counterDelta(before, "prism.pwb.reclaim_passes"), 0u);
}

TEST(BgIoStressTest, CrashMidParallelReclaimRecoversExactlyOnce)
{
    // Writers keep every PWB under reclamation by the pool while crash
    // images are captured mid-flight. GC (chunk recycling) is disabled
    // so the NVM-then-SSD snapshot pair is consistent by append-only-
    // ness; parallel reclamation and pipelined chunk publishes remain
    // fully active. Recovery must surface every acked key exactly once
    // at a version within [acked-at-capture, last-attempted].
    PrismOptions opts = stressOptions();
    opts.vs_gc_watermark = 1.1;  // never recycle chunks
    Rig rig(opts, 4, /*tracking=*/true);

    constexpr int kWriters = 8;
    constexpr uint64_t kKeysPerWriter = 24;
    constexpr uint64_t kTotalKeys = kWriters * kKeysPerWriter;
    // With recycling off, every update consumes Value Storage forever;
    // bound the workload well under the 4 x 128 MB devices (~160 B per
    // record => this budget tops out near 128 MB) so a slow run (TSan,
    // sanitizers) cannot write the store full and abort.
    constexpr uint64_t kMaxPutsPerWriter = 100000;
    std::vector<std::atomic<uint64_t>> acked(kTotalKeys);
    std::vector<std::atomic<uint64_t>> attempted(kTotalKeys);
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
        writers.emplace_back([&, w] {
            Xorshift rng(static_cast<uint64_t>(w) + 7);
            uint64_t version = 0;
            uint64_t puts = 0;
            while (!stop.load(std::memory_order_acquire) &&
                   puts++ < kMaxPutsPerWriter) {
                const uint64_t key =
                    static_cast<uint64_t>(w) * kKeysPerWriter +
                    rng.nextUniform(kKeysPerWriter);
                version++;
                attempted[key].store(version, std::memory_order_release);
                ASSERT_TRUE(
                    rig.db->put(key, versionedValue(key, version)).isOk());
                acked[key].store(version, std::memory_order_release);
            }
        });
    }

    for (int round = 0; round < 4; round++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        std::vector<uint64_t> acked_floor(kTotalKeys);
        for (uint64_t k = 0; k < kTotalKeys; k++)
            acked_floor[k] = acked[k].load(std::memory_order_acquire);

        // NVM durable image first, SSD contents second: a chunk write
        // completing in between is unreferenced by the NVM image.
        std::vector<uint8_t> nvm_img;
        rig.region->snapshotDurableTo(nvm_img);
        std::vector<std::vector<uint8_t>> ssd_imgs(rig.ssds.size());
        for (size_t i = 0; i < rig.ssds.size(); i++)
            rig.ssds[i]->snapshotTo(ssd_imgs[i]);

        std::vector<uint64_t> attempted_ceil(kTotalKeys);
        for (uint64_t k = 0; k < kTotalKeys; k++)
            attempted_ceil[k] = attempted[k].load(std::memory_order_acquire);

        auto nvm2 = std::make_shared<sim::NvmDevice>(
            kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        nvm2->loadImage(nvm_img.data(), nvm_img.size());
        auto region2 =
            std::make_shared<pmem::PmemRegion>(nvm2, /*format=*/false);
        std::vector<std::shared_ptr<sim::SsdDevice>> ssds2;
        for (const auto &img : ssd_imgs) {
            auto d = std::make_shared<sim::SsdDevice>(
                kSsdBytes, sim::kSamsung980ProProfile, /*timing=*/false);
            d->loadFrom(img);
            ssds2.push_back(std::move(d));
        }
        auto recovered = ShardRouter::recover(
            opts, {{region2, {ssds2.begin(), ssds2.end()}}});

        // "Exactly once": a full scan surfaces each recovered key a
        // single time, and point reads agree with the scan.
        std::vector<std::pair<uint64_t, std::string>> scanned;
        ASSERT_TRUE(
            recovered->scan(0, kTotalKeys + 16, &scanned).isOk());
        std::map<uint64_t, int> seen;
        for (const auto &[k, val] : scanned)
            seen[k]++;
        for (const auto &[k, n] : seen)
            ASSERT_EQ(n, 1) << "key " << k << " recovered " << n
                            << " times (round " << round << ")";
        ASSERT_EQ(scanned.size(), recovered->size());

        for (uint64_t k = 0; k < kTotalKeys; k++) {
            std::string v;
            const Status st = recovered->get(k, &v);
            if (acked_floor[k] == 0) {
                if (st.isOk()) {
                    EXPECT_GE(parseVersion(k, v), 1) << "key " << k;
                }
                continue;
            }
            ASSERT_TRUE(st.isOk())
                << "round " << round << " key " << k << " lost ("
                << st.toString() << ")";
            ASSERT_EQ(seen.count(k), 1u) << "key " << k;
            const int64_t ver = parseVersion(k, v);
            ASSERT_GE(ver, 1) << "torn value, key " << k;
            EXPECT_GE(static_cast<uint64_t>(ver), acked_floor[k])
                << "lost acked write, key " << k;
            EXPECT_LE(static_cast<uint64_t>(ver), attempted_ceil[k] + 1)
                << "fabricated version, key " << k;
        }
    }
    stop.store(true, std::memory_order_release);
    for (auto &t : writers)
        t.join();
}

}  // namespace
}  // namespace prism::core
