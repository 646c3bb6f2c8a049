/**
 * @file
 * Stress and crash tests for the background I/O engine (§5.2): the
 * worker pool running concurrent per-PWB reclamation passes, pipelined
 * chunk writes, and per-Value-Storage GC.
 *
 *  - Stress: 8 writers on tiny PWBs force continuous parallel
 *    reclamation while forceGc() rounds overlap from the control
 *    thread; no acked value may be lost or torn.
 *  - Open chunk: GC passes and scan reorganisations append to one Value
 *    Storage's open chunk concurrently under a put/scan/delete mix
 *    checked against a model; once every key is gone, GC frees every
 *    chunk but the open one.
 *  - Crash injection: crash images are captured while parallel
 *    reclamation is mid-flight (pmem tracking mode); recovery must see
 *    every acked value exactly once, never a torn or duplicated one.
 */
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(BgIoStressTest, GcAndScanReorgShareTheOpenChunk)
{
    // One SSD, GC on whenever a chunk is in use, and an SVC small enough
    // that scanned ranges are evicted, and so reorganised, all the time:
    // both relocation writers contend for the same open chunk.
    PrismOptions opts = stressOptions();
    opts.vs_gc_watermark = 0.0;
    opts.svc_capacity_bytes = 128 * 1024;
    Rig rig(opts, 1, /*tracking=*/false, /*ssd_bytes=*/16ull * 1024 * 1024);

    constexpr int kThreads = 4;
    constexpr uint64_t kKeysPerThread = 1000;
    constexpr int kOpsPerThread = 6000;
    constexpr uint64_t kScanLen = 24;
    const auto before = rig.db->stats();
    std::vector<std::map<uint64_t, uint64_t>> models(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            // Each thread owns the key range [lo, lo + kKeysPerThread).
            auto &model = models[static_cast<size_t>(t)];
            const uint64_t lo = static_cast<uint64_t>(t) * kKeysPerThread;
            Xorshift rng(static_cast<uint64_t>(t) + 11);
            uint64_t version = 0;
            std::string v;
            for (int i = 0; i < kOpsPerThread; i++) {
                const uint64_t key = lo + rng.nextUniform(kKeysPerThread);
                const uint32_t dice = rng.nextUniform(100);
                if (dice < 50) {
                    version++;
                    ASSERT_TRUE(
                        rig.db->put(key, versionedValue(key, version))
                            .isOk());
                    model[key] = version;
                } else if (dice < 60) {
                    const bool present = model.erase(key) > 0;
                    ASSERT_EQ(rig.db->del(key).isOk(), present) << key;
                } else if (dice < 85) {
                    // Own keys come first in a scan from inside the range.
                    std::vector<std::pair<uint64_t, std::string>> out;
                    ASSERT_TRUE(rig.db->scan(key, kScanLen, &out).isOk());
                    auto it = model.lower_bound(key);
                    for (const auto &[k, sv] : out) {
                        if (it == model.end())
                            break;
                        ASSERT_EQ(k, it->first);
                        ASSERT_EQ(parseVersion(k, sv),
                                  static_cast<int64_t>(it->second));
                        ++it;
                    }
                } else {
                    const auto it = model.find(key);
                    const Status st = rig.db->get(key, &v);
                    ASSERT_EQ(st.isOk(), it != model.end()) << key;
                    if (st.isOk()) {
                        ASSERT_EQ(parseVersion(key, v),
                                  static_cast<int64_t>(it->second));
                    }
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    const auto after = rig.db->stats();
    EXPECT_GT(after.counterDelta(before, "prism.vs.gc_passes"), 0u);
    EXPECT_GT(after.counterDelta(before, "prism.svc.scan_reorgs"), 0u);

    // The store holds exactly the models.
    size_t expected_size = 0;
    std::string v;
    for (const auto &model : models) {
        expected_size += model.size();
        for (const auto &[k, ver] : model) {
            ASSERT_TRUE(rig.db->get(k, &v).isOk()) << k;
            ASSERT_EQ(parseVersion(k, v), static_cast<int64_t>(ver)) << k;
        }
    }
    EXPECT_EQ(rig.db->size(), expected_size);

    // With every key deleted, every chunk is garbage but the one open
    // chunk, which GC never picks. Background passes may hold a Value
    // Storage's GC lock while forceGc() looks, so repeat until it is
    // done (or clearly stuck).
    for (const auto &model : models)
        for (const auto &[k, ver] : model)
            ASSERT_TRUE(rig.db->del(k).isOk()) << k;
    rig.db->flushAll();
    const ValueStorage &vs = rig.db->shard(0).valueStorage(0);
    for (int round = 0;
         round < 200 && vs.freeChunks() + 1 < vs.totalChunks(); round++) {
        rig.db->forceGc();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(vs.freeChunks() + 1, vs.totalChunks());
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
