/**
 * @file
 * Crash-consistency property tests (§5.4/§5.5 of the paper).
 *
 * The pmem layer runs in tracking mode: stores become durable only via
 * flush+fence, and a "crash" yields exactly the durable image — the
 * adversarial Optane failure model. The harness captures a crash image
 * (NVM durable snapshot + SSD contents), rebuilds devices from it, runs
 * Prism's recovery, and checks invariants:
 *
 *  - completed operations are durable (durable linearizability);
 *  - no torn or fabricated values ever appear;
 *  - recovery itself is deterministic and idempotent.
 *
 * Concurrent-crash tests disable Value Storage GC (chunk recycling)
 * so the two-device snapshot pair is consistent by append-only-ness;
 * GC crash coverage uses quiesced deterministic crash points instead.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include <map>

#include "common/fault.h"
#include "common/rand.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

constexpr uint64_t kNvmBytes = 96ull * 1024 * 1024;
constexpr uint64_t kSsdBytes = 128ull * 1024 * 1024;

PrismOptions
crashOptions()
{
    PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;  // small: reclamation is constant
    opts.svc_capacity_bytes = 2 * 1024 * 1024;
    opts.hsit_capacity = 32 * 1024;
    opts.chunk_bytes = 64 * 1024;
    return opts;
}

/** Encode (key, version) into a self-validating value. */
std::string
versionedValue(uint64_t key, uint64_t version)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "k%llu.v%llu.",
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(version));
    std::string v(buf);
    v.resize(48, '#');
    return v;
}

/** @return the version if @p value is well-formed for @p key, else -1. */
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

/** A crashable Prism instance on tracked devices. */
struct CrashRig {
    PrismOptions opts;
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<ShardRouter> db;

    explicit CrashRig(const PrismOptions &o, int num_ssds = 2) : opts(o)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
        region->enableTracking();
        for (int i = 0; i < num_ssds; i++) {
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                kSsdBytes, sim::kSamsung980ProProfile, /*timing=*/false));
        }
        db = ShardRouter::open(opts, {{region, {ssds.begin(), ssds.end()}}});
    }

    /**
     * Capture a crash image. Safe mid-workload when Value Storage
     * chunks are never recycled (append-only SSD state): the NVM
     * durable image is captured first; any SSD write that lands after
     * it is unreferenced by that image.
     */
    void
    captureCrashImage(std::vector<uint8_t> &nvm_img,
                      std::vector<std::vector<uint8_t>> &ssd_imgs)
    {
        region->snapshotDurableTo(nvm_img);
        ssd_imgs.resize(ssds.size());
        for (size_t i = 0; i < ssds.size(); i++)
            ssds[i]->snapshotTo(ssd_imgs[i]);
    }

    /** Build a fresh store from a crash image and run recovery. */
    std::unique_ptr<ShardRouter>
    recoverFromImage(const std::vector<uint8_t> &nvm_img,
                     const std::vector<std::vector<uint8_t>> &ssd_imgs,
                     std::shared_ptr<pmem::PmemRegion> *region_out = nullptr)
    {
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
        if (region_out != nullptr)
            *region_out = region2;
        return ShardRouter::recover(
            opts, {{region2, {ssds2.begin(), ssds2.end()}}});
    }
};

TEST(CrashTest, CompletedOpsAreDurableAtEveryCrashPoint)
{
    // Deterministic single-threaded crash points: after op i, the
    // recovered store must contain exactly the first i effects.
    constexpr int kOps = 300;
    CrashRig rig(crashOptions(), 1);
    std::map<uint64_t, uint64_t> expected;  // key -> version

    std::vector<uint8_t> nvm_img;
    std::vector<std::vector<uint8_t>> ssd_imgs;
    Xorshift rng(11);
    for (int i = 0; i < kOps; i++) {
        const uint64_t key = rng.nextUniform(40);
        const uint64_t version = static_cast<uint64_t>(i) + 1;
        ASSERT_TRUE(rig.db->put(key, versionedValue(key, version)).isOk());
        expected[key] = version;

        if (i % 37 == 0 || i == kOps - 1) {
            rig.captureCrashImage(nvm_img, ssd_imgs);
            auto recovered = rig.recoverFromImage(nvm_img, ssd_imgs);
            ASSERT_EQ(recovered->size(), expected.size()) << "op " << i;
            for (const auto &[k, ver] : expected) {
                std::string v;
                ASSERT_TRUE(recovered->get(k, &v).isOk())
                    << "op " << i << " key " << k;
                EXPECT_EQ(parseVersion(k, v), static_cast<int64_t>(ver))
                    << "op " << i << " key " << k;
            }
        }
    }
}

TEST(CrashTest, DeletesAreDurable)
{
    CrashRig rig(crashOptions(), 1);
    for (uint64_t k = 0; k < 100; k++)
        ASSERT_TRUE(rig.db->put(k, versionedValue(k, 1)).isOk());
    for (uint64_t k = 0; k < 100; k += 2)
        ASSERT_TRUE(rig.db->del(k).isOk());

    std::vector<uint8_t> nvm_img;
    std::vector<std::vector<uint8_t>> ssd_imgs;
    rig.captureCrashImage(nvm_img, ssd_imgs);
    auto recovered = rig.recoverFromImage(nvm_img, ssd_imgs);
    EXPECT_EQ(recovered->size(), 50u);
    std::string v;
    EXPECT_TRUE(recovered->get(0, &v).isNotFound());
    ASSERT_TRUE(recovered->get(1, &v).isOk());
    EXPECT_EQ(parseVersion(1, v), 1);
}

TEST(CrashTest, CrashAfterReclaimKeepsSsdValues)
{
    // Fill far beyond the PWB so most values live on SSD at crash time.
    PrismOptions opts = crashOptions();
    CrashRig rig(opts, 2);
    constexpr uint64_t kKeys = 3000;
    for (uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(rig.db->put(k, versionedValue(k, 7)).isOk());
    rig.db->flushAll();

    std::vector<uint8_t> nvm_img;
    std::vector<std::vector<uint8_t>> ssd_imgs;
    rig.captureCrashImage(nvm_img, ssd_imgs);
    auto recovered = rig.recoverFromImage(nvm_img, ssd_imgs);
    ASSERT_EQ(recovered->size(), kKeys);
    std::string v;
    for (uint64_t k = 0; k < kKeys; k += 13) {
        ASSERT_TRUE(recovered->get(k, &v).isOk()) << k;
        EXPECT_EQ(parseVersion(k, v), 7) << k;
    }
}

TEST(CrashTest, ConcurrentWritersNeverLoseAckedData)
{
    // Writers update disjoint key ranges with increasing versions while
    // the controller captures crash images mid-flight. Invariant per
    // key: acked-before-capture <= recovered version <= last attempted,
    // and the value is never torn.
    PrismOptions opts = crashOptions();
    opts.vs_gc_watermark = 1.1;  // never GC: append-only SSD state
    CrashRig rig(opts, 2);

    constexpr int kWriters = 3;
    constexpr uint64_t kKeysPerWriter = 32;
    constexpr uint64_t kTotalKeys = kWriters * kKeysPerWriter;
    std::vector<std::atomic<uint64_t>> acked(kTotalKeys);
    std::vector<std::atomic<uint64_t>> attempted(kTotalKeys);
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
        writers.emplace_back([&, w] {
            Xorshift rng(static_cast<uint64_t>(w) + 99);
            uint64_t version = 0;
            while (!stop.load(std::memory_order_acquire)) {
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

    for (int round = 0; round < 6; round++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        // Lower bound first: anything acked *before* the capture must
        // survive. (Acks racing the capture only raise the recovered
        // version, never violate the bound.)
        std::vector<uint64_t> acked_floor(kTotalKeys);
        for (uint64_t k = 0; k < kTotalKeys; k++)
            acked_floor[k] = acked[k].load(std::memory_order_acquire);

        std::vector<uint8_t> nvm_img;
        std::vector<std::vector<uint8_t>> ssd_imgs;
        rig.captureCrashImage(nvm_img, ssd_imgs);

        std::vector<uint64_t> attempted_ceil(kTotalKeys);
        for (uint64_t k = 0; k < kTotalKeys; k++) {
            attempted_ceil[k] =
                attempted[k].load(std::memory_order_acquire);
        }

        auto recovered = rig.recoverFromImage(nvm_img, ssd_imgs);
        for (uint64_t k = 0; k < kTotalKeys; k++) {
            std::string v;
            const Status st = recovered->get(k, &v);
            if (acked_floor[k] == 0) {
                // Never acked: may or may not exist; if it does, it must
                // still be well-formed.
                if (st.isOk()) {
                    EXPECT_GE(parseVersion(k, v), 1) << "key " << k;
                }
                continue;
            }
            ASSERT_TRUE(st.isOk()) << "round " << round << " key " << k
                                   << " status " << st.toString()
                                   << " acked_floor " << acked_floor[k]
                                   << " attempted " << attempted_ceil[k];
            const int64_t ver = parseVersion(k, v);
            ASSERT_GE(ver, 1) << "torn value, key " << k;
            EXPECT_GE(static_cast<uint64_t>(ver), acked_floor[k])
                << "lost acked write, key " << k;
            EXPECT_LE(static_cast<uint64_t>(ver),
                      attempted_ceil[k] + 1)
                << "fabricated version, key " << k;
        }
    }
    stop.store(true, std::memory_order_release);
    for (auto &t : writers)
        t.join();
}

TEST(CrashTest, CrashAroundGcIsSafe)
{
    // Quiesced crash points around explicit GC passes: GC relocations
    // must be crash-atomic thanks to the durable pointer CAS.
    PrismOptions opts = crashOptions();
    CrashRig rig(opts, 1);
    constexpr uint64_t kKeys = 800;
    std::map<uint64_t, uint64_t> expected;
    for (int round = 1; round <= 12; round++) {
        for (uint64_t k = 0; k < kKeys; k++) {
            ASSERT_TRUE(rig.db->put(
                k, versionedValue(k, static_cast<uint64_t>(round)))
                            .isOk());
            expected[k] = static_cast<uint64_t>(round);
        }
        rig.db->flushAll();
        rig.db->forceGc();

        std::vector<uint8_t> nvm_img;
        std::vector<std::vector<uint8_t>> ssd_imgs;
        rig.captureCrashImage(nvm_img, ssd_imgs);
        auto recovered = rig.recoverFromImage(nvm_img, ssd_imgs);
        ASSERT_EQ(recovered->size(), expected.size());
        std::string v;
        for (uint64_t k = 0; k < kKeys; k += 31) {
            ASSERT_TRUE(recovered->get(k, &v).isOk())
                << "round " << round << " key " << k;
            EXPECT_EQ(parseVersion(k, v),
                      static_cast<int64_t>(expected[k]))
                << "round " << round << " key " << k;
        }
    }
}

TEST(CrashTest, RecoveryIsIdempotent)
{
    CrashRig rig(crashOptions(), 1);
    for (uint64_t k = 0; k < 500; k++)
        ASSERT_TRUE(rig.db->put(k, versionedValue(k, 3)).isOk());

    std::vector<uint8_t> nvm_img;
    std::vector<std::vector<uint8_t>> ssd_imgs;
    rig.captureCrashImage(nvm_img, ssd_imgs);

    // Recover, then crash the recovered instance immediately (no new
    // durable writes should be required for a second recovery).
    std::shared_ptr<pmem::PmemRegion> region2;
    auto first = rig.recoverFromImage(nvm_img, ssd_imgs, &region2);
    ASSERT_EQ(first->size(), 500u);
    first.reset();

    std::vector<uint8_t> nvm_img2(region2->device().raw(),
                                  region2->device().raw() + kNvmBytes);
    auto nvm3 = std::make_shared<sim::NvmDevice>(
        kNvmBytes, sim::kOptaneDcpmmProfile, false);
    nvm3->loadImage(nvm_img2.data(), nvm_img2.size());
    auto region3 = std::make_shared<pmem::PmemRegion>(nvm3, false);
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds3;
    for (const auto &img : ssd_imgs) {
        auto d = std::make_shared<sim::SsdDevice>(
            kSsdBytes, sim::kSamsung980ProProfile, false);
        d->loadFrom(img);
        ssds3.push_back(std::move(d));
    }
    auto second = ShardRouter::recover(
        rig.opts, {{region3, {ssds3.begin(), ssds3.end()}}});
    ASSERT_EQ(second->size(), 500u);
    std::string v;
    for (uint64_t k = 0; k < 500; k += 17) {
        ASSERT_TRUE(second->get(k, &v).isOk());
        EXPECT_EQ(parseVersion(k, v), 3);
    }
}

TEST(CrashTest, CrashDuringRecoveryIsIdempotent)
{
    // Crash *inside* recovery (at the db.recover.midpoint fault site,
    // after the durable orphan repairs) and recover again from that
    // image: the doubly-recovered store must match the straight-through
    // recovery exactly. Recovery repairs must be idempotent.
    CrashRig rig(crashOptions(), 2);
    constexpr uint64_t kKeys = 600;
    for (uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(rig.db->put(k, versionedValue(k, 5)).isOk());

    std::vector<uint8_t> nvm_img;
    std::vector<std::vector<uint8_t>> ssd_imgs;
    rig.captureCrashImage(nvm_img, ssd_imgs);

    // First recovery, on a *tracked* region so the mid-recovery durable
    // image can be captured the instant the fault site fires.
    auto nvm2 = std::make_shared<sim::NvmDevice>(
        kNvmBytes, sim::kOptaneDcpmmProfile, false);
    nvm2->loadImage(nvm_img.data(), nvm_img.size());
    auto region2 = std::make_shared<pmem::PmemRegion>(nvm2, false);
    region2->enableTracking();
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds2;
    for (const auto &img : ssd_imgs) {
        auto d = std::make_shared<sim::SsdDevice>(
            kSsdBytes, sim::kSamsung980ProProfile, false);
        d->loadFrom(img);
        ssds2.push_back(std::move(d));
    }
    auto &freg = fault::FaultRegistry::global();
    std::vector<uint8_t> mid_img;
    freg.onFire("db.recover.midpoint", [&](uint64_t) {
        if (mid_img.empty())
            region2->snapshotDurableTo(mid_img);
    });
    fault::FaultSpec once;
    once.trigger = fault::Trigger::kOnce;
    freg.arm("db.recover.midpoint", once);
    auto first = ShardRouter::recover(
        rig.opts, {{region2, {ssds2.begin(), ssds2.end()}}});
    freg.disarmAll();
    ASSERT_FALSE(mid_img.empty()) << "recovery never hit the crash site";
    ASSERT_EQ(first->size(), kKeys);

    // Second recovery, from the image the mid-recovery crash left.
    auto nvm3 = std::make_shared<sim::NvmDevice>(
        kNvmBytes, sim::kOptaneDcpmmProfile, false);
    nvm3->loadImage(mid_img.data(), mid_img.size());
    auto region3 = std::make_shared<pmem::PmemRegion>(nvm3, false);
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds3;
    for (const auto &img : ssd_imgs) {
        auto d = std::make_shared<sim::SsdDevice>(
            kSsdBytes, sim::kSamsung980ProProfile, false);
        d->loadFrom(img);
        ssds3.push_back(std::move(d));
    }
    auto second = ShardRouter::recover(
        rig.opts, {{region3, {ssds3.begin(), ssds3.end()}}});
    ASSERT_EQ(second->size(), first->size());
    for (uint64_t k = 0; k < kKeys; k++) {
        std::string v1, v2;
        ASSERT_TRUE(first->get(k, &v1).isOk()) << k;
        ASSERT_TRUE(second->get(k, &v2).isOk()) << k;
        EXPECT_EQ(v1, v2) << k;
        EXPECT_EQ(parseVersion(k, v2), 5) << k;
    }
    // Scans must agree too (index structure, not just point lookups).
    std::vector<std::pair<uint64_t, std::string>> s1, s2;
    ASSERT_TRUE(first->scan(0, kKeys, &s1).isOk());
    ASSERT_TRUE(second->scan(0, kKeys, &s2).isOk());
    ASSERT_EQ(s1.size(), s2.size());
    for (size_t i = 0; i < s1.size(); i++) {
        EXPECT_EQ(s1[i].first, s2[i].first);
        EXPECT_EQ(s1[i].second, s2[i].second);
    }
}

}  // namespace
}  // namespace prism::core
