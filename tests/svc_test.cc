/**
 * @file
 * Unit tests for the Scan-aware Value Cache in isolation: admission,
 * validation-based staleness safety, invalidation, 2Q behaviour under
 * pressure, scan chains and eviction-time reorganisation (also with its
 * chunk writes failing), cached copies kept across a GC relocation, the
 * manager's once-per-batch wake, and admits racing invalidates.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "common/fault.h"
#include "core/chunk_writer.h"
#include "core/svc.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

struct SvcFixture {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::unique_ptr<pmem::PmemRegion> region;
    std::unique_ptr<pmem::PmemAllocator> alloc;
    std::unique_ptr<Hsit> hsit;
    EpochManager epochs;
    PrismOptions opts;
    std::shared_ptr<sim::SsdDevice> ssd;
    std::unique_ptr<ValueStorage> vs;
    std::unique_ptr<Svc> svc;

    explicit SvcFixture(uint64_t svc_bytes = 1 << 20,
                        bool scan_reorg = true)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            32ull << 20, sim::kOptaneDcpmmProfile, false);
        region = std::make_unique<pmem::PmemRegion>(nvm, true);
        alloc = std::make_unique<pmem::PmemAllocator>(*region);
        hsit = Hsit::create(*region, *alloc, 4096);
        opts.chunk_bytes = 64 * 1024;
        opts.svc_capacity_bytes = svc_bytes;
        opts.enable_scan_reorg = scan_reorg;
        ssd = std::make_shared<sim::SsdDevice>(
            16ull << 20, sim::kSamsung980ProProfile, false);
        vs = std::make_unique<ValueStorage>(0, ssd, opts, epochs);
        svc = std::make_unique<Svc>(*hsit, epochs,
                                    std::vector<ValueStorage *>{vs.get()},
                                    opts);
    }

    /** Write a record to Value Storage and publish it in the HSIT. */
    std::pair<uint64_t, ValueAddr>
    publishOnSsd(uint64_t key, const std::string &value)
    {
        const uint64_t h = hsit->allocEntry();
        ChunkWriter writer({vs.get()});
        const ValueAddr a =
            writer.add(h, key, value.data(),
                       static_cast<uint32_t>(value.size()));
        writer.finish();
        vs->setValid(a.offset(), a.recordBytes());
        writer.settleAll();
        hsit->storePrimaryDurable(h, a);
        return {h, a};
    }

    /**
     * Publish an HSIT entry whose forward pointer names a Value Storage
     * record that is never written: admission only compares addresses.
     */
    std::pair<uint64_t, ValueAddr> publishAddr(uint64_t key)
    {
        const uint64_t h = hsit->allocEntry();
        const ValueAddr a = ValueAddr::vs(0, key * 4096, 1024);
        hsit->storePrimaryDurable(h, a);
        return {h, a};
    }

    void admit(uint64_t h, uint64_t key, ValueAddr a,
               const std::string &value)
    {
        EpochGuard guard(epochs);
        svc->admit(h, key, a, reinterpret_cast<const uint8_t *>(value.data()),
                   static_cast<uint32_t>(value.size()));
    }
};

uint64_t
managerRounds(const stats::StatsSnapshot &before)
{
    return stats::StatsRegistry::global().snapshot().counterDelta(
        before, "prism.svc.manager_rounds");
}

TEST(SvcTest, AdmitThenHit)
{
    SvcFixture fx;
    const std::string value = "cached value";
    auto [h, addr] = fx.publishOnSsd(1, value);
    EpochGuard guard(fx.epochs);
    std::string out;
    EXPECT_FALSE(fx.svc->lookup(h, addr.raw(), &out));
    fx.svc->admit(h, 1, addr,
                  reinterpret_cast<const uint8_t *>(value.data()),
                  static_cast<uint32_t>(value.size()));
    ASSERT_TRUE(fx.svc->lookup(h, addr.raw(), &out));
    EXPECT_EQ(out, value);
    EXPECT_GT(fx.svc->usedBytes(), value.size());
}

TEST(SvcTest, StalePointerNeverServed)
{
    SvcFixture fx;
    const std::string value = "version 1";
    auto [h, addr] = fx.publishOnSsd(2, value);
    {
        EpochGuard guard(fx.epochs);
        fx.svc->admit(h, 2, addr,
                      reinterpret_cast<const uint8_t *>(value.data()),
                      static_cast<uint32_t>(value.size()));
    }
    // Simulate an update: the forward pointer moves (to a PWB address).
    const ValueAddr fresh = ValueAddr::pwb(4096, 64);
    fx.hsit->storePrimaryDurable(h, fresh);
    EpochGuard guard(fx.epochs);
    std::string out;
    // Lookup with the *new* pointer must refuse the old cached copy.
    EXPECT_FALSE(fx.svc->lookup(h, fresh.raw(), &out));
}

TEST(SvcTest, InvalidateDetaches)
{
    SvcFixture fx;
    const std::string value = "bye";
    auto [h, addr] = fx.publishOnSsd(3, value);
    {
        EpochGuard guard(fx.epochs);
        fx.svc->admit(h, 3, addr,
                      reinterpret_cast<const uint8_t *>(value.data()),
                      static_cast<uint32_t>(value.size()));
    }
    fx.svc->invalidate(h);
    EpochGuard guard(fx.epochs);
    std::string out;
    EXPECT_FALSE(fx.svc->lookup(h, addr.raw(), &out));
    fx.svc->drainForTest();
    EXPECT_EQ(fx.hsit->svcLoad(h), nullptr);
}

TEST(SvcTest, CapacityPressureEvicts)
{
    SvcFixture fx(64 * 1024);  // tiny cache
    const std::string value(1000, 'e');
    const auto before = stats::StatsRegistry::global().snapshot();
    std::vector<std::pair<uint64_t, ValueAddr>> items;
    for (uint64_t k = 0; k < 200; k++) {
        items.push_back(fx.publishOnSsd(k, value));
        EpochGuard guard(fx.epochs);
        fx.svc->admit(items.back().first, k, items.back().second,
                      reinterpret_cast<const uint8_t *>(value.data()),
                      static_cast<uint32_t>(value.size()));
    }
    fx.svc->drainForTest();
    EXPECT_LE(fx.svc->usedBytes(), 2 * 64 * 1024u);
    EXPECT_GT(stats::StatsRegistry::global().snapshot().counterDelta(
                  before, "prism.svc.evictions"),
              100u);
    // The most recently admitted entries are the ones that survive.
    EpochGuard guard(fx.epochs);
    std::string out;
    int live = 0;
    for (const auto &[h, addr] : items)
        live += fx.svc->lookup(h, addr.raw(), &out);
    EXPECT_GT(live, 0);
    EXPECT_LT(live, 200);
}

TEST(SvcTest, RepeatedAccessPromotesOverOneTouch)
{
    SvcFixture fx(96 * 1024);
    const std::string value(800, 'f');
    // Admit a "hot" set and touch it repeatedly, then stream a large
    // one-touch set through the cache; the hot set should survive.
    std::vector<std::pair<uint64_t, ValueAddr>> hot;
    for (uint64_t k = 0; k < 20; k++) {
        hot.push_back(fx.publishOnSsd(k, value));
        EpochGuard guard(fx.epochs);
        fx.svc->admit(hot.back().first, k, hot.back().second,
                      reinterpret_cast<const uint8_t *>(value.data()),
                      static_cast<uint32_t>(value.size()));
    }
    fx.svc->drainForTest();
    {
        EpochGuard guard(fx.epochs);
        std::string out;
        for (int round = 0; round < 3; round++) {
            for (const auto &[h, addr] : hot)
                fx.svc->lookup(h, addr.raw(), &out);
        }
    }
    fx.svc->drainForTest();  // let the manager observe the references
    for (uint64_t k = 100; k < 220; k++) {
        auto item = fx.publishOnSsd(k, value);
        EpochGuard guard(fx.epochs);
        fx.svc->admit(item.first, k, item.second,
                      reinterpret_cast<const uint8_t *>(value.data()),
                      static_cast<uint32_t>(value.size()));
        if (k % 16 == 0)
            fx.svc->drainForTest();
    }
    fx.svc->drainForTest();
    EpochGuard guard(fx.epochs);
    std::string out;
    int hot_live = 0;
    for (const auto &[h, addr] : hot)
        hot_live += fx.svc->lookup(h, addr.raw(), &out);
    // 2Q: the re-referenced set is preferentially retained.
    EXPECT_GT(hot_live, 5);
}

TEST(SvcTest, ScanChainReorganisesOnEviction)
{
    SvcFixture fx(128 * 1024, /*scan_reorg=*/true);
    const std::string value(600, 's');
    const auto before = stats::StatsRegistry::global().snapshot();
    // Publish a key range out of key order, admit it, and declare it one
    // scan. Consecutive publishes share one open chunk, so publishing in
    // key order would already leave the range contiguous.
    constexpr uint64_t kRange = 40;
    std::vector<std::pair<uint64_t, ValueAddr>> range(kRange);
    for (uint64_t i = 0; i < kRange; i++) {
        const uint64_t k = (i * 17) % kRange;  // key neighbours land apart
        range[k] = fx.publishOnSsd(k * 7, value);
        fx.admit(range[k].first, k * 7, range[k].second, value);
    }
    std::vector<uint64_t> chain;
    for (const auto &[h, addr] : range)
        chain.push_back(h);
    fx.svc->noteScan(chain);
    fx.svc->drainForTest();

    // Flood the cache so the chain members get evicted.
    const std::string filler(900, 'x');
    for (uint64_t k = 1000; k < 1400; k++) {
        auto item = fx.publishOnSsd(k, filler);
        EpochGuard guard(fx.epochs);
        fx.svc->admit(item.first, k, item.second,
                      reinterpret_cast<const uint8_t *>(filler.data()),
                      static_cast<uint32_t>(filler.size()));
        if (k % 32 == 0)
            fx.svc->drainForTest();
    }
    fx.svc->drainForTest();
    const auto after = stats::StatsRegistry::global().snapshot();
    EXPECT_GT(after.counterDelta(before, "prism.svc.scan_reorgs"), 0u);
    EXPECT_GT(after.counterDelta(before, "prism.svc.reorged_values"), 1u);

    // Reorganised values must still resolve and be contiguous-ish:
    // at least one pair of key-adjacent values now sits adjacent on
    // the device.
    std::vector<std::pair<uint64_t, ValueAddr>> now;
    for (const auto &[h, old_addr] : range) {
        const ValueAddr a = fx.hsit->loadPrimary(h);
        ASSERT_FALSE(a.isNull());
        now.emplace_back(h, a);
    }
    int adjacent = 0;
    for (size_t i = 1; i < now.size(); i++) {
        if (now[i].second.offset() ==
            now[i - 1].second.offset() +
                now[i - 1].second.recordBytes())
            adjacent++;
    }
    EXPECT_GT(adjacent, 0);

    // And their contents must be intact.
    std::vector<uint8_t> buf;
    for (const auto &[h, a] : now) {
        buf.resize(a.recordBytes());
        ASSERT_TRUE(fx.vs->device()
                        .readSync(a.offset(), buf.data(),
                                  static_cast<uint32_t>(a.recordBytes()))
                        .isOk());
        const auto *hdr =
            reinterpret_cast<const ValueRecordHeader *>(buf.data());
        EXPECT_EQ(hdr->backward, h);
        EXPECT_TRUE(recordCrcOk(*hdr, hdr + 1));
    }
}

TEST(SvcTest, FailedReorgWriteKeepsTheOldCopies)
{
    SvcFixture fx(128 * 1024, /*scan_reorg=*/true);
    const std::string value(600, 'r');
    constexpr uint64_t kRange = 40;
    std::vector<std::pair<uint64_t, ValueAddr>> range;
    std::vector<uint64_t> chain;
    for (uint64_t k = 0; k < kRange; k++) {
        range.push_back(fx.publishOnSsd(k * 7, value));
        fx.admit(range.back().first, k * 7, range.back().second, value);
        chain.push_back(range.back().first);
    }
    fx.svc->noteScan(chain);
    fx.svc->drainForTest();

    // Evict the chain while every chunk write fails after its retries.
    // The flood is admitted at addresses that are never written, so the
    // reorganisation is the only writer.
    const auto before = stats::StatsRegistry::global().snapshot();
    auto &faults = fault::FaultRegistry::global();
    fault::FaultSpec always;
    always.trigger = fault::Trigger::kProbability;
    always.probability = 1.0;
    faults.arm("pwb.chunk_write", always);
    const std::string filler(900, 'x');
    for (uint64_t k = 1000; k < 1400; k++) {
        const auto [h, addr] = fx.publishAddr(k);
        fx.admit(h, k, addr, filler);
        if (k % 32 == 0)
            fx.svc->drainForTest();
    }
    fx.svc->drainForTest();
    faults.disarmAll();
    const auto after = stats::StatsRegistry::global().snapshot();
    EXPECT_GT(after.counterDelta(before, "prism.svc.scan_reorgs"), 0u);
    EXPECT_EQ(after.counterDelta(before, "prism.svc.reorged_values"), 0u);

    // No member was published at a failed address: each still names a
    // record that parses, with its backward pointer and CRC.
    std::vector<uint8_t> buf;
    for (const auto &[h, old_addr] : range) {
        const ValueAddr a = fx.hsit->loadPrimary(h);
        EXPECT_EQ(a, old_addr);
        buf.resize(a.recordBytes());
        ASSERT_TRUE(fx.vs->device()
                        .readSync(a.offset(), buf.data(),
                                  static_cast<uint32_t>(a.recordBytes()))
                        .isOk());
        const auto *hdr =
            reinterpret_cast<const ValueRecordHeader *>(buf.data());
        EXPECT_EQ(hdr->backward, h);
        EXPECT_TRUE(recordCrcOk(*hdr, hdr + 1));
    }
}

TEST(SvcTest, GcRelocationKeepsTheCachedCopy)
{
    SvcFixture fx;
    // Three chunks' worth of values; the first chunk's records all die
    // but one, which is cached.
    const std::string value(3000, 'g');
    std::vector<std::pair<uint64_t, ValueAddr>> items;
    for (uint64_t k = 0; k < 63; k++)
        items.push_back(fx.publishOnSsd(k, value));
    const auto [h, old_addr] = items[0];
    fx.admit(h, 0, old_addr, value);
    for (size_t i = 1; i < items.size(); i++) {
        if (items[i].second.offset() / fx.opts.chunk_bytes ==
            old_addr.offset() / fx.opts.chunk_bytes)
            fx.vs->clearValid(items[i].second.offset(),
                              items[i].second.recordBytes());
    }

    ASSERT_GT(fx.vs->runGcPass(*fx.hsit, fx.svc.get()), 0u);
    const ValueAddr moved = fx.hsit->loadPrimary(h);
    ASSERT_NE(moved, old_addr);

    // The entry follows its value: a lookup at the new address hits.
    EpochGuard guard(fx.epochs);
    std::string out;
    ASSERT_TRUE(fx.svc->lookup(h, moved.raw(), &out));
    EXPECT_EQ(out, value);
}

TEST(SvcTest, AdmissionsUnderBudgetWakeManagerPerBatch)
{
    SvcFixture fx;  // 1 MB: room for every admission below
    const std::string value(100, 'w');
    constexpr uint64_t kAdmits = 1000;
    constexpr uint64_t kWakeBatch = 64;  // Svc::kWakeBatch
    std::vector<std::pair<uint64_t, ValueAddr>> items;
    for (uint64_t k = 0; k < kAdmits; k++)
        items.push_back(fx.publishAddr(k));

    // Paced like SSD-read admissions, so a manager woken per event has
    // time to go back to sleep between two of them.
    const auto before = stats::StatsRegistry::global().snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t k = 0; k < kAdmits; k++) {
        fx.admit(items[k].first, k, items[k].second, value);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    const auto ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const uint64_t rounds = managerRounds(before);
    // One round per full batch, the 50 ms timer's rounds over the loop,
    // and a round already in flight at either end; one round per
    // admission would be about kAdmits.
    EXPECT_LE(rounds, kAdmits / kWakeBatch + 2 + ms / 50)
        << "over " << ms << " ms";

    // The rounds are counted, and every admission stayed cached.
    fx.svc->drainForTest();
    EXPECT_GE(managerRounds(before), rounds + 2);
    EpochGuard guard(fx.epochs);
    std::string out;
    for (const auto &[h, addr] : items)
        ASSERT_TRUE(fx.svc->lookup(h, addr.raw(), &out));
    EXPECT_LE(fx.svc->usedBytes(), fx.svc->capacityBytes());
}

TEST(SvcTest, ConcurrentAdmitInvalidateFreesEverything)
{
    // A cache smaller than the key set, so the manager's evictions race
    // with invalidations too (an eviction that loses its detach CAS
    // leaves the entry to the winner's Remove).
    SvcFixture fx(2048);
    const std::string value(200, 'c');
    constexpr uint64_t kKeys = 16;
    std::vector<std::pair<uint64_t, ValueAddr>> items;
    for (uint64_t k = 0; k < kKeys; k++)
        items.push_back(fx.publishAddr(k));

    // Admits race invalidates of the same keys, so a Remove can reach
    // the manager before or after its entry's Admit. A stale admission
    // (an address the forward pointer no longer names) is published and
    // then retracted by its own admitter.
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([&, t] {
            std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
            while (!stop.load(std::memory_order_relaxed)) {
                const uint64_t k = rng() % kKeys;
                const auto &[h, addr] = items[k];
                switch (rng() % 4) {
                  case 0:
                    fx.svc->invalidate(h);
                    break;
                  case 1:
                    fx.admit(h, k, ValueAddr::vs(0, addr.offset() + 1024,
                                                 1024),
                             value);
                    break;
                  default:
                    fx.admit(h, k, addr, value);
                    break;
                }
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    for (auto &th : threads)
        th.join();

    for (const auto &[h, addr] : items)
        fx.svc->invalidate(h);
    fx.svc->drainForTest();
    EXPECT_EQ(fx.svc->usedBytes(), 0u);
    for (const auto &[h, addr] : items)
        EXPECT_EQ(fx.hsit->svcLoad(h), nullptr);
}

TEST(SvcTest, DisabledCacheIsInert)
{
    SvcFixture fx;
    fx.opts.enable_svc = false;
    Svc off(*fx.hsit, fx.epochs, {fx.vs.get()}, fx.opts);
    const std::string value = "nope";
    auto [h, addr] = fx.publishOnSsd(9, value);
    EpochGuard guard(fx.epochs);
    off.admit(h, 9, addr,
              reinterpret_cast<const uint8_t *>(value.data()),
              static_cast<uint32_t>(value.size()));
    std::string out;
    EXPECT_FALSE(off.lookup(h, addr.raw(), &out));
    EXPECT_EQ(off.usedBytes(), 0u);
}

}  // namespace
}  // namespace prism::core
