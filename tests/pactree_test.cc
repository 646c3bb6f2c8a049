/**
 * @file
 * Unit and property tests for the Persistent Key Index (PacTree):
 * functional correctness, agreement with a reference map under random
 * operations, concurrency, and crash recovery including interrupted
 * splits.
 */
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <thread>

#include "common/rand.h"
#include "index/dram_index.h"
#include "index/pactree.h"
#include "sim/device_profile.h"

namespace prism::index {
namespace {

struct TreeFixture {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::unique_ptr<pmem::PmemRegion> region;
    std::unique_ptr<pmem::PmemAllocator> alloc;
    std::unique_ptr<PacTree> tree;

    explicit TreeFixture(uint64_t bytes = 64 << 20)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            bytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_unique<pmem::PmemRegion>(nvm, true);
        alloc = std::make_unique<pmem::PmemAllocator>(*region);
        tree = PacTree::create(*region, *alloc);
    }

    void
    reopen()
    {
        const pmem::POff root = tree->rootOff();
        tree.reset();
        tree = PacTree::recover(*region, *alloc, root);
    }
};

TEST(PacTreeTest, InsertLookupRemove)
{
    TreeFixture fx;
    EXPECT_FALSE(fx.tree->lookup(10).has_value());
    EXPECT_TRUE(fx.tree->insertOrGet(10, 100).inserted);
    EXPECT_EQ(fx.tree->lookup(10).value(), 100u);
    EXPECT_TRUE(fx.tree->remove(10));
    EXPECT_FALSE(fx.tree->lookup(10).has_value());
    EXPECT_FALSE(fx.tree->remove(10));
}

TEST(PacTreeTest, InsertOrGetReturnsExisting)
{
    TreeFixture fx;
    EXPECT_TRUE(fx.tree->insertOrGet(5, 50).inserted);
    const auto res = fx.tree->insertOrGet(5, 999);
    EXPECT_FALSE(res.inserted);
    EXPECT_EQ(res.handle, 50u);
    EXPECT_EQ(fx.tree->lookup(5).value(), 50u);
}

TEST(PacTreeTest, ManyKeysForceSplits)
{
    TreeFixture fx;
    constexpr uint64_t kKeys = 50000;
    for (uint64_t i = 0; i < kKeys; i++)
        ASSERT_TRUE(fx.tree->insertOrGet(hash64(i), i).inserted) << i;
    EXPECT_EQ(fx.tree->size(), kKeys);
    for (uint64_t i = 0; i < kKeys; i += 7)
        ASSERT_EQ(fx.tree->lookup(hash64(i)).value(), i) << i;
    EXPECT_GT(fx.tree->nvmBytes(), kKeys * 16);
}

TEST(PacTreeTest, ScanIsSortedAndBounded)
{
    TreeFixture fx;
    for (uint64_t i = 0; i < 2000; i++)
        fx.tree->insertOrGet(i * 100, i);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    EXPECT_EQ(fx.tree->scan(5000, 30, out), 30u);
    EXPECT_EQ(out[0].first, 5000u);
    for (size_t i = 1; i < out.size(); i++)
        EXPECT_LT(out[i - 1].first, out[i].first);
    // Scan near the end yields only the remaining keys (the largest
    // key is 1999 * 100).
    out.clear();
    EXPECT_EQ(fx.tree->scan(1999 * 100 - 50, 30, out), 1u);
    out.clear();
    EXPECT_EQ(fx.tree->scan(1999 * 100 + 1, 30, out), 0u);
}

TEST(PacTreeTest, ForEachVisitsAllInOrder)
{
    TreeFixture fx;
    for (uint64_t i = 0; i < 5000; i++)
        fx.tree->insertOrGet(hash64(i), i);
    uint64_t prev = 0;
    size_t count = 0;
    bool first = true;
    fx.tree->forEach([&](uint64_t key, uint64_t handle) {
        if (!first) {
            EXPECT_GT(key, prev);
        }
        EXPECT_EQ(key, hash64(handle));
        prev = key;
        first = false;
        count++;
    });
    EXPECT_EQ(count, 5000u);
}

TEST(PacTreeTest, AgreesWithReferenceUnderRandomOps)
{
    TreeFixture fx;
    std::map<uint64_t, uint64_t> ref;
    Xorshift rng(77);
    for (int i = 0; i < 50000; i++) {
        const uint64_t key = rng.nextUniform(3000) * 17;
        const double p = rng.nextDouble();
        if (p < 0.5) {
            const uint64_t handle = rng.next();
            const auto res = fx.tree->insertOrGet(key, handle);
            auto [it, inserted] = ref.try_emplace(key, handle);
            ASSERT_EQ(res.inserted, inserted);
            ASSERT_EQ(res.handle, it->second);
        } else if (p < 0.75) {
            ASSERT_EQ(fx.tree->remove(key), ref.erase(key) > 0);
        } else {
            const auto got = fx.tree->lookup(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got.has_value(), it != ref.end());
            if (got.has_value()) {
                ASSERT_EQ(*got, it->second);
            }
        }
    }
    EXPECT_EQ(fx.tree->size(), ref.size());
}

TEST(PacTreeTest, SurvivesOrderlyReopen)
{
    TreeFixture fx;
    for (uint64_t i = 0; i < 20000; i++)
        fx.tree->insertOrGet(hash64(i), i);
    for (uint64_t i = 0; i < 20000; i += 2)
        fx.tree->remove(hash64(i));
    fx.reopen();
    EXPECT_EQ(fx.tree->size(), 10000u);
    EXPECT_FALSE(fx.tree->lookup(hash64(0)).has_value());
    EXPECT_EQ(fx.tree->lookup(hash64(1)).value(), 1u);
}

TEST(PacTreeTest, CrashRecoveryAtEveryStage)
{
    // With tracking on, crash after batches of inserts; recovered tree
    // must contain every completed insert (leaf writes are ordered:
    // slot persist before bitmap persist).
    TreeFixture fx;
    fx.region->enableTracking();
    std::map<uint64_t, uint64_t> expected;
    for (int batch = 0; batch < 20; batch++) {
        for (int i = 0; i < 500; i++) {
            const uint64_t key =
                hash64(static_cast<uint64_t>(batch) * 500 + i);
            fx.tree->insertOrGet(key, static_cast<uint64_t>(i));
            expected[key] = static_cast<uint64_t>(i);
        }
        fx.region->simulateCrash();
        fx.reopen();
        ASSERT_EQ(fx.tree->size(), expected.size()) << batch;
        // Spot-check a slice.
        int step = 0;
        for (const auto &[k, v] : expected) {
            if (step++ % 97 != 0)
                continue;
            ASSERT_EQ(fx.tree->lookup(k).value(), v);
        }
    }
}

TEST(PacTreeTest, ConcurrentInsertsAndLookups)
{
    TreeFixture fx;
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerThread; i++) {
                const uint64_t key =
                    hash64(static_cast<uint64_t>(t) * kPerThread + i);
                ASSERT_TRUE(fx.tree
                                ->insertOrGet(key,
                                              static_cast<uint64_t>(t))
                                .inserted);
                ASSERT_TRUE(fx.tree->lookup(key).has_value());
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(fx.tree->size(), kThreads * kPerThread);
}

TEST(PacTreeTest, ConcurrentInsertRaceOnSameKeys)
{
    // All threads race to insert the same keys; exactly one insert per
    // key may win, and all must agree on the winning handle.
    TreeFixture fx;
    constexpr int kThreads = 4;
    constexpr uint64_t kKeys = 2000;
    std::atomic<uint64_t> wins{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kKeys; i++) {
                const auto res = fx.tree->insertOrGet(
                    hash64(i), static_cast<uint64_t>(t) * kKeys + i);
                if (res.inserted)
                    wins.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(wins.load(), kKeys);
    EXPECT_EQ(fx.tree->size(), kKeys);
}

TEST(PacTreeTest, DirectoryShardsSpreadForDenseKeys)
{
    // Dense sequential keys (YCSB row ids) live far below 2^56, so a
    // fixed top-byte shard split would pile every directory entry — and
    // every lookup's lock acquisition — onto shard 0. The adaptive
    // shift must spread leaves across many shards instead.
    TreeFixture fx;
    constexpr uint64_t kKeys = 100000;
    for (uint64_t i = 0; i < kKeys; i++)
        ASSERT_TRUE(fx.tree->insertOrGet(i, i).inserted);
    // ~100k/64-per-leaf ≈ 1500+ leaves; with bit_width(100k)=17 the
    // shift settles at 9, mapping the key space over ~195 shards.
    EXPECT_GT(fx.tree->populatedShards(), 64);
    EXPECT_EQ(fx.tree->shardShift(),
              std::bit_width(kKeys - 1) - 8);

    // Ordered semantics survive the resharding.
    std::vector<std::pair<uint64_t, uint64_t>> out;
    ASSERT_EQ(fx.tree->scan(12345, 100, out), 100u);
    EXPECT_EQ(out[0].first, 12345u);
    for (size_t i = 1; i < out.size(); i++)
        EXPECT_EQ(out[i].first, out[i - 1].first + 1);

    // And the spread is what concurrent readers actually see: all
    // threads lookup disjoint dense ranges; every probe must hit.
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            const uint64_t base =
                static_cast<uint64_t>(t) * (kKeys / kThreads);
            for (uint64_t i = 0; i < kKeys / kThreads; i++) {
                const auto got = fx.tree->lookup(base + i);
                ASSERT_TRUE(got.has_value()) << base + i;
                ASSERT_EQ(*got, base + i);
            }
        });
    }
    for (auto &th : threads)
        th.join();
}

TEST(PacTreeTest, AdaptiveShardingSurvivesReopenAndGrowth)
{
    // Recovery rebuilds the directory through the same adaptive path,
    // and later larger keys re-home the directory without losing
    // entries (the shift only grows).
    TreeFixture fx;
    for (uint64_t i = 0; i < 30000; i++)
        fx.tree->insertOrGet(i, i + 1);
    fx.reopen();
    EXPECT_GT(fx.tree->populatedShards(), 32);
    for (uint64_t i = 0; i < 30000; i += 111)
        ASSERT_EQ(fx.tree->lookup(i).value(), i + 1);

    const int shift_before = fx.tree->shardShift();
    // A burst of far-larger keys triggers live resharding mid-traffic.
    for (uint64_t i = 0; i < 30000; i++) {
        const uint64_t big = (1ull << 40) + i;
        fx.tree->insertOrGet(big, i);
    }
    EXPECT_GT(fx.tree->shardShift(), shift_before);
    for (uint64_t i = 0; i < 30000; i += 97) {
        ASSERT_EQ(fx.tree->lookup(i).value(), i + 1) << i;
        ASSERT_EQ(fx.tree->lookup((1ull << 40) + i).value(), i) << i;
    }
}

TEST(DramIndexTest, BasicAndScan)
{
    DramIndex idx;
    EXPECT_TRUE(idx.insertOrGet(3, 30).inserted);
    EXPECT_TRUE(idx.insertOrGet(1, 10).inserted);
    EXPECT_FALSE(idx.insertOrGet(3, 99).inserted);
    EXPECT_EQ(idx.lookup(3).value(), 30u);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    EXPECT_EQ(idx.scan(0, 10, out), 2u);
    EXPECT_EQ(out[0].first, 1u);
    EXPECT_TRUE(idx.remove(1));
    EXPECT_EQ(idx.size(), 1u);
}

}  // namespace
}  // namespace prism::index
