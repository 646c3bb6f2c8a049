/**
 * @file
 * Unit tests for the KVell baseline: slab/page layout, worker
 * partitioning, concurrent clients, scans, and full-scan recovery.
 */
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/rand.h"
#include "kvell/kvell.h"
#include "sim/device_profile.h"

namespace prism::kvell {
namespace {

struct KvellFixture {
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<Kvell> db;

    explicit KvellFixture(KvellOptions opts = {}, int num_ssds = 2)
    {
        for (int i = 0; i < num_ssds; i++) {
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                128ull << 20, sim::kSamsung980ProProfile,
                /*timing=*/false));
        }
        db = std::make_unique<Kvell>(opts, ssds);
    }
};

TEST(KvellTest, PutGetDelete)
{
    KvellFixture fx;
    ASSERT_TRUE(fx.db->put(1, "one").isOk());
    ASSERT_TRUE(fx.db->put(2, "two").isOk());
    std::string v;
    ASSERT_TRUE(fx.db->get(1, &v).isOk());
    EXPECT_EQ(v, "one");
    EXPECT_TRUE(fx.db->get(3, &v).isNotFound());
    ASSERT_TRUE(fx.db->del(1).isOk());
    EXPECT_TRUE(fx.db->get(1, &v).isNotFound());
    EXPECT_TRUE(fx.db->del(1).isNotFound());
    EXPECT_EQ(fx.db->size(), 1u);
}

TEST(KvellTest, RejectsOversizedValues)
{
    KvellFixture fx;
    const std::string big(4096, 'b');
    EXPECT_EQ(fx.db->put(1, big).code(), StatusCode::kInvalidArgument);
}

TEST(KvellTest, OverwriteInPlace)
{
    KvellFixture fx;
    for (int round = 0; round < 10; round++) {
        for (uint64_t k = 0; k < 500; k++) {
            ASSERT_TRUE(
                fx.db->put(k, "round" + std::to_string(round)).isOk());
        }
    }
    std::string v;
    for (uint64_t k = 0; k < 500; k++) {
        ASSERT_TRUE(fx.db->get(k, &v).isOk());
        EXPECT_EQ(v, "round9");
    }
    EXPECT_EQ(fx.db->size(), 500u);
}

TEST(KvellTest, SlotReuseAfterDelete)
{
    KvellFixture fx;
    std::string value(1000, 'r');
    for (uint64_t k = 0; k < 2000; k++)
        ASSERT_TRUE(fx.db->put(k, value).isOk());
    const uint64_t written_before =
        fx.db->ssdBytesWritten();
    for (uint64_t k = 0; k < 2000; k++)
        ASSERT_TRUE(fx.db->del(k).isOk());
    for (uint64_t k = 2000; k < 4000; k++)
        ASSERT_TRUE(fx.db->put(k, value).isOk());
    // Freed slots are reused; writes continue fine.
    EXPECT_EQ(fx.db->size(), 2000u);
    EXPECT_GT(fx.db->ssdBytesWritten(), written_before);
}

TEST(KvellTest, ConcurrentClients)
{
    KvellFixture fx;
    constexpr int kClients = 4;
    constexpr uint64_t kPerClient = 3000;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            std::string v;
            for (uint64_t i = 0; i < kPerClient; i++) {
                const uint64_t key =
                    static_cast<uint64_t>(c) * 100000 + i;
                ASSERT_TRUE(
                    fx.db->put(key, "c" + std::to_string(key)).isOk());
                ASSERT_TRUE(fx.db->get(key, &v).isOk());
                ASSERT_EQ(v, "c" + std::to_string(key));
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(fx.db->size(), kClients * kPerClient);
}

TEST(KvellTest, ScanMergesWorkerResults)
{
    KvellFixture fx;
    for (uint64_t k = 0; k < 3000; k++)
        ASSERT_TRUE(fx.db->put(k * 10, std::to_string(k)).isOk());
    std::vector<std::pair<uint64_t, std::string>> out;
    ASSERT_TRUE(fx.db->scan(1000, 20, &out).isOk());
    ASSERT_GE(out.size(), 15u);  // per-worker prefetch may under-fill
    EXPECT_EQ(out[0].first, 1000u);
    for (size_t i = 1; i < out.size(); i++) {
        EXPECT_LT(out[i - 1].first, out[i].first);
        EXPECT_EQ(out[i].second, std::to_string(out[i].first / 10));
    }
}

TEST(KvellTest, FullScanRecoveryRebuildsIndexes)
{
    KvellFixture fx;
    std::map<uint64_t, std::string> ref;
    Xorshift rng(9);
    for (int i = 0; i < 8000; i++) {
        const uint64_t key = rng.nextUniform(3000);
        const std::string value = "v" + std::to_string(i);
        ASSERT_TRUE(fx.db->put(key, value).isOk());
        ref[key] = value;
    }
    for (uint64_t k = 0; k < 3000; k += 3) {
        if (ref.erase(k) > 0) {
            ASSERT_TRUE(fx.db->del(k).isOk());
        }
    }

    const uint64_t ns = fx.db->recoverByFullScan();
    EXPECT_GT(ns, 0u);
    EXPECT_EQ(fx.db->size(), ref.size());
    std::string v;
    for (const auto &[k, expected] : ref) {
        ASSERT_TRUE(fx.db->get(k, &v).isOk()) << k;
        ASSERT_EQ(v, expected) << k;
    }
}

TEST(KvellTest, PageGranularWritesAmplify)
{
    // KVell's defining cost: a small update rewrites its whole 4 KB
    // page (Fig. 12's KVell series).
    KvellFixture fx;
    std::string small(128, 'w');
    for (uint64_t k = 0; k < 1000; k++)
        ASSERT_TRUE(fx.db->put(k, small).isOk());
    const double waf =
        static_cast<double>(fx.db->ssdBytesWritten()) /
        static_cast<double>(fx.db->stats().user_bytes_written.load());
    EXPECT_GT(waf, 2.0);
}

}  // namespace
}  // namespace prism::kvell
