/**
 * @file
 * Tests for the YCSB driver plumbing (load/run phases, latency capture,
 * timeline sampling) and the ShardRouter::multiGet batched-read API.
 */
#include <gtest/gtest.h>

#include "sim/device_profile.h"
#include "ycsb/driver.h"
#include "ycsb/stores.h"

namespace prism {
namespace {

ycsb::FixtureOptions
tinyFixture()
{
    ycsb::FixtureOptions fx;
    fx.num_ssds = 2;
    fx.ssd_bytes = 256ull << 20;
    fx.dataset_bytes = 8ull << 20;
    fx.model_timing = false;
    fx.expected_threads = 2;
    return fx;
}

TEST(DriverTest, LoadPhaseInsertsExactly)
{
    ycsb::PrismStore store(tinyFixture(), core::PrismOptions{});
    ycsb::WorkloadSpec spec =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kLoad, 4321, 0);
    spec.value_bytes = 64;
    const ycsb::RunResult r = ycsb::loadPhase(store, spec, 3);
    EXPECT_EQ(r.ops, 4321u);
    EXPECT_EQ(store.router().size(), 4321u);
    EXPECT_EQ(r.overall.count(), 4321u);
    EXPECT_EQ(r.writes.count(), 4321u);
    EXPECT_EQ(r.reads.count(), 0u);
    EXPECT_GT(r.throughput(), 0.0);
}

TEST(DriverTest, RunPhaseSplitsLatencyByOpType)
{
    ycsb::PrismStore store(tinyFixture(), core::PrismOptions{});
    ycsb::WorkloadSpec spec =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kA, 2000, 6000);
    spec.value_bytes = 64;
    ycsb::loadPhase(store, spec, 2);
    const ycsb::RunResult r = ycsb::runPhase(store, spec, 2);
    EXPECT_EQ(r.ops, 6000u);
    EXPECT_EQ(r.reads.count() + r.writes.count() + r.scans.count(),
              r.overall.count());
    // A is a 50/50 mix.
    EXPECT_NEAR(static_cast<double>(r.writes.count()) /
                    static_cast<double>(r.ops),
                0.5, 0.05);
    EXPECT_EQ(r.scans.count(), 0u);
}

TEST(DriverTest, ValuesAreDeterministicPerKey)
{
    std::string a, b;
    ycsb::OpGenerator::fillValue(1234, 256, &a);
    ycsb::OpGenerator::fillValue(1234, 256, &b);
    EXPECT_EQ(a, b);
    ycsb::OpGenerator::fillValue(1235, 256, &b);
    EXPECT_NE(a, b);
    EXPECT_EQ(a.size(), 256u);
}

TEST(MultiGetTest, MixedHitMissBatch)
{
    ycsb::PrismStore store(tinyFixture(), core::PrismOptions{});
    auto &db = store.router();
    for (uint64_t k = 0; k < 3000; k++)
        ASSERT_TRUE(db.put(k * 2, "v" + std::to_string(k)).isOk());
    db.flushAll();  // spill to Value Storage

    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 500; i++)
        keys.push_back(i * 3);  // mixes present (even) and absent (odd)
    std::vector<std::optional<std::string>> out;
    ASSERT_TRUE(db.multiGet(keys, &out).isOk());
    ASSERT_EQ(out.size(), keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
        if (keys[i] % 2 == 0 && keys[i] < 6000) {
            ASSERT_TRUE(out[i].has_value()) << keys[i];
            EXPECT_EQ(*out[i], "v" + std::to_string(keys[i] / 2));
        } else {
            EXPECT_FALSE(out[i].has_value()) << keys[i];
        }
    }
}

TEST(MultiGetTest, AgreesWithSingleGets)
{
    ycsb::PrismStore store(tinyFixture(), core::PrismOptions{});
    auto &db = store.router();
    Xorshift rng(5);
    for (uint64_t k = 0; k < 2000; k++)
        ASSERT_TRUE(db.put(hash64(k), std::to_string(k)).isOk());
    db.flushAll();

    std::vector<uint64_t> keys;
    for (int i = 0; i < 300; i++)
        keys.push_back(hash64(rng.nextUniform(2500)));
    std::vector<std::optional<std::string>> batched;
    ASSERT_TRUE(db.multiGet(keys, &batched).isOk());
    for (size_t i = 0; i < keys.size(); i++) {
        std::string v;
        const Status st = db.get(keys[i], &v);
        ASSERT_EQ(st.isOk(), batched[i].has_value()) << keys[i];
        if (st.isOk()) {
            ASSERT_EQ(v, *batched[i]);
        }
    }
}

TEST(MultiGetTest, ServesFromAllTiers)
{
    ycsb::FixtureOptions fx = tinyFixture();
    core::PrismOptions opts;
    ycsb::PrismStore store(fx, opts);
    auto &db = store.router();
    // Tier setup: some values on SSD (flushed), some in PWB (fresh),
    // some cached in SVC (read twice).
    for (uint64_t k = 0; k < 1000; k++)
        ASSERT_TRUE(db.put(k, "ssd" + std::to_string(k)).isOk());
    db.flushAll();
    std::string warm;
    ASSERT_TRUE(db.get(10, &warm).isOk());  // admit to SVC
    ASSERT_TRUE(db.get(10, &warm).isOk());
    for (uint64_t k = 1000; k < 1100; k++)
        ASSERT_TRUE(db.put(k, "pwb" + std::to_string(k)).isOk());

    std::vector<uint64_t> keys = {10, 500, 1050, 999999};
    std::vector<std::optional<std::string>> out;
    ASSERT_TRUE(db.multiGet(keys, &out).isOk());
    EXPECT_EQ(*out[0], "ssd10");
    EXPECT_EQ(*out[1], "ssd500");
    EXPECT_EQ(*out[2], "pwb1050");
    EXPECT_FALSE(out[3].has_value());
}

}  // namespace
}  // namespace prism
