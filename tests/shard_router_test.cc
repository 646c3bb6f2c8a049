/**
 * @file
 * ShardRouter (core/shard_router.h) correctness:
 *
 *  - cross-shard scan is exactly the global ordered view (k-way merge
 *    against a model std::map, at many windows);
 *  - multiGet reassembles results in caller order across shards,
 *    duplicates and misses included;
 *  - shards=1 agrees with a model std::map op by op, over blocking and
 *    async put/get/del/scan, and prism.shard.0.ops counts every op;
 *  - the PWB/SVC occupancy gauges are sums over every shard;
 *  - N-shard crash recovery survives a second crash landing *between*
 *    per-shard recoveries (shard 0 recovered alone, killed, then the
 *    whole router recovered) — states equal to the model;
 *  - the shared BgPool drains per-source sub-queues round-robin and
 *    measures queue delay (prism.bg.queue_delay_ns);
 *  - the NUMA probe honours PRISM_NUMA_FAKE and falls back to one node.
 *
 * Runs under TSan and asan-ubsan in CI (.github/workflows/ci.yml).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/numa.h"
#include "common/rand.h"
#include "common/stats.h"
#include "core/bg_pool.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

constexpr uint64_t kNvmBytes = 96ull * 1024 * 1024;
constexpr uint64_t kSsdBytes = 128ull * 1024 * 1024;

PrismOptions
testOptions()
{
    PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;
    opts.svc_capacity_bytes = 2 * 1024 * 1024;
    opts.hsit_capacity = 32 * 1024;
    opts.chunk_bytes = 64 * 1024;
    return opts;
}

std::string
valueFor(uint64_t key, uint64_t version)
{
    std::string v = "sv" + std::to_string(key) + "." +
                    std::to_string(version) + ".";
    v.resize(48 + (key % 64), 'p');
    return v;
}

/** An N-shard router on fresh simulated devices. */
struct RouterRig {
    PrismOptions opts;
    std::vector<std::shared_ptr<sim::NvmDevice>> nvms;
    std::vector<std::shared_ptr<pmem::PmemRegion>> regions;
    std::vector<std::vector<std::shared_ptr<sim::SsdDevice>>> ssds;
    std::unique_ptr<ShardRouter> db;

    explicit RouterRig(int shards, PrismOptions o = testOptions(),
                       bool tracked = false, int ssds_per_shard = 2)
        : opts(o)
    {
        opts.shards = shards;
        std::vector<ShardBackends> backends;
        for (int s = 0; s < shards; s++) {
            nvms.push_back(std::make_shared<sim::NvmDevice>(
                kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false));
            regions.push_back(std::make_shared<pmem::PmemRegion>(
                nvms.back(), /*format=*/true));
            if (tracked)
                regions.back()->enableTracking();
            std::vector<std::shared_ptr<sim::SsdDevice>> dev;
            for (int i = 0; i < ssds_per_shard; i++)
                dev.push_back(std::make_shared<sim::SsdDevice>(
                    kSsdBytes, sim::kSamsung980ProProfile,
                    /*timing=*/false));
            ssds.push_back(dev);
            backends.push_back({regions.back(), {dev.begin(), dev.end()}});
        }
        db = ShardRouter::open(opts, std::move(backends));
    }
};

TEST(ShardOf, SingleShardAndBalance)
{
    for (uint64_t k : {0ull, 1ull, 42ull, ~0ull})
        EXPECT_EQ(ShardRouter::shardOf(k, 1), 0u);

    // Dense sequential keys must spread: every shard within 2x of fair
    // share over 16k keys.
    constexpr size_t kShards = 4;
    size_t hist[kShards] = {};
    for (uint64_t k = 0; k < 16384; k++) {
        const size_t s = ShardRouter::shardOf(k, kShards);
        ASSERT_LT(s, kShards);
        hist[s]++;
        EXPECT_EQ(ShardRouter::shardOf(k, kShards), s);  // stable
    }
    for (size_t s = 0; s < kShards; s++) {
        EXPECT_GT(hist[s], 16384 / kShards / 2);
        EXPECT_LT(hist[s], 16384 / kShards * 2);
    }
}

TEST(ShardRouterTest, CrossShardScanMatchesModel)
{
    RouterRig rig(4);
    std::map<uint64_t, std::string> model;
    Xorshift rng(2024);
    for (int i = 0; i < 4000; i++) {
        const uint64_t key = rng.nextUniform(100000);
        const std::string v = valueFor(key, static_cast<uint64_t>(i));
        ASSERT_TRUE(rig.db->put(key, v).isOk());
        model[key] = v;
    }
    // Delete a slice so the scan sees holes.
    int deleted = 0;
    for (auto it = model.begin();
         it != model.end() && deleted < 500;) {
        ASSERT_TRUE(rig.db->del(it->first).isOk());
        it = model.erase(it);
        // Skip ahead pseudo-randomly.
        for (uint32_t j = rng.nextUniform(4); j > 0 && it != model.end();
             j--)
            ++it;
        deleted++;
    }

    ASSERT_EQ(rig.db->size(), model.size());

    // Many windows: starts on existing keys, between keys, past the
    // end; counts from 1 to beyond the population.
    const size_t counts[] = {1, 7, 64, 1000, model.size() + 10};
    for (int trial = 0; trial < 40; trial++) {
        const uint64_t start = rng.nextUniform(110000);
        for (const size_t count : counts) {
            std::vector<std::pair<uint64_t, std::string>> got;
            ASSERT_TRUE(rig.db->scan(start, count, &got).isOk());
            std::vector<std::pair<uint64_t, std::string>> want;
            for (auto it = model.lower_bound(start);
                 it != model.end() && want.size() < count; ++it)
                want.emplace_back(it->first, it->second);
            ASSERT_EQ(got, want)
                << "scan(" << start << ", " << count << ")";
        }
    }
}

TEST(ShardRouterTest, MultiGetCallerOrder)
{
    RouterRig rig(4);
    std::map<uint64_t, std::string> model;
    Xorshift rng(7);
    for (int i = 0; i < 1000; i++) {
        const uint64_t key = rng.nextUniform(5000);
        const std::string v = valueFor(key, static_cast<uint64_t>(i));
        ASSERT_TRUE(rig.db->put(key, v).isOk());
        model[key] = v;
    }

    // Batch with keys from every shard, duplicates, and misses.
    std::vector<uint64_t> batch;
    for (int i = 0; i < 300; i++)
        batch.push_back(rng.nextUniform(8000));  // ~40% misses
    batch.push_back(batch.front());              // duplicate
    batch.push_back(batch.front());

    std::vector<std::optional<std::string>> out;
    ASSERT_TRUE(rig.db->multiGet(batch, &out).isOk());
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < batch.size(); i++) {
        const auto it = model.find(batch[i]);
        if (it == model.end()) {
            EXPECT_FALSE(out[i].has_value()) << "slot " << i;
        } else {
            ASSERT_TRUE(out[i].has_value()) << "slot " << i;
            EXPECT_EQ(*out[i], it->second) << "slot " << i;
        }
    }

    // Empty batch is a no-op, not an error.
    std::vector<std::optional<std::string>> empty_out;
    ASSERT_TRUE(rig.db->multiGet({}, &empty_out).isOk());
    EXPECT_TRUE(empty_out.empty());
}

TEST(ShardRouterTest, SingleShardMatchesModel)
{
    // A deterministic op tape, each op blocking or async at random,
    // against a 1-shard router and a model map: every status and value
    // must agree, op by op, and the routing counter must see each op.
    RouterRig rig(1);
    std::map<uint64_t, std::string> model;
    const auto before = rig.db->stats();
    constexpr uint64_t kOps = 3000;
    Xorshift rng(99);
    for (uint64_t i = 0; i < kOps; i++) {
        const uint64_t key = rng.nextUniform(800);
        const uint32_t dice = rng.nextUniform(100);
        const bool async = rng.nextUniform(2) == 0;
        if (dice < 60) {
            const std::string v = valueFor(key, i);
            const Status st = async ? rig.db->asyncPut(key, v).wait()
                                    : rig.db->put(key, v);
            ASSERT_TRUE(st.isOk());
            model[key] = v;
        } else if (dice < 75) {
            const Status st =
                async ? rig.db->asyncDel(key).wait() : rig.db->del(key);
            ASSERT_EQ(st.isOk(), model.erase(key) > 0) << st.toString();
        } else if (dice < 90) {
            std::string v;
            Status st;
            if (async) {
                const OpFuture f = rig.db->asyncGet(key);
                st = f.wait();
                v = f.value();
            } else {
                st = rig.db->get(key, &v);
            }
            const auto it = model.find(key);
            if (it == model.end()) {
                ASSERT_TRUE(st.isNotFound()) << st.toString();
            } else {
                ASSERT_TRUE(st.isOk()) << st.toString();
                ASSERT_EQ(v, it->second);
            }
        } else {
            std::vector<std::pair<uint64_t, std::string>> got, want;
            if (async) {
                const OpFuture f = rig.db->asyncScan(key, 20);
                ASSERT_TRUE(f.wait().isOk());
                got = f.rows();
            } else {
                ASSERT_TRUE(rig.db->scan(key, 20, &got).isOk());
            }
            for (auto it = model.lower_bound(key);
                 it != model.end() && want.size() < 20; ++it)
                want.emplace_back(it->first, it->second);
            ASSERT_EQ(got, want);
        }
    }
    EXPECT_EQ(rig.db->stats().counterDelta(before, "prism.shard.0.ops"),
              kOps);
    ASSERT_EQ(rig.db->size(), model.size());
    std::vector<std::pair<uint64_t, std::string>> all;
    ASSERT_TRUE(rig.db->scan(0, 100000, &all).isOk());
    const std::vector<std::pair<uint64_t, std::string>> want(model.begin(),
                                                             model.end());
    ASSERT_EQ(all, want);
}

TEST(ShardRouterTest, OccupancyGaugesSumOverShards)
{
    RouterRig rig(4);
    for (uint64_t k = 0; k < 2000; k++)
        ASSERT_TRUE(rig.db->put(k, valueFor(k, 0)).isOk());
    rig.db->flushAll();  // write-back admission fills every SVC
    // New keys (an update would retire an SVC copy in the background),
    // well under the reclaim watermark: the PWBs hold bytes that stay
    // put while the gauges are compared.
    for (uint64_t k = 10000; k < 10064; k++)
        ASSERT_TRUE(rig.db->put(k, valueFor(k, 1)).isOk());
    for (size_t i = 0; i < rig.db->shardCount(); i++)
        rig.db->shard(i).svc().drainForTest();

    rig.db->publishOccupancy();
    uint64_t pwb_used = 0, pwb_cap = 0, svc_used = 0, svc_cap = 0;
    for (size_t i = 0; i < rig.db->shardCount(); i++) {
        PrismDb &s = rig.db->shard(i);
        pwb_used += s.pwbUsedBytes();
        pwb_cap += s.pwbCapacityBytes();
        svc_used += s.svc().usedBytes();
        svc_cap += s.svc().capacityBytes();
    }
    ASSERT_GT(pwb_used, 0u);
    ASSERT_GT(svc_used, 0u);
    const auto snap = rig.db->stats();
    EXPECT_EQ(snap.gauge("prism.pwb.used_bytes"),
              static_cast<int64_t>(pwb_used));
    EXPECT_EQ(snap.gauge("prism.pwb.capacity_bytes"),
              static_cast<int64_t>(pwb_cap));
    EXPECT_EQ(snap.gauge("prism.svc.used_bytes"),
              static_cast<int64_t>(svc_used));
    EXPECT_EQ(snap.gauge("prism.svc.capacity_bytes"),
              static_cast<int64_t>(svc_cap));
}

TEST(ShardRouterTest, CrashBetweenShardRecoveries)
{
    constexpr int kShards = 4;
    PrismOptions opts = testOptions();
    std::map<uint64_t, std::string> model;
    std::vector<std::vector<uint8_t>> nvm_imgs(kShards);
    std::vector<std::vector<std::vector<uint8_t>>> ssd_imgs(kShards);

    {
        RouterRig rig(kShards, opts, /*tracked=*/true);
        Xorshift rng(31337);
        for (int i = 0; i < 2500; i++) {
            const uint64_t key = rng.nextUniform(4000);
            const std::string v =
                valueFor(key, static_cast<uint64_t>(i));
            ASSERT_TRUE(rig.db->put(key, v).isOk());
            model[key] = v;
        }
        for (int i = 0; i < 300; i++) {
            const uint64_t key = rng.nextUniform(4000);
            const bool hit = model.erase(key) > 0;
            ASSERT_EQ(rig.db->del(key).isOk(), hit);
        }
        // Quiesce, then capture every shard's durable crash image.
        rig.db->flushAll();
        for (int s = 0; s < kShards; s++) {
            rig.regions[static_cast<size_t>(s)]->snapshotDurableTo(
                nvm_imgs[static_cast<size_t>(s)]);
            for (const auto &ssd : rig.ssds[static_cast<size_t>(s)]) {
                ssd_imgs[static_cast<size_t>(s)].emplace_back();
                ssd->snapshotTo(ssd_imgs[static_cast<size_t>(s)].back());
            }
        }
    }

    // Rebuild all shard devices from the crash images.
    std::vector<ShardBackends> backends;
    std::vector<std::shared_ptr<pmem::PmemRegion>> regions2;
    for (int s = 0; s < kShards; s++) {
        auto nvm = std::make_shared<sim::NvmDevice>(
            kNvmBytes, sim::kOptaneDcpmmProfile, false);
        nvm->loadImage(nvm_imgs[static_cast<size_t>(s)].data(),
                       nvm_imgs[static_cast<size_t>(s)].size());
        regions2.push_back(
            std::make_shared<pmem::PmemRegion>(nvm, false));
        std::vector<std::shared_ptr<sim::SsdDevice>> dev;
        for (const auto &img : ssd_imgs[static_cast<size_t>(s)]) {
            auto d = std::make_shared<sim::SsdDevice>(
                kSsdBytes, sim::kSamsung980ProProfile, false);
            d->loadFrom(img);
            dev.push_back(std::move(d));
        }
        backends.push_back({regions2.back(), {dev.begin(), dev.end()}});
    }

    // "Kill between per-shard recoveries": recover shard 0 alone, then
    // destroy it before the other shards ever recover.
    {
        auto shard0 = ShardRouter::recover(opts, {backends[0]});
        ASSERT_GT(shard0->size(), 0u);
    }  // killed here

    // Second recovery attempt: the whole router, over the same device
    // objects (shard 0's region has now been through recovery twice).
    opts.shards = kShards;
    auto recovered = ShardRouter::recover(opts, std::move(backends));

    ASSERT_EQ(recovered->size(), model.size());
    for (const auto &[k, v] : model) {
        std::string got;
        ASSERT_TRUE(recovered->get(k, &got).isOk()) << "key " << k;
        EXPECT_EQ(got, v) << "key " << k;
    }
    std::vector<std::pair<uint64_t, std::string>> scanned;
    ASSERT_TRUE(recovered->scan(0, model.size() + 10, &scanned).isOk());
    ASSERT_EQ(scanned.size(), model.size());
    auto it = model.begin();
    for (const auto &[k, v] : scanned) {
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
    }
    // And it stays writable.
    ASSERT_TRUE(recovered->put(1, "post-recovery").isOk());
}

TEST(BgPoolFairness, RoundRobinAcrossSources)
{
    BgPool pool(1);
    const int src_a = pool.allocSource();
    const int src_b = pool.allocSource();
    ASSERT_NE(src_a, src_b);
    ASSERT_GE(pool.sources(), 3);  // 0 + the two above

    // Gate the lone worker, queue a burst from A then a burst from B,
    // release, and record execution order.
    std::atomic<bool> gate{false};
    std::atomic<int> done{0};
    std::mutex order_mu;
    std::vector<int> order;
    pool.submit([&] {
        while (!gate.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    constexpr int kPerSource = 8;
    for (int i = 0; i < kPerSource; i++)
        pool.submit(src_a, [&, i] {
            std::lock_guard<std::mutex> l(order_mu);
            order.push_back(src_a * 1000 + i);
            done.fetch_add(1);
        });
    for (int i = 0; i < kPerSource; i++)
        pool.submit(src_b, [&, i] {
            std::lock_guard<std::mutex> l(order_mu);
            order.push_back(src_b * 1000 + i);
            done.fetch_add(1);
        });
    gate.store(true, std::memory_order_release);
    while (done.load() < 2 * kPerSource)
        std::this_thread::yield();

    std::lock_guard<std::mutex> l(order_mu);
    ASSERT_EQ(order.size(), 2u * kPerSource);
    // Round-robin: while both sources have work queued, the worker
    // must alternate — an all-A-then-all-B order would mean FIFO.
    // Per-source order must be FIFO regardless.
    std::vector<int> seen_a, seen_b;
    for (const int tag : order)
        (tag / 1000 == src_a ? seen_a : seen_b).push_back(tag % 1000);
    for (int i = 0; i < kPerSource; i++) {
        EXPECT_EQ(seen_a[static_cast<size_t>(i)], i);
        EXPECT_EQ(seen_b[static_cast<size_t>(i)], i);
    }
    for (size_t i = 0; i + 1 < order.size(); i++) {
        // Strict alternation while both queues are non-empty: the first
        // 2*kPerSource - 1 adjacent pairs must switch source.
        EXPECT_NE(order[i] / 1000, order[i + 1] / 1000)
            << "position " << i << ": a source ran twice in a row "
               "while the other still had queued work";
    }
}

TEST(BgPoolFairness, QueueDelayHistogramRecorded)
{
    const auto before = stats::StatsRegistry::global().snapshot();
    const auto *h0 = before.histogram("prism.bg.queue_delay_ns");
    const uint64_t count0 = h0 != nullptr ? h0->count : 0;

    BgPool pool(2);
    const int src = pool.allocSource();
    std::atomic<int> done{0};
    for (int i = 0; i < 32; i++)
        pool.submit(src, [&] { done.fetch_add(1); });
    while (done.load() < 32)
        std::this_thread::yield();
    pool.shutdown();

    const auto after = stats::StatsRegistry::global().snapshot();
    const auto *h1 = after.histogram("prism.bg.queue_delay_ns");
    ASSERT_NE(h1, nullptr);
    EXPECT_GE(h1->count, count0 + 32);
}

TEST(Numa, FakeTopologySplitsCpus)
{
    ASSERT_EQ(setenv("PRISM_NUMA_FAKE", "2", 1), 0);
    const numa::Topology fake = numa::probeNow();
    ASSERT_EQ(unsetenv("PRISM_NUMA_FAKE"), 0);

    EXPECT_TRUE(fake.fake);
    EXPECT_GE(fake.nodes(), 1);
    EXPECT_LE(fake.nodes(), 2);  // clamped to online CPU count
    size_t cpus = 0;
    for (const auto &node : fake.node_cpus) {
        EXPECT_FALSE(node.empty());
        cpus += node.size();
    }
    const numa::Topology real = numa::probeNow();
    EXPECT_FALSE(real.fake);
    size_t real_cpus = 0;
    for (const auto &node : real.node_cpus)
        real_cpus += node.size();
    EXPECT_EQ(cpus, real_cpus);  // same CPUs, different grouping
}

TEST(Numa, PlacementBasics)
{
    EXPECT_GE(numa::nodeCount(), 1);
    EXPECT_FALSE(numa::describe().empty());
    // -1 ("anywhere") and out-of-range nodes never pin.
    EXPECT_FALSE(numa::pinThreadToNode(-1));
    EXPECT_FALSE(numa::pinThreadToNode(numa::nodeCount() + 7));
    for (size_t i = 0; i < 8; i++) {
        const int node = numa::nodeForShard(i, 8);
        if (numa::nodeCount() <= 1)
            EXPECT_EQ(node, -1);
        else
            EXPECT_EQ(node, static_cast<int>(
                                i % static_cast<size_t>(
                                        numa::nodeCount())));
    }
}

}  // namespace
}  // namespace prism::core
