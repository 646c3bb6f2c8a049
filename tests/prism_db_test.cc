/**
 * @file
 * Integration tests for a single-shard store (ShardRouter over one
 * PrismDb): basic operations, persistence across restart, reclamation,
 * cache behaviour, and concurrency.
 */
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

/** A small store on fast (untimed) simulated devices. */
struct TestStore {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<ShardRouter> db;
    PrismOptions opts;
    stats::StatsSnapshot base;  ///< registry at open(); see counter()

    explicit TestStore(int num_ssds = 2, bool open_now = true)
    {
        opts.pwb_size_bytes = 1 * 1024 * 1024;
        opts.svc_capacity_bytes = 4 * 1024 * 1024;
        opts.hsit_capacity = 64 * 1024;
        opts.chunk_bytes = 64 * 1024;
        nvm = std::make_shared<sim::NvmDevice>(
            128ull * 1024 * 1024, sim::kOptaneDcpmmProfile,
            /*model_timing=*/false);
        region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
        for (int i = 0; i < num_ssds; i++) {
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                64ull * 1024 * 1024, sim::kSamsung980ProProfile,
                /*model_timing=*/false));
        }
        if (open_now)
            open();
    }

    std::vector<ShardBackends>
    backends() const
    {
        return {{region, {ssds.begin(), ssds.end()}}};
    }

    void
    open()
    {
        db = ShardRouter::open(opts, backends());
        base = db->stats();
    }

    /** Orderly restart (no crash): destroy and recover on same media. */
    void
    restart()
    {
        db.reset();
        db = ShardRouter::recover(opts, backends());
    }

    /** Change in a registry counter since open(). */
    uint64_t
    counter(std::string_view name) const
    {
        return db->stats().counterDelta(base, name);
    }
};

std::string
valueFor(uint64_t key, size_t size = 128)
{
    std::string v(size, '\0');
    for (size_t i = 0; i < size; i++)
        v[i] = static_cast<char>('a' + (key + i) % 26);
    return v;
}

TEST(PrismDbTest, PutGetRoundtrip)
{
    TestStore ts;
    ASSERT_TRUE(ts.db->put(42, "hello prism").isOk());
    std::string v;
    ASSERT_TRUE(ts.db->get(42, &v).isOk());
    EXPECT_EQ(v, "hello prism");
}

TEST(PrismDbTest, GetMissingReturnsNotFound)
{
    TestStore ts;
    std::string v;
    EXPECT_TRUE(ts.db->get(7, &v).isNotFound());
}

TEST(PrismDbTest, UpdateReplacesValue)
{
    TestStore ts;
    ASSERT_TRUE(ts.db->put(1, "first").isOk());
    ASSERT_TRUE(ts.db->put(1, "second").isOk());
    std::string v;
    ASSERT_TRUE(ts.db->get(1, &v).isOk());
    EXPECT_EQ(v, "second");
    EXPECT_EQ(ts.db->size(), 1u);
}

TEST(PrismDbTest, DeleteRemovesKey)
{
    TestStore ts;
    ASSERT_TRUE(ts.db->put(5, "gone soon").isOk());
    ASSERT_TRUE(ts.db->del(5).isOk());
    std::string v;
    EXPECT_TRUE(ts.db->get(5, &v).isNotFound());
    EXPECT_TRUE(ts.db->del(5).isNotFound());
}

TEST(PrismDbTest, ManyKeysSurviveReclamation)
{
    TestStore ts;
    constexpr uint64_t kKeys = 20000;  // >> PWB capacity, forces reclaim
    for (uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk()) << k;
    EXPECT_EQ(ts.db->size(), kKeys);
    for (uint64_t k = 0; k < kKeys; k += 7) {
        std::string v;
        ASSERT_TRUE(ts.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v, valueFor(k)) << k;
    }
    EXPECT_GT(ts.counter("prism.pwb.reclaim_passes"), 0u);
}

TEST(PrismDbTest, UpdatesDedupOnReclaim)
{
    TestStore ts;
    // Hammer a small key set; reclamation should skip superseded
    // versions (append-only dedup, §4.3).
    for (int round = 0; round < 200; round++) {
        for (uint64_t k = 0; k < 100; k++)
            ASSERT_TRUE(ts.db->put(k, valueFor(k + round)).isOk());
    }
    ts.db->flushAll();
    EXPECT_GT(ts.counter("prism.pwb.reclaim_skipped_stale"), 0u);
    for (uint64_t k = 0; k < 100; k++) {
        std::string v;
        ASSERT_TRUE(ts.db->get(k, &v).isOk());
        EXPECT_EQ(v, valueFor(k + 199));
    }
}

TEST(PrismDbTest, ScanReturnsSortedRange)
{
    TestStore ts;
    for (uint64_t k = 0; k < 1000; k++)
        ASSERT_TRUE(ts.db->put(k * 10, valueFor(k)).isOk());
    std::vector<std::pair<uint64_t, std::string>> out;
    ASSERT_TRUE(ts.db->scan(500, 20, &out).isOk());
    ASSERT_EQ(out.size(), 20u);
    EXPECT_EQ(out[0].first, 500u);
    for (size_t i = 1; i < out.size(); i++)
        EXPECT_LT(out[i - 1].first, out[i].first);
    for (const auto &[k, v] : out)
        EXPECT_EQ(v, valueFor(k / 10));
}

TEST(PrismDbTest, ScanAfterReclaimReadsFromSsd)
{
    // SVC off: reclamation write-back admission would otherwise keep
    // serving these values from DRAM, and this test pins the SSD path.
    TestStore ts(2, /*open_now=*/false);
    ts.opts.enable_svc = false;
    ts.open();
    for (uint64_t k = 0; k < 5000; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    ts.db->flushAll();  // everything to Value Storage
    std::vector<std::pair<uint64_t, std::string>> out;
    ASSERT_TRUE(ts.db->scan(100, 50, &out).isOk());
    ASSERT_EQ(out.size(), 50u);
    for (const auto &[k, v] : out)
        EXPECT_EQ(v, valueFor(k));
    EXPECT_GT(ts.counter("prism.get.vs_reads"), 0u);
}

/**
 * Every Value Storage read goes through the SSD's read queue: a scan and
 * a multiGet whose K records sit apart on one SSD reach the device in
 * ceil(K / read_queue_depth) batches under either batching policy.
 */
TEST(PrismDbTest, ScanAndMultiGetBatchThroughReadQueue)
{
    constexpr uint64_t kRecords = 20;
    constexpr int kQueueDepth = 8;
    constexpr uint64_t kBatches = (kRecords + kQueueDepth - 1) / kQueueDepth;
    for (const ReadBatchMode mode : {ReadBatchMode::kThreadCombining,
                                     ReadBatchMode::kTimeoutAsync}) {
        SCOPED_TRACE(static_cast<int>(mode));
        TestStore ts(/*num_ssds=*/1, /*open_now=*/false);
        ts.opts.enable_svc = false;  // every read reaches the SSD
        ts.opts.read_batch_mode = mode;
        ts.opts.read_queue_depth = kQueueDepth;
        ts.open();
        // A filler key after each record keeps the scanned records apart
        // on the SSD, so span merging leaves one read per record.
        std::vector<uint64_t> keys;
        for (uint64_t k = 0; k < kRecords; k++) {
            ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
            ASSERT_TRUE(ts.db->put(1000 + k, valueFor(1000 + k)).isOk());
            keys.push_back(k);
        }
        ts.db->flushAll();

        uint64_t batches = ts.counter("prism.tcq.batches");
        std::vector<std::pair<uint64_t, std::string>> rows;
        ASSERT_TRUE(ts.db->scan(0, kRecords, &rows).isOk());
        ASSERT_EQ(rows.size(), kRecords);
        for (uint64_t k = 0; k < kRecords; k++)
            EXPECT_EQ(rows[k].second, valueFor(k)) << k;
        EXPECT_EQ(ts.counter("prism.tcq.batches") - batches, kBatches);

        batches = ts.counter("prism.tcq.batches");
        std::vector<std::optional<std::string>> out;
        ASSERT_TRUE(ts.db->multiGet(keys, &out).isOk());
        for (uint64_t k = 0; k < kRecords; k++) {
            ASSERT_TRUE(out[k].has_value()) << k;
            EXPECT_EQ(*out[k], valueFor(k)) << k;
        }
        EXPECT_EQ(ts.counter("prism.tcq.batches") - batches, kBatches);
    }
}

TEST(PrismDbTest, RestartRecoversData)
{
    TestStore ts;
    for (uint64_t k = 0; k < 3000; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    ts.restart();
    EXPECT_EQ(ts.db->size(), 3000u);
    for (uint64_t k = 0; k < 3000; k += 13) {
        std::string v;
        ASSERT_TRUE(ts.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v, valueFor(k));
    }
    EXPECT_GT(ts.db->recoveryTimeNs(), 0u);
}

TEST(PrismDbTest, RestartAfterUpdatesKeepsLatest)
{
    TestStore ts;
    for (uint64_t k = 0; k < 500; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    for (uint64_t k = 0; k < 500; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k + 1000)).isOk());
    ts.restart();
    for (uint64_t k = 0; k < 500; k += 3) {
        std::string v;
        ASSERT_TRUE(ts.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v, valueFor(k + 1000));
    }
}

TEST(PrismDbTest, RestartAfterDeletes)
{
    TestStore ts;
    for (uint64_t k = 0; k < 1000; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    for (uint64_t k = 0; k < 1000; k += 2)
        ASSERT_TRUE(ts.db->del(k).isOk());
    ts.restart();
    EXPECT_EQ(ts.db->size(), 500u);
    std::string v;
    EXPECT_TRUE(ts.db->get(0, &v).isNotFound());
    EXPECT_TRUE(ts.db->get(1, &v).isOk());
}

TEST(PrismDbTest, SvcServesRepeatedReads)
{
    TestStore ts;
    for (uint64_t k = 0; k < 2000; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    ts.db->flushAll();
    std::string v;
    ASSERT_TRUE(ts.db->get(77, &v).isOk());   // SSD read + admission
    ASSERT_TRUE(ts.db->get(77, &v).isOk());   // should hit the SVC
    EXPECT_EQ(v, valueFor(77));
    EXPECT_GT(ts.counter("prism.svc.hits"), 0u);
}

TEST(PrismDbTest, SvcNeverServesStaleAfterUpdate)
{
    TestStore ts;
    ASSERT_TRUE(ts.db->put(9, valueFor(9)).isOk());
    ts.db->flushAll();
    std::string v;
    ASSERT_TRUE(ts.db->get(9, &v).isOk());  // cached now
    ASSERT_TRUE(ts.db->put(9, "fresh").isOk());
    ASSERT_TRUE(ts.db->get(9, &v).isOk());
    EXPECT_EQ(v, "fresh");
}

TEST(PrismDbTest, LargeValuesRoundtrip)
{
    TestStore ts;
    const std::string big(40000, 'x');
    ASSERT_TRUE(ts.db->put(1, big).isOk());
    std::string v;
    ASSERT_TRUE(ts.db->get(1, &v).isOk());
    EXPECT_EQ(v, big);
    // Over the limit must be rejected cleanly.
    const std::string huge(70000, 'y');
    EXPECT_EQ(ts.db->put(2, huge).code(), StatusCode::kInvalidArgument);
}

TEST(PrismDbTest, GarbageCollectionReclaimsChunks)
{
    TestStore ts(1);
    // Overwrite a working set larger than... enough to push the single
    // 64 MB Value Storage towards its GC watermark repeatedly.
    for (int round = 0; round < 30; round++) {
        for (uint64_t k = 0; k < 4000; k++)
            ASSERT_TRUE(ts.db->put(k, valueFor(k + round, 512)).isOk());
        ts.db->flushAll();
    }
    ts.db->forceGc();
    for (uint64_t k = 0; k < 4000; k += 17) {
        std::string v;
        ASSERT_TRUE(ts.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v, valueFor(k + 29, 512)) << k;
    }
}

TEST(PrismDbTest, ConcurrentWritersDisjointKeys)
{
    TestStore ts;
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerThread; i++) {
                const uint64_t key = static_cast<uint64_t>(t) * 1000000 + i;
                ASSERT_TRUE(ts.db->put(key, valueFor(key)).isOk());
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(ts.db->size(), kThreads * kPerThread);
    for (int t = 0; t < kThreads; t++) {
        for (uint64_t i = 0; i < kPerThread; i += 97) {
            const uint64_t key = static_cast<uint64_t>(t) * 1000000 + i;
            std::string v;
            ASSERT_TRUE(ts.db->get(key, &v).isOk());
            EXPECT_EQ(v, valueFor(key));
        }
    }
}

TEST(PrismDbTest, ConcurrentReadersAndWriters)
{
    TestStore ts;
    for (uint64_t k = 0; k < 1000; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        uint64_t round = 1;
        while (!stop.load()) {
            for (uint64_t k = 0; k < 1000; k += 10)
                ts.db->put(k, valueFor(k + round));
            round++;
        }
    });
    std::thread reader([&] {
        while (!stop.load()) {
            for (uint64_t k = 0; k < 1000; k += 3) {
                std::string v;
                const Status st = ts.db->get(k, &v);
                ASSERT_TRUE(st.isOk()) << st.toString();
                ASSERT_EQ(v.size(), 128u);
            }
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    writer.join();
    reader.join();
}

TEST(PrismDbTest, DetectsCorruptedSsdRecord)
{
    // SVC off: a write-back-admitted DRAM copy would mask the flipped
    // byte; corruption detection lives on the device read path.
    TestStore ts(1, /*open_now=*/false);
    ts.opts.enable_svc = false;
    ts.open();
    for (uint64_t k = 0; k < 2000; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    ts.db->flushAll();

    // Locate a value on SSD through the store's own metadata and flip a
    // payload byte directly on the device.
    PrismDb &shard = ts.db->shard(0);
    const auto h = shard.keyIndex().lookup(123);
    ASSERT_TRUE(h.has_value());
    const core::ValueAddr addr = shard.hsit().loadPrimary(*h);
    ASSERT_TRUE(addr.isVs());
    uint8_t byte;
    const uint64_t victim_off =
        addr.offset() + sizeof(core::ValueRecordHeader) + 5;
    ts.ssds[addr.ssdId()]->readSync(victim_off, &byte, 1);
    byte ^= 0xFF;
    ts.ssds[addr.ssdId()]->writeSync(victim_off, &byte, 1);

    std::string v;
    const Status st = ts.db->get(123, &v);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.toString();
    // Other keys remain readable.
    EXPECT_TRUE(ts.db->get(124, &v).isOk());
}

TEST(PrismDbTest, StatsAccounting)
{
    TestStore ts;
    for (uint64_t k = 0; k < 100; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    std::string v;
    for (uint64_t k = 0; k < 100; k++)
        ASSERT_TRUE(ts.db->get(k, &v).isOk());
    EXPECT_EQ(ts.counter("prism.puts"), 100u);
    EXPECT_EQ(ts.counter("prism.gets"), 100u);
    // All values still in PWB: reads are NVM hits.
    EXPECT_EQ(ts.counter("prism.get.pwb_hits"), 100u);
    EXPECT_GT(ts.db->nvmIndexBytes(), 0u);
}

}  // namespace
}  // namespace prism::core
