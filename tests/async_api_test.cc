/**
 * @file
 * Async request pipeline tests (core/async.h, ShardRouter::async*).
 *
 * Covers the tentpole contract: one caller thread keeps hundreds of
 * gets in flight (>= 128 concurrently, measured via asyncInflight()
 * against timed devices), async results agree with the blocking API,
 * callbacks fire with the completion status, scans run on the
 * background pool, and the KvStore sync-wrapping defaults give every
 * baseline the same API with always-ready futures.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/async.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"
#include "ycsb/kv_interface.h"

namespace prism::core {
namespace {

struct TestStore {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<ShardRouter> db;
    PrismOptions opts;

    explicit TestStore(bool model_timing = false, bool enable_svc = true)
    {
        opts.pwb_size_bytes = 1 * 1024 * 1024;
        opts.svc_capacity_bytes = 4 * 1024 * 1024;
        opts.enable_svc = enable_svc;
        opts.hsit_capacity = 64 * 1024;
        opts.chunk_bytes = 64 * 1024;
        nvm = std::make_shared<sim::NvmDevice>(
            128ull * 1024 * 1024, sim::kOptaneDcpmmProfile,
            /*model_timing=*/false);
        region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
        ssds.push_back(std::make_shared<sim::SsdDevice>(
            64ull * 1024 * 1024, sim::kSamsung980ProProfile,
            model_timing));
        db = ShardRouter::open(opts, {{region, {ssds.begin(), ssds.end()}}});
    }
};

std::string
valueFor(uint64_t key, size_t size = 512)
{
    std::string v(size, '\0');
    for (size_t i = 0; i < size; i++)
        v[i] = static_cast<char>('a' + (key + i) % 26);
    return v;
}

TEST(AsyncApi, PutGetDelRoundtrip)
{
    TestStore ts;
    OpFuture put = ts.db->asyncPut(42, "hello async");
    ASSERT_TRUE(put.valid());
    EXPECT_TRUE(put.wait().isOk());

    OpFuture get = ts.db->asyncGet(42);
    EXPECT_TRUE(get.wait().isOk());
    EXPECT_EQ(get.value(), "hello async");

    EXPECT_TRUE(ts.db->asyncDel(42).wait().isOk());
    EXPECT_TRUE(ts.db->asyncGet(42).wait().isNotFound());
    EXPECT_EQ(ts.db->asyncInflight(), 0u);
}

TEST(AsyncApi, CallbackFiresWithCompletionStatus)
{
    TestStore ts;
    ASSERT_TRUE(ts.db->put(7, "cb").isOk());

    std::atomic<int> calls{0};
    Status seen;
    OpFuture f = ts.db->asyncGet(7, [&](const Status &st) {
        seen = st;
        calls.fetch_add(1, std::memory_order_release);
    });
    f.wait();
    EXPECT_EQ(calls.load(std::memory_order_acquire), 1);
    EXPECT_TRUE(seen.isOk());
    EXPECT_EQ(f.value(), "cb");

    std::atomic<int> miss_calls{0};
    ts.db->asyncGet(9999, [&](const Status &st) {
        EXPECT_TRUE(st.isNotFound());
        miss_calls.fetch_add(1, std::memory_order_release);
    }).wait();
    EXPECT_EQ(miss_calls.load(std::memory_order_acquire), 1);
}

/**
 * The tentpole claim: one thread, hundreds of gets in flight at once.
 * Timed devices with the SVC off (so every get actually goes to the
 * device); all values are pushed out of the PWBs first, and the
 * "ssd.<n>.latency" fault site pins service time at 2 ms per read so
 * the measurement is deterministic. The peak of asyncInflight() while
 * the issue loop runs must reach 128 — a blocking caller would never
 * exceed 1.
 */
TEST(AsyncApi, SustainsManyInflightGetsFromOneThread)
{
    TestStore ts(/*model_timing=*/true, /*enable_svc=*/false);
    constexpr uint64_t kKeys = 512;
    for (uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    ts.db->flushAll();  // relocate every value into Value Storage

    auto &freg = fault::FaultRegistry::global();
    freg.disarmAll();
    fault::FaultSpec slow;
    slow.trigger = fault::Trigger::kEvery;
    slow.n = 1;
    slow.payload = 2'000'000;  // +2 ms service latency per request
    freg.arm("ssd." + std::to_string(ts.ssds[0]->deviceNumber()) +
                 ".latency",
             slow);

    std::vector<OpFuture> futures;
    futures.reserve(kKeys);
    uint64_t peak = 0;
    for (uint64_t k = 0; k < kKeys; k++) {
        futures.push_back(ts.db->asyncGet(k));
        peak = std::max(peak, ts.db->asyncInflight());
    }
    EXPECT_GE(peak, 128u) << "async gets are not overlapping";
    freg.disarmAll();

    for (uint64_t k = 0; k < kKeys; k++) {
        const Status &st = futures[k].wait();
        ASSERT_TRUE(st.isOk()) << "key " << k << ": " << st.message();
        EXPECT_EQ(futures[k].value(), valueFor(k)) << "key " << k;
    }
    EXPECT_EQ(ts.db->asyncInflight(), 0u);
}

/** Blocking API and async API agree op-for-op under a mixed workload. */
TEST(AsyncApi, AgreesWithBlockingApi)
{
    TestStore ts;
    std::map<uint64_t, std::string> model;
    std::mt19937_64 rng(20260809);

    for (int i = 0; i < 4000; i++) {
        const uint64_t key = rng() % 500;
        switch (rng() % 4) {
          case 0:
          case 1: {
            const std::string v = valueFor(key, 64 + rng() % 512);
            ASSERT_TRUE(ts.db->asyncPut(key, v).wait().isOk());
            model[key] = v;
            break;
          }
          case 2: {
            const Status st = ts.db->asyncDel(key).wait();
            if (model.erase(key) != 0)
                EXPECT_TRUE(st.isOk());
            else
                EXPECT_TRUE(st.isNotFound());
            break;
          }
          default: {
            OpFuture f = ts.db->asyncGet(key);
            std::string blocking;
            const Status bst = ts.db->get(key, &blocking);
            const Status &ast = f.wait();
            auto it = model.find(key);
            if (it != model.end()) {
                ASSERT_TRUE(ast.isOk());
                ASSERT_TRUE(bst.isOk());
                EXPECT_EQ(f.value(), it->second);
                EXPECT_EQ(blocking, it->second);
            } else {
                EXPECT_TRUE(ast.isNotFound());
                EXPECT_TRUE(bst.isNotFound());
            }
            break;
          }
        }
    }
    EXPECT_EQ(ts.db->size(), model.size());
}

TEST(AsyncApi, ScanMatchesBlockingScan)
{
    TestStore ts;
    for (uint64_t k = 100; k < 200; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());

    OpFuture f = ts.db->asyncScan(120, 30);
    std::vector<std::pair<uint64_t, std::string>> blocking;
    ASSERT_TRUE(ts.db->scan(120, 30, &blocking).isOk());
    ASSERT_TRUE(f.wait().isOk());
    EXPECT_EQ(f.rows(), blocking);
    ASSERT_EQ(f.rows().size(), 30u);
    EXPECT_EQ(f.rows().front().first, 120u);
}

/** Destruction with ops still in flight must drain, not crash. */
TEST(AsyncApi, CleanShutdownWithInflightOps)
{
    TestStore ts(/*model_timing=*/true, /*enable_svc=*/false);
    for (uint64_t k = 0; k < 128; k++)
        ASSERT_TRUE(ts.db->put(k, valueFor(k)).isOk());
    ts.db->flushAll();
    std::vector<OpFuture> futures;
    for (uint64_t k = 0; k < 128; k++)
        futures.push_back(ts.db->asyncGet(k));
    ts.db.reset();  // dtor waits for async_inflight_ to hit zero
    for (auto &f : futures)
        EXPECT_TRUE(f.status().isOk());
}

// ---------------------------------------------------------------------
// KvStore sync-wrapping defaults (ycsb/kv_interface.h).
// ---------------------------------------------------------------------

/** Minimal map-backed store that inherits the async defaults. */
class MapStore final : public ycsb::KvStore {
  public:
    std::string name() const override { return "map"; }
    Status put(uint64_t key, std::string_view value) override
    {
        map_[key] = std::string(value);
        return Status::ok();
    }
    Status get(uint64_t key, std::string *value) override
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return Status::notFound();
        *value = it->second;
        return Status::ok();
    }
    Status del(uint64_t key) override
    {
        return map_.erase(key) != 0 ? Status::ok() : Status::notFound();
    }
    Status
    scan(uint64_t start_key, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        for (auto it = map_.lower_bound(start_key);
             it != map_.end() && out->size() < count; ++it)
            out->push_back(*it);
        return Status::ok();
    }

  private:
    std::map<uint64_t, std::string> map_;
};

TEST(KvStoreAsyncDefaults, WrapBlockingCallsWithReadyFutures)
{
    MapStore store;
    OpFuture put = store.asyncPut(1, "one");
    EXPECT_TRUE(put.ready()) << "sync wrappers complete before returning";
    EXPECT_TRUE(put.status().isOk());

    bool called = false;
    OpFuture get = store.asyncGet(1, [&](const Status &st) {
        EXPECT_TRUE(st.isOk());
        called = true;
    });
    EXPECT_TRUE(get.ready());
    EXPECT_TRUE(called);
    EXPECT_EQ(get.value(), "one");

    EXPECT_TRUE(store.asyncDel(1).status().isOk());
    EXPECT_TRUE(store.asyncGet(1).status().isNotFound());

    for (uint64_t k = 10; k < 20; k++)
        store.put(k, "v");
    OpFuture scan = store.asyncScan(10, 5);
    EXPECT_TRUE(scan.ready());
    EXPECT_EQ(scan.rows().size(), 5u);
}

}  // namespace
}  // namespace prism::core
