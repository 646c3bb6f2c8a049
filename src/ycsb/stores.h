/**
 * @file
 * Store fixtures: build each evaluated system — Prism, KVell,
 * MatrixKV, RocksDB-NVM, RocksDB(SSD), SLM-DB — on freshly simulated
 * devices behind the common KvStore interface.
 *
 * Memory budgets follow the cost-parity configuration of Table 1
 * (fractions of the dataset size, matching the paper's $170 setups):
 *
 *   Prism     : DRAM cache 20%, NVM write buffer 16%
 *   KVell     : DRAM cache 32%, no NVM
 *   MatrixKV  : DRAM cache 26%, NVM (L0 + WAL) 8%
 *   RocksDB-NVM: DRAM cache 26%, all tables + WAL on NVM (a deliberately
 *               over-provisioned reference point, as in §7.1)
 */
#pragma once

#include <memory>
#include <optional>

#include "core/shard_router.h"
#include "kvell/kvell.h"
#include "sim/device_profile.h"
#include "lsm/lsm_tree.h"
#include "lsm/slm_db.h"
#include "ycsb/kv_interface.h"

namespace prism::ycsb {

/** Common fixture sizing. */
struct FixtureOptions {
    int num_ssds = 4;
    uint64_t ssd_bytes = 2ull * 1024 * 1024 * 1024;
    /** Dataset size the cache budgets are derived from. */
    uint64_t dataset_bytes = 1ull * 1024 * 1024 * 1024;
    /** Model device latency/bandwidth in real time. */
    bool model_timing = true;
    /** Timing profile for the SSDs (default: Samsung 980 Pro). */
    sim::DeviceProfile ssd_profile = sim::kSamsung980ProProfile;
    /** Threads expected, used to split Prism's NVM budget into PWBs. */
    int expected_threads = 8;
    /**
     * Derive Prism's PWB/SVC budgets from dataset_bytes per Table 1.
     * Benches that sweep those budgets set this to false and pass
     * explicit values in PrismOptions.
     */
    bool derive_prism_budgets = true;
};

/**
 * Prism fixture. Always built through core::ShardRouter —
 * PrismOptions::shards (or $PRISM_SHARDS) picks the shard count, and 1
 * (the default) is the plain single store. Each
 * shard gets its own NVM region and an exclusive slice of the device
 * fleet; budgets (PWB/SVC/HSIT) are divided per shard so the sharded
 * store's total cost matches the unsharded one at the same fixture
 * size (cost parity, Table 1).
 */
class PrismStore : public KvStore {
  public:
    PrismStore(const FixtureOptions &fx, core::PrismOptions opts);

    std::string name() const override { return "Prism"; }
    Status put(uint64_t key, std::string_view value) override {
        return router_->put(key, value);
    }
    Status get(uint64_t key, std::string *value) override {
        return router_->get(key, value);
    }
    Status del(uint64_t key) override { return router_->del(key); }
    Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        return router_->scan(start, count, out);
    }
    Status
    multiGet(const std::vector<uint64_t> &keys,
             std::vector<std::optional<std::string>> *out) override
    {
        return router_->multiGet(keys, out);
    }
    void flushAll() override { router_->flushAll(); }
    uint64_t ssdBytesWritten() const override {
        return router_->ssdBytesWritten();
    }
    /** prism.user_bytes_written since the fixture was built. */
    uint64_t userBytesWritten() const override {
        return user_bytes_->value() - user_bytes_base_;
    }

    // Native async engine (core/async.h) instead of the sync-wrapping
    // defaults: SSD misses stay in flight.
    core::OpFuture
    asyncPut(uint64_t key, std::string_view value,
             core::AsyncCallback cb = nullptr) override
    {
        return router_->asyncPut(key, value, std::move(cb));
    }
    core::OpFuture
    asyncGet(uint64_t key, core::AsyncCallback cb = nullptr) override
    {
        return router_->asyncGet(key, std::move(cb));
    }
    core::OpFuture
    asyncDel(uint64_t key, core::AsyncCallback cb = nullptr) override
    {
        return router_->asyncDel(key, std::move(cb));
    }
    core::OpFuture
    asyncScan(uint64_t start_key, size_t count,
              core::AsyncCallback cb = nullptr) override
    {
        return router_->asyncScan(start_key, count, std::move(cb));
    }

    /** The store behind the fixture. */
    core::ShardRouter &router() { return *router_; }
    /** Shard 0's NVM region (single-shard crash tests). */
    std::shared_ptr<pmem::PmemRegion> region() { return regions_[0]; }
    /** All per-shard NVM regions, shard-major. */
    const std::vector<std::shared_ptr<pmem::PmemRegion>> &regions() const {
        return regions_;
    }
    /** Simulator fleet (flat, shard-major); empty with file backends. */
    std::vector<std::shared_ptr<sim::SsdDevice>> &ssds() { return ssds_; }
    /** The devices actually backing the store, flat and shard-major. */
    const std::vector<std::shared_ptr<io::IoBackend>> &devices() const {
        return devices_;
    }

    /** Simulated crash + recovery; @return recovery nanoseconds. */
    uint64_t crashAndRecover(const core::PrismOptions &opts);

  private:
    std::vector<core::ShardBackends> shardBackends() const;

    int shards_ = 1;
    std::vector<std::shared_ptr<sim::NvmDevice>> nvms_;
    std::vector<std::shared_ptr<pmem::PmemRegion>> regions_;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds_;
    std::vector<std::shared_ptr<io::IoBackend>> devices_;
    /** devices_ split per shard (exclusive ownership). */
    std::vector<std::vector<std::shared_ptr<io::IoBackend>>>
        shard_devices_;
    std::unique_ptr<core::ShardRouter> router_;
    stats::Counter *user_bytes_ = nullptr;
    uint64_t user_bytes_base_ = 0;
};

/** KVell fixture. */
class KvellStore : public KvStore {
  public:
    KvellStore(const FixtureOptions &fx, kvell::KvellOptions opts);

    std::string name() const override { return "KVell"; }
    Status put(uint64_t key, std::string_view value) override {
        return db_->put(key, value);
    }
    Status get(uint64_t key, std::string *value) override {
        return db_->get(key, value);
    }
    Status del(uint64_t key) override { return db_->del(key); }
    Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        return db_->scan(start, count, out);
    }
    uint64_t ssdBytesWritten() const override {
        return db_->ssdBytesWritten();
    }
    uint64_t userBytesWritten() const override {
        return db_->stats().user_bytes_written.load(
            std::memory_order_relaxed);
    }

    kvell::Kvell &db() { return *db_; }

  private:
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds_;
    std::unique_ptr<kvell::Kvell> db_;
};

/** LSM configurations from the paper. */
enum class LsmFlavor { kRocksDbSsd, kRocksDbNvm, kMatrixKv };

/** RocksDB / RocksDB-NVM / MatrixKV fixture. */
class LsmStore : public KvStore {
  public:
    LsmStore(const FixtureOptions &fx, LsmFlavor flavor,
             lsm::LsmOptions opts);

    std::string name() const override;
    Status put(uint64_t key, std::string_view value) override {
        return db_->put(key, value);
    }
    Status get(uint64_t key, std::string *value) override {
        return db_->get(key, value);
    }
    Status del(uint64_t key) override { return db_->del(key); }
    Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        return db_->scan(start, count, out);
    }
    void flushAll() override { db_->flushAll(); }
    uint64_t ssdBytesWritten() const override {
        return db_->ssdBytesWritten();
    }
    uint64_t userBytesWritten() const override {
        return db_->stats().user_bytes_written.load(
            std::memory_order_relaxed);
    }

    lsm::LsmTree &db() { return *db_; }

  private:
    LsmFlavor flavor_;
    std::shared_ptr<sim::NvmDevice> nvm_;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds_;
    std::shared_ptr<sim::SsdArray> array_;
    std::unique_ptr<lsm::LsmTree> db_;
};

/** SLM-DB fixture (single-threaded use only, as in §7.4). */
class SlmDbStore : public KvStore {
  public:
    SlmDbStore(const FixtureOptions &fx, lsm::SlmDbOptions opts);

    std::string name() const override { return "SLM-DB"; }
    Status put(uint64_t key, std::string_view value) override {
        user_bytes_ += value.size();
        return db_->put(key, value);
    }
    Status get(uint64_t key, std::string *value) override {
        return db_->get(key, value);
    }
    Status del(uint64_t key) override { return db_->del(key); }
    Status
    scan(uint64_t start, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        return db_->scan(start, count, out);
    }
    void flushAll() override { db_->flushAll(); }
    uint64_t ssdBytesWritten() const override {
        return db_->ssdBytesWritten();
    }
    uint64_t userBytesWritten() const override { return user_bytes_; }

    lsm::SlmDb &db() { return *db_; }

  private:
    std::shared_ptr<sim::NvmDevice> nvm_;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds_;
    std::shared_ptr<sim::SsdArray> array_;
    std::unique_ptr<lsm::SlmDb> db_;
    uint64_t user_bytes_ = 0;
};

}  // namespace prism::ycsb
