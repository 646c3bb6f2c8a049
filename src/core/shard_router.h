/**
 * @file
 * ShardRouter — the public store handle: N independent PrismDb shards
 * behind one API (the KVell comparator's shared-nothing pattern applied
 * to Prism's full stack). N = 1 is the plain single store.
 *
 * Why: a single PrismDb tops out well below linear scaling because
 * every client thread contends on one PacTree directory, one SVC and
 * one HSIT. The router hash-partitions the key space over N shards —
 * each shard a complete PrismDb with its *own* pmem region, PWBs, SVC,
 * HSIT and an *exclusive* slice of the SSD fleet (a device never
 * serves two shards; each ValueStorage owns its device) — so the hot
 * structures are private per shard and only deliberately-shared pieces
 * remain shared:
 *
 *  - one BgPool for all shards, with per-shard round-robin fairness
 *    (each shard registers a BgPool source; see core/bg_pool.h), so
 *    background capacity follows load instead of being statically
 *    split N ways;
 *  - the process-wide stats registry, the only counter of every fact.
 *
 * Process-wide wiring: the router is the one owner of everything a
 * store arms beyond its shards — the fault registry ($PRISM_FAULTS),
 * the profiler ($PRISM_PROF_HZ), the crash handlers
 * ($PRISM_POSTMORTEM_DIR) and the HTTP ops server (obs_port). It only
 * ever raises process-wide state, and the destructor stops only what
 * this router started. Shards have no process-wide side effects.
 * The tracer is switched by its owner (TraceRegistry::setEnabled,
 * prism_cli `trace on`, a bench's --trace=), not by the store.
 *
 * Placement: on multi-node machines each shard is assigned a NUMA node
 * round-robin (common/numa.h) and its background threads (background
 * scheduler, VS completion) are pinned there; single-node machines
 * run unpinned. The assignment is surfaced per shard as
 * prism.shard.<n>.node and the per-shard key count as
 * prism.shard.<n>.keys (published by publishOccupancy()), plus a
 * prism.shard.<n>.ops counter on the routing hot path.
 *
 * Routing: shardOf(key) = hash64(key) & (N-1); N must be a power of
 * two. hash64 is splitmix64's finalizer — the same scrambling the YCSB
 * generators use, so partitions stay balanced even for dense
 * sequential key spaces. With N == 1 every router method forwards
 * straight to the single shard with no hashing, no fan-out machinery
 * and no merge.
 *
 * Cross-shard semantics:
 *  - scan(start, count): each shard returns its own count-smallest
 *    keys >= start (shards are internally sorted); the global
 *    count-smallest are a subset of that union, so a k-way heap merge
 *    of the per-shard runs, truncated to count, is exact.
 *  - multiGet(keys): keys are bucketed per shard (remembering caller
 *    positions), fanned out shard-parallel, and the results written
 *    back into caller order — the output is indistinguishable from a
 *    single-shard multiGet.
 *  - Consistency is per-key (exactly a shard's guarantee): there is no
 *    cross-shard snapshot.
 */
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/async.h"
#include "core/bg_pool.h"
#include "core/options.h"
#include "core/prism_db.h"
#include "io/io_backend.h"
#include "pmem/pmem_region.h"

namespace prism::obs {
class ObsServer;
struct HealthReport;
}  // namespace prism::obs

namespace prism::core {

/**
 * Aggregate fault/degradation posture of the store (docs/FAULTS.md):
 * how much injected-fault and retry machinery has engaged since the
 * process started, and whether any SSD is currently dropped out. The
 * counters are process-wide (like the stats registry), so per-run
 * accounting should diff two snapshots.
 */
struct ErrorBudget {
    uint64_t faults_fired = 0;        ///< prism.fault.fired
    uint64_t ssd_io_errors = 0;       ///< sim.ssd.io_errors (injected)
    uint64_t pwb_retries = 0;         ///< chunk-write retry submissions
    uint64_t pwb_write_failures = 0;  ///< chunks abandoned after retries
    uint64_t pwb_requeued_values = 0; ///< records clamped back into rings
    uint64_t vs_retries = 0;          ///< VS read retries / GC skips
    uint64_t vs_degraded = 0;         ///< GC passes skipped, sick device
    uint64_t bg_task_faults = 0;      ///< injected bg-task failures
    uint64_t degraded_devices = 0;    ///< SSDs currently in dropout

    /** True while at least one SSD is refusing writes. */
    bool degraded() const { return degraded_devices > 0; }
};

/** Everything one shard owns exclusively. */
struct ShardBackends {
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<io::IoBackend>> devices;
};

/** The store handle: a hash-partitioning front-end over N PrismDb shards. */
class ShardRouter {
  public:
    /**
     * Open (format=true) or recover (format=false, §5.5) an N-shard
     * store. N = backends.size(); must be a power of two. @p opts
     * applies to every shard (the router overrides opts.numa_node per
     * shard on multi-node machines; opts.bg_workers, at least 1, sizes
     * the one shared pool) and arms the process-wide wiring (file
     * comment).
     */
    ShardRouter(const PrismOptions &opts,
                std::vector<ShardBackends> backends, bool format);
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    static std::unique_ptr<ShardRouter>
    open(const PrismOptions &opts, std::vector<ShardBackends> backends)
    {
        return std::make_unique<ShardRouter>(opts, std::move(backends),
                                             true);
    }
    static std::unique_ptr<ShardRouter>
    recover(const PrismOptions &opts, std::vector<ShardBackends> backends)
    {
        return std::make_unique<ShardRouter>(opts, std::move(backends),
                                             false);
    }

    /**
     * Resolve the effective shard count from PrismOptions::shards:
     * 0 defers to $PRISM_SHARDS, then 1. Result is validated to be a
     * power of two in [1, 256].
     */
    static int resolveShardCount(int opt_shards);

    /** @name Routing */
    ///@{
    static size_t shardOf(uint64_t key, size_t shard_count);
    size_t shardCount() const { return shards_.size(); }
    PrismDb &shard(size_t i) { return *shards_[i]; }
    const PrismDb &shard(size_t i) const { return *shards_[i]; }
    ///@}

    /** @name Store operations (routed; per-op contracts on PrismDb) */
    ///@{
    Status put(uint64_t key, std::string_view value);
    Status get(uint64_t key, std::string *value);
    Status del(uint64_t key);
    Status scan(uint64_t start_key, size_t count,
                std::vector<std::pair<uint64_t, std::string>> *out);
    Status multiGet(const std::vector<uint64_t> &keys,
                    std::vector<std::optional<std::string>> *out);
    ///@}

    /** @name Asynchronous operations (core/async.h, routed) */
    ///@{
    OpFuture asyncPut(uint64_t key, std::string_view value,
                      AsyncCallback cb = nullptr);
    OpFuture asyncGet(uint64_t key, AsyncCallback cb = nullptr);
    OpFuture asyncDel(uint64_t key, AsyncCallback cb = nullptr);
    /**
     * Async scan: runs scan() as one task on the shared pool, for any
     * shard count (a scan is a multi-batch pipeline, not a single I/O).
     */
    OpFuture asyncScan(uint64_t start_key, size_t count,
                       AsyncCallback cb = nullptr);
    uint64_t asyncInflight() const;
    ///@}

    /** @name Maintenance / introspection (aggregated over shards) */
    ///@{
    void flushAll();
    void forceGc();
    size_t size() const;
    /**
     * Snapshot of the process-wide metrics registry: every layer's
     * counters/gauges/histograms by name (docs/OBSERVABILITY.md). The
     * registry outlives (and is shared across) stores, so per-run
     * accounting should diff two snapshots with counterDelta().
     */
    stats::StatsSnapshot stats() const {
        return stats::StatsRegistry::global().snapshot();
    }
    /**
     * Current fault/degradation posture: the counter fields are
     * process-wide; degraded_devices counts every shard's devices, so a
     * dropout anywhere flips degraded(). Cheap enough to poll.
     */
    ErrorBudget errorBudget() const;

    /**
     * /healthz + /readyz payload (common/obs_server.h): 200/503 flags
     * plus an error-budget JSON body. Also the in-process render behind
     * `prism_cli healthz`, so orchestrator and operator see one truth.
     */
    obs::HealthReport healthReport() const;

    /**
     * Bound port of the HTTP ops endpoint, 0 when no server is running
     * (the default; see PrismOptions::obs_port).
     */
    int obsPort() const;

    /**
     * Refresh the derived gauges in the stats registry: per-shard key
     * counts and the PWB/SVC/Value Storage occupancy summed over shards.
     */
    void publishOccupancy();
    /**
     * Refresh every gauge that is computed on demand rather than
     * maintained: publishOccupancy() plus the tracer's and the
     * profiler's own gauges. Run before every /metrics render and every
     * `prism_cli top` frame; also useful before a manual snapshot.
     */
    void publishGauges();

    /** Total SSD bytes written across every shard (WAF numerator). */
    uint64_t ssdBytesWritten() const;
    /** NVM bytes used by every shard's Key Index + HSIT (§7.6). */
    uint64_t nvmIndexBytes() const;

    /** Flat view over every shard's Value Storages (shard-major). */
    size_t valueStorageCount() const;
    ValueStorage &valueStorage(size_t global_idx);

    /**
     * Captured slow operations, worst first (ops slower than the
     * tracer's slow-op threshold; see common/trace.h). Process-wide,
     * like the stats registry.
     */
    std::vector<trace::SlowOp> slowOps() const {
        return trace::TraceRegistry::global().slowOps();
    }
    /**
     * Wall-clock ns spent constructing the shards. Recovery is
     * *sequential* across shards on purpose: fault-injection triggers
     * (common/fault.h) count process-wide, so a deterministic shard
     * order is what makes N-shard crash replay reproducible
     * (prism_torture --shards).
     */
    uint64_t recoveryTimeNs() const { return recovery_ns_; }
    ///@}

  private:
    PrismOptions opts_;
    std::shared_ptr<BgPool> pool_;
    std::vector<std::unique_ptr<PrismDb>> shards_;

    /** Per-shard routed-op counters / key gauges (prism.shard.<n>.*). */
    std::vector<stats::Counter *> reg_shard_ops_;
    std::vector<stats::Gauge *> reg_shard_keys_;
    /** The occupancy sums publishOccupancy() sets. */
    stats::Gauge *reg_pwb_used_ = nullptr;
    stats::Gauge *reg_pwb_cap_ = nullptr;
    stats::Gauge *reg_svc_used_ = nullptr;
    stats::Gauge *reg_svc_cap_ = nullptr;
    stats::Gauge *reg_vs_chunks_ = nullptr;

    /** Router-level async scans on the pool; drained by the dtor. */
    std::atomic<uint64_t> async_scan_inflight_{0};

    uint64_t recovery_ns_ = 0;

    /** Process-wide wiring this router started, and so stops. */
    bool prof_started_ = false;
    /** HTTP ops endpoint; stopped first in the destructor, because its
     *  handlers call back into the shards. */
    std::unique_ptr<obs::ObsServer> obs_;
};

}  // namespace prism::core
