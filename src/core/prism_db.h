/**
 * @file
 * PrismDb — one shard of the store (§4, Fig. 2). Applications open a
 * core::ShardRouter (core/shard_router.h), the only public store
 * handle; the router owns one PrismDb per shard, and with N = 1 every
 * op forwards straight to the single PrismDb.
 *
 * Wires the five components together:
 *
 *   Persistent Key Index (PacTree, NVM)  -> HSIT entry index
 *   HSIT (NVM)                           -> value location (PWB/VS/SVC)
 *   PWB (per-thread, NVM)                -> fresh writes, durable at once
 *   Value Storage (one per SSD)          -> bulk of the data
 *   SVC (DRAM)                           -> read-hot values, scan chains
 *
 * Operation outlines (detail in prism_db.cc):
 *  - put: PWB append (value + backward ptr, one fence) then durable CAS
 *    of the HSIT forward pointer — the linearization point (§5.4).
 *  - get: index -> HSIT -> SVC / PWB / Value Storage (an SSD read on
 *    the VS read queue, core/read_batcher.h), then SVC admission off
 *    the critical path. The blocking get is the async get plus a wait.
 *  - scan: index range -> queued SSD reads with span merging -> SVC
 *    admission + scan-chain registration (§4.4).
 *  - del: index remove + epoch-deferred HSIT entry reclamation.
 *
 * Background threads: reclamation passes (one per over-watermark PWB,
 * concurrent across PWBs) and per-Value-Storage GC passes (concurrent
 * across SSDs) run on the router's shared BgPool (§5.2), fed by two
 * light dispatcher threads (reclaimer, GC), plus the SVC manager and
 * one completion thread per Value Storage.
 *
 * A shard has no process-wide side effects: the fault registry, tracer,
 * profiler, crash handlers and HTTP ops server are armed once, by the
 * router. Every counter a shard bumps lives in the process-wide stats
 * registry (docs/OBSERVABILITY.md).
 *
 * Crash consistency: see §5.5 / runRecovery(). The store can be shut
 * down abruptly (or its devices snapshotted mid-run) and reopened with
 * format=false; tests inject crashes at arbitrary points via the pmem
 * tracking mode.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_util.h"
#include "core/async.h"
#include "core/bg_pool.h"
#include "core/hsit.h"
#include "core/options.h"
#include "core/pwb.h"
#include "core/svc.h"
#include "core/value_storage.h"
#include "index/pactree.h"
#include "io/io_backend.h"
#include "pmem/pmem_allocator.h"
#include "pmem/pmem_region.h"

namespace prism::core {

/** One shard of a Prism store. */
class PrismDb {
  public:
    /**
     * Open (format=true) or recover (format=false, §5.5) one shard.
     *
     * @param opts    tunables and ablation flags.
     * @param region  the shard's NVM pool (caller keeps ownership shared
     *                so crash tests can snapshot/restore it).
     * @param devices one Value Storage is created per device. Any
     *                io::IoBackend works: the simulator, a real file via
     *                io::createFileBackend, or a mix (docs/IO_BACKENDS.md).
     * @param pool    the router's worker pool, shared by every shard;
     *                this shard registers its own round-robin source
     *                (core/bg_pool.h). The pool must outlive the shard;
     *                the destructor quiesces this shard's own tasks
     *                (reclaim slots, GC flags, async scans) but never
     *                shuts the pool down.
     */
    PrismDb(const PrismOptions &opts,
            std::shared_ptr<pmem::PmemRegion> region,
            std::vector<std::shared_ptr<io::IoBackend>> devices,
            bool format, std::shared_ptr<BgPool> pool);

    ~PrismDb();

    PrismDb(const PrismDb &) = delete;
    PrismDb &operator=(const PrismDb &) = delete;

    /** @name Store operations */
    ///@{
    /** Insert or update. Durable on return (durable linearizability). */
    Status put(uint64_t key, std::string_view value);

    /** Point lookup. */
    Status get(uint64_t key, std::string *value);

    /** Delete. */
    Status del(uint64_t key);

    /**
     * Range scan: up to @p count pairs with key >= @p start_key in
     * ascending key order.
     */
    Status scan(uint64_t start_key, size_t count,
                std::vector<std::pair<uint64_t, std::string>> *out);

    /**
     * Batched point lookups: out[i] holds key[i]'s value or nullopt for
     * missing keys. The SSD-resident values go to each Value Storage's
     * read queue as one chain, submitted in batches of up to the queue
     * depth, amortizing submission cost — the natural API for
     * applications with dependency-free read sets.
     */
    Status multiGet(const std::vector<uint64_t> &keys,
                    std::vector<std::optional<std::string>> *out);
    ///@}

    /**
     * @name Asynchronous operations (core/async.h)
     *
     * Completion-driven variants of the store operations. Each returns
     * an OpFuture immediately; the operation finishes on a completion
     * thread when its device I/O lands (or inline when no device I/O is
     * needed). One caller thread can keep hundreds of gets in flight —
     * the queue-depth-filling discipline of §5.3 without one blocked
     * thread per read. The blocking get above is the degenerate case:
     * same implementation, caller waits.
     *
     * The optional callback runs on whichever thread completes the op
     * (see core/async.h for the threading contract).
     */
    ///@{
    /**
     * Asynchronous put. Completes before returning: the write path is an
     * NVM append + durable CAS (§4.3) with no device round-trip to
     * overlap, so the future is always ready. Provided for API symmetry
     * (mixed async batches need not special-case writes).
     */
    OpFuture asyncPut(uint64_t key, std::string_view value,
                      AsyncCallback cb = nullptr);

    /**
     * Asynchronous point lookup. NVM/DRAM hits (PWB, SVC) complete
     * inline; an SSD-resident value is read through the Value Storage
     * read queue and the future completes from the VS completion thread,
     * holding no epoch (and no caller thread) while the I/O is in
     * flight. The completion path re-validates the record against the
     * HSIT before publishing it, retrying the lookup if the value moved
     * (GC / update) mid-flight.
     */
    OpFuture asyncGet(uint64_t key, AsyncCallback cb = nullptr);

    /** Asynchronous delete. Completes before returning (NVM-only). */
    OpFuture asyncDel(uint64_t key, AsyncCallback cb = nullptr);

    /**
     * Asynchronous range scan: runs on the background pool (a scan is a
     * multi-batch pipeline, not a single I/O), completing the future
     * with the rows when done.
     */
    OpFuture asyncScan(uint64_t start_key, size_t count,
                       AsyncCallback cb = nullptr);

    /**
     * Operations that will complete off the caller's thread and have
     * not yet: gets (blocking or async) with a Value Storage read in
     * flight, plus async scans. The destructor waits for zero.
     */
    uint64_t asyncInflight() const {
        return async_inflight_.load(std::memory_order_acquire);
    }
    ///@}

    /** Number of live keys. */
    size_t size() const { return index_->size(); }

    /**
     * Synchronously reclaim every PWB down to empty and apply deferred
     * head advances (tests and orderly shutdown; not needed for
     * durability — the PWB *is* durable).
     */
    void flushAll();

    /** Run GC passes until no Value Storage is above its watermark. */
    void forceGc();

    /** @name Introspection (router aggregation, tests) */
    ///@{
    /** Bytes appended to / reserved by this shard's PWBs. */
    uint64_t pwbUsedBytes() const;
    uint64_t pwbCapacityBytes() const;

    index::KeyIndex &keyIndex() { return *index_; }
    Hsit &hsit() { return *hsit_; }
    Svc &svc() { return *svc_; }
    ValueStorage &valueStorage(size_t i) { return *value_storages_[i]; }
    size_t valueStorageCount() const { return value_storages_.size(); }
    EpochManager &epochs() { return epochs_; }

    /** Total SSD bytes written across all Value Storages (WAF numerator). */
    uint64_t ssdBytesWritten() const;

    /** NVM bytes used by Key Index + HSIT (§7.6 space experiment). */
    uint64_t nvmIndexBytes() const;

    /** Wall-clock nanoseconds the constructor spent in recovery. */
    uint64_t recoveryTimeNs() const { return recovery_ns_; }
    ///@}

  private:
    /** Per-thread PWB, created lazily on a thread's first put. */
    Pwb *pwbForThisThread();

    /** Read a PWB-resident value (NVM; no device I/O). */
    Status readPwb(uint64_t hsit_idx, ValueAddr addr, std::string *out);

    /** @name Async engine (prism_db.cc, core/async.h) */
    ///@{
    /** A get's in-flight Value Storage read; defined in prism_db.cc. */
    struct AsyncGetCtx;

    /**
     * Run one get round, blocking or async: index -> HSIT -> SVC / PWB
     * under an EpochGuard, completing @p st inline, or else queue the VS
     * read; the value lands in @p out. Re-entered from the completion
     * thread when mid-flight relocation forces a re-lookup.
     */
    void startAsyncGet(const std::shared_ptr<AsyncOpState> &st,
                       std::string *out, uint64_t key, int lookup_attempts);

    /** VS read continuation (runs on a VS completion thread). */
    void onAsyncVsRead(AsyncGetCtx *ctx, const Status &st);
    ///@}

    void reclaimerLoop();
    void gcLoop();
    /**
     * One reclamation pass over @p pwb (§5.2, Fig. 4), pipelined: up to
     * kReclaimPipelineDepth chunk writes stay in flight, each chunk
     * publishing its HSIT entries as its write completes. Serialized
     * per PWB by Pwb::passMutex(); passes on different PWBs run
     * concurrently on the bg pool. Unless @p force is set (flushAll)
     * or the ring is near-full, the pass is thrifty: it submits full
     * chunks only and leaves stragglers in the ring (see
     * kReclaimForceUtilization in prism_db.cc).
     */
    void reclaimPwb(Pwb *pwb, bool force = false);
    /**
     * Queue a reclamation pass for @p pwb on the pool (at most one
     * outstanding dispatch per PWB). Called by the reclaimer loop and
     * directly by a stalling put(), so a full PWB never waits out a
     * poll interval.
     */
    void dispatchReclaim(Pwb *pwb);
    /** Queue a GC pass for Value Storage @p vs_id (one in flight each). */
    void dispatchGc(size_t vs_id);
    /** One concurrent GC pass over every Value Storage (pool-assisted). */
    void runGcRoundParallel();
    void runRecovery();
    void clearOldLocation(uint64_t hsit_idx, ValueAddr old_addr);

    /** On-NVM master root tying all persistent components together. */
    struct MasterRoot {
        uint64_t magic;
        pmem::POff tree_root;
        pmem::POff hsit_root;
        std::atomic<pmem::POff> pwb_roots[ThreadId::kMaxThreads];
    };
    static constexpr uint64_t kMagic = 0x5052495344427631ull;  // PRISMDBv1

    PrismOptions opts_;
    std::shared_ptr<pmem::PmemRegion> region_;
    std::unique_ptr<pmem::PmemAllocator> alloc_;
    EpochManager epochs_;

    std::unique_ptr<index::PacTree> index_;
    std::unique_ptr<Hsit> hsit_;
    std::vector<std::unique_ptr<ValueStorage>> value_storages_;
    std::vector<ValueStorage *> vs_ptrs_;
    std::unique_ptr<Svc> svc_;

    pmem::POff master_off_ = pmem::kNullOff;
    MasterRoot *master_ = nullptr;

    std::mutex pwb_mu_;
    std::vector<std::unique_ptr<Pwb>> pwb_owner_;
    std::atomic<Pwb *> pwbs_[ThreadId::kMaxThreads] = {};

    std::atomic<bool> stop_{false};
    /** The router's worker pool for reclamation and GC tasks (§5.2). */
    std::shared_ptr<BgPool> bg_pool_;
    /** This shard's round-robin source id in bg_pool_. */
    int bg_source_ = 0;
    /** Tasks this shard has on the shared pool; the destructor waits
     *  them out. */
    std::atomic<uint64_t> bg_inflight_{0};
    std::thread reclaimer_;
    std::thread gc_thread_;
    std::mutex reclaim_mu_;
    std::condition_variable reclaim_cv_;
    /** Interruptible sleep for gcLoop (plain scheduling wait — the
     *  simulated-time delayFor would burn a spin tail per wakeup). */
    std::mutex gc_mu_;
    std::condition_variable gc_cv_;
    /** One outstanding GC dispatch per Value Storage. */
    std::unique_ptr<std::atomic<bool>[]> gc_scheduled_;

    /** Cached process-wide registry metrics (see common/stats.h). */
    struct RegMetrics {
        stats::Counter *puts;
        stats::Counter *gets;
        stats::Counter *dels;
        stats::Counter *scans;
        stats::Counter *user_bytes_written;
        stats::Counter *pwb_hits;
        stats::Counter *svc_hits;
        stats::Counter *vs_reads;
        stats::Counter *pwb_stalls;
        stats::Counter *reclaim_passes;
        stats::Counter *reclaimed_values;
        stats::Counter *reclaim_skipped_stale;
        stats::Counter *hsit_cas_retries;
        stats::Counter *reclaim_dispatches;
        stats::Counter *gc_dispatches;
        stats::Counter *reclaim_deferred_values;
        stats::Counter *pwb_requeued_values;
        stats::LatencyStat *pwb_stall_ns;
    };
    RegMetrics reg_;

    /** asyncInflight(); the destructor waits it out before teardown
     *  (completion paths touch the SVC, HSIT and bg pool). Every SSD miss
     *  writes it from two threads: a line of its own keeps that traffic
     *  off the metric pointers every op reads. */
    alignas(64) std::atomic<uint64_t> async_inflight_{0};

    uint64_t recovery_ns_ = 0;
};

}  // namespace prism::core
