/**
 * @file
 * Scan-aware Value Cache (SVC, §4.4, Fig. 3).
 *
 * A DRAM cache of read-hot values with three defining properties from
 * the paper:
 *
 *  1. *No separate cache index* — a cached value is reached directly from
 *     the key index through the HSIT's SVC pointer.
 *  2. *Off-critical-path management* — application threads only publish
 *     (CAS the HSIT SVC pointer) and set a reference flag; a background
 *     thread owns the 2Q LRU lists (active/inactive), promotion,
 *     demotion and eviction, with epoch-based reclamation protecting
 *     readers of evicted entries. Producers queue an event per
 *     admission, removal or scan but wake the manager only once per
 *     batch: when kWakeBatch events are queued, or when admissions have
 *     pushed the cache more than 1/kOverBudgetDiv past its capacity.
 *     A 50 ms timer sweeps up smaller batches, and every round evicts
 *     back to capacity.
 *  3. *Scan awareness* — values returned by one scan are chained in a
 *     doubly-linked list; when one of them is evicted, the whole chain
 *     is sorted by key and rewritten contiguously, appended to a Value
 *     Storage's open chunk, restoring spatial locality for future scans.
 *
 * Staleness safety: an SVC entry remembers the Value Storage address its
 * payload was copied from (`vs_raw`). Readers accept the cached copy
 * only while the HSIT forward pointer still equals that address, so a
 * concurrent update can never serve a stale value even before the
 * updater's cleanup CAS lands.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/prof.h"
#include "common/stats.h"
#include "core/addr.h"
#include "core/hsit.h"
#include "core/options.h"
#include "core/value_storage.h"

namespace prism::core {

/** The Scan-aware Value Cache. */
class Svc {
  public:
    /**
     * @param hsit    the indirection table (SVC pointers live there).
     * @param epochs  epoch domain shared with the rest of the store.
     * @param targets Value Storages for scan-range rewrites.
     * @param opts    capacity and feature flags.
     */
    Svc(Hsit &hsit, EpochManager &epochs,
        std::vector<ValueStorage *> targets, const PrismOptions &opts);
    ~Svc();

    Svc(const Svc &) = delete;
    Svc &operator=(const Svc &) = delete;

    /**
     * Try to serve @p hsit_idx from the cache. Valid only while the
     * caller holds an epoch guard.
     *
     * @param primary_raw the entry's current (clean) forward pointer;
     *        the cached copy is used only if it was taken from exactly
     *        this location.
     * @return true and fills @p out on a (validated) hit.
     */
    bool lookup(uint64_t hsit_idx, uint64_t primary_raw, std::string *out);

    /**
     * Admit a value just read from Value Storage (caller holds an epoch
     * guard). Failure to admit (lost race, cache disabled) is silent.
     */
    void admit(uint64_t hsit_idx, uint64_t key, ValueAddr vs_addr,
               const uint8_t *payload, uint32_t size);

    /**
     * Drop the cached copy for an updated/deleted entry (cleanup only;
     * readers already validate against the forward pointer).
     */
    void invalidate(uint64_t hsit_idx);

    /**
     * Record that one scan returned these entries; the background thread
     * chains them so eviction can reorganise the whole range (§4.4).
     */
    void noteScan(std::vector<uint64_t> hsit_indices);

    /**
     * Re-bind a cached entry after its on-SSD record moved (GC): keeps
     * the cache warm across relocations. Without it the stale entry
     * misses yet keeps the HSIT's SVC slot, so every re-read's admit
     * loses its CAS until the LRU evicts it.
     */
    void rebind(uint64_t hsit_idx, uint64_t old_raw, uint64_t new_raw);

    /**
     * True while the cache sits comfortably under capacity (< 7/8
     * used). Optional producers — notably the reclaimer's write-back
     * admission — consult this so they only warm a cache that has room
     * to keep the copies; a capacity-bound cache would just churn its
     * eviction lists for values the 2Q policy is about to drop.
     */
    bool hasHeadroom() const {
        return enabled_ && used_bytes_.load(std::memory_order_relaxed) <
                               capacity_ - capacity_ / 8;
    }

    uint64_t usedBytes() const {
        return used_bytes_.load(std::memory_order_relaxed);
    }
    uint64_t capacityBytes() const { return capacity_; }

    /** Block until the event queue has been drained once (tests). */
    void drainForTest();

  private:
    // A manager round is due once kWakeBatch events are queued, or once
    // used bytes exceed capacity by capacity / kOverBudgetDiv.
    static constexpr size_t kWakeBatch = 64;
    static constexpr uint64_t kOverBudgetDiv = 64;

    struct SvcEntry {
        uint64_t key;
        uint64_t hsit_idx;
        std::atomic<uint64_t> vs_raw;    ///< source VS address (validation)
        uint32_t size;
        std::atomic<bool> referenced{false};  ///< set on hit; 2Q promotion

        // Fields below are owned by the background thread. An entry is
        // freed only after its Admit event has been processed, which
        // closes the race where a descheduled admitter enqueues an event
        // for an entry that was detached, retired and reclaimed in the
        // meantime; a Remove that overtakes the Admit is parked in
        // remove_seen until then.
        bool admit_seen = false;
        bool remove_seen = false;
        bool in_lru = false;
        bool in_active = false;
        bool evicted = false;
        SvcEntry *prev = nullptr;
        SvcEntry *next = nullptr;
        SvcEntry *scan_prev = nullptr;
        SvcEntry *scan_next = nullptr;

        uint8_t *data() { return reinterpret_cast<uint8_t *>(this + 1); }
        const uint8_t *data() const {
            return reinterpret_cast<const uint8_t *>(this + 1);
        }
        uint64_t footprint() const { return sizeof(SvcEntry) + size; }
    };

    /** Intrusive doubly-linked list head (background thread only). */
    struct Lru {
        SvcEntry *head = nullptr;  ///< most recent
        SvcEntry *tail = nullptr;  ///< least recent
        size_t count = 0;

        void pushFront(SvcEntry *e);
        void unlink(SvcEntry *e);
        SvcEntry *popBack();
    };

    enum class EvType { kAdmit, kRemove, kScanChain };
    struct Event {
        EvType type;
        SvcEntry *entry = nullptr;
        std::vector<uint64_t> chain;
    };

    /** Queue @p ev and wake the manager if that makes a round due. */
    void enqueue(Event ev);
    void managerLoop();
    void processEvent(Event &ev);
    void balance();
    void evictOne();
    /** Sort + rewrite the scan chain containing @p e (Fig. 3 steps 5-6). */
    void reorganizeChain(SvcEntry *e);
    void unlinkScan(SvcEntry *e);
    void retireEntry(SvcEntry *e);

    Hsit &hsit_;
    EpochManager &epochs_;
    std::vector<ValueStorage *> targets_;
    bool enabled_;
    bool scan_reorg_;
    uint64_t capacity_;
    uint64_t wake_bytes_;  ///< used bytes above which a round is due

    std::atomic<uint64_t> used_bytes_{0};

    prof::TimedMutex ev_mu_{"svc.events"};
    // _any: waits on the profiled wrapper, not a raw std::mutex.
    std::condition_variable_any ev_cv_;
    std::deque<Event> events_;
    // A round is due (batch full, over budget, or drainForTest): set by
    // the first producer that finds it so, which alone notifies.
    bool due_ = false;
    std::atomic<uint64_t> drained_generation_{0};

    Lru active_;
    Lru inactive_;

    // Shared-by-name process-wide metrics (see common/stats.h).
    stats::Counter *reg_hits_;
    stats::Counter *reg_misses_;
    stats::Counter *reg_admissions_;
    stats::Counter *reg_evictions_;
    stats::Counter *reg_scan_reorgs_;
    stats::Counter *reg_reorged_values_;
    stats::Counter *reg_manager_rounds_;

    std::atomic<bool> stop_{false};
    std::thread manager_;
};

}  // namespace prism::core
