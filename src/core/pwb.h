/**
 * @file
 * Persistent Write Buffer (PWB, §4.3).
 *
 * Each application thread owns one PWB: an append-only ring log on NVM.
 * A put() writes the value (with its embedded backward pointer) here and
 * is durable immediately — the write critical path never touches the SSD.
 * When utilization crosses the watermark, a background reclaimer copies
 * the *well-coupled* (up-to-date) values to Value Storage and advances
 * the head; superseded versions are skipped, which is where Prism's
 * SSD-write savings come from (§7.6, Fig. 12).
 *
 * Concurrency contract: append() is called only by the owning thread;
 * head advancement is performed by the reclaimer after an epoch grace
 * period so readers holding PWB addresses stay safe.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/prof.h"
#include "common/stats.h"
#include "core/addr.h"
#include "pmem/pmem_allocator.h"
#include "pmem/pmem_region.h"

namespace prism::core {

/** One thread's persistent write buffer. */
class Pwb {
  public:
    /** Create a fresh PWB of @p capacity bytes (multiple of 64). */
    static std::unique_ptr<Pwb> create(pmem::PmemRegion &region,
                                       pmem::PmemAllocator &alloc,
                                       uint64_t capacity);

    /** Re-attach after a restart. */
    static std::unique_ptr<Pwb> attach(pmem::PmemRegion &region,
                                       pmem::POff root_off);

    pmem::POff rootOff() const { return root_off_; }
    uint64_t capacity() const { return capacity_; }

    /**
     * Append a value record and persist it (value + backward pointer +
     * tail, one fence). The caller then publishes the returned address in
     * the HSIT, which is the linearization point.
     *
     * @return the PWB-encoded ValueAddr, or a null addr when the buffer
     *         lacks space (caller falls back to waiting on reclamation).
     */
    ValueAddr append(uint64_t hsit_idx, uint64_t key, const void *value,
                     uint32_t size);

    /**
     * Mark the most recent append as published in the HSIT. Until this
     * is called, reclamation will not scan past the record: a freshly
     * appended record looks ill-coupled (its forward pointer is not
     * installed yet), and without the marker a concurrent reclaim pass
     * would treat it as superseded garbage and free live space that the
     * owner is about to publish.
     */
    void markPublished() {
        inflight_.store(UINT64_MAX, std::memory_order_release);
    }

    /** Oldest unpublished append's logical offset (UINT64_MAX = none). */
    uint64_t inflightLogical() const {
        return inflight_.load(std::memory_order_acquire);
    }

    /** Bytes between head and tail (live + garbage). */
    uint64_t
    usedBytes() const
    {
        return tailLogical() - headLogical();
    }

    double
    utilization() const
    {
        return static_cast<double>(usedBytes()) /
               static_cast<double>(capacity_);
    }

    uint64_t headLogical() const {
        return root()->head.load(std::memory_order_acquire);
    }
    uint64_t tailLogical() const {
        return root()->tail.load(std::memory_order_acquire);
    }

    /** A record located during a reclamation scan. */
    struct RecordRef {
        uint64_t logical_end;       ///< logical offset just past the record
        ValueAddr addr;             ///< PWB address of this record
        const ValueRecordHeader *hdr;
        const uint8_t *payload;
    };

    /**
     * Collect records from @p from (clamped to [head, tail]) until
     * @p max_bytes have been scanned (pad records are skipped). Safe
     * against a concurrently appending owner: only [from, tail-at-entry)
     * is visited.
     * @return logical offset the head may later advance to.
     */
    uint64_t collectFrom(uint64_t from, uint64_t max_bytes,
                         std::vector<RecordRef> &out) const;

    /** collectFrom starting at the current head. */
    uint64_t
    collect(uint64_t max_bytes, std::vector<RecordRef> &out) const
    {
        return collectFrom(headLogical(), max_bytes, out);
    }

    /**
     * Reclaim progress cursor (volatile; reset to head on re-attach).
     * The reclaimer starts each pass here instead of at the head, so a
     * pass never touches a range covered by a previous pass's still-
     * deferred head advance — that range's physical space could be
     * recycled mid-pass.
     */
    uint64_t reclaimCursor() const {
        return reclaim_cursor_.load(std::memory_order_acquire);
    }
    void setReclaimCursor(uint64_t v) {
        reclaim_cursor_.store(v, std::memory_order_release);
    }

    /**
     * Logical tail the last reclamation pass scanned up to (volatile;
     * reset to head on re-attach). The shard's background loop only
     * re-dispatches a PWB once at least a chunk's worth of fresh appends
     * has landed past this point — thrifty passes deliberately leave the
     * ring over the watermark, and without this gate every wake would
     * re-dispatch a pass that re-scans the same stale backlog. Forced
     * passes (stalls, flushAll, utilization at the force threshold)
     * bypass the gate.
     */
    uint64_t lastScanTail() const {
        return reclaim_scan_tail_.load(std::memory_order_acquire);
    }
    void setLastScanTail(uint64_t v) {
        reclaim_scan_tail_.store(v, std::memory_order_release);
    }

    /**
     * Serializes reclamation passes *on this PWB only* (the background
     * pool, a stalled put's direct dispatch, and flushAll may race).
     * Passes on different PWBs are independent — each has its own
     * cursor, ring and deferred head advance — and run concurrently on
     * the bg pool.
     */
    prof::TimedMutex &passMutex() { return pass_mu_; }

    /**
     * Edge-trigger for waking the background loop: the first append that
     * sees utilization at/over the watermark arms it (returns true
     * exactly once); the loop re-arms it when it next scans this PWB,
     * so a ring held over the watermark by fresh appends keeps
     * re-notifying without a put-path syscall per append.
     */
    bool armReclaimHint() {
        return !reclaim_hint_.exchange(true, std::memory_order_acq_rel);
    }
    void clearReclaimHint() {
        reclaim_hint_.store(false, std::memory_order_release);
    }

    /**
     * Claim the single outstanding reclaim-dispatch slot for this PWB.
     * Dispatchers (the background loop, stalled puts) use it so the pool
     * queue never holds two tasks for one PWB.
     * @return true if the caller must submit the task (and later call
     *         releaseReclaimSlot()).
     */
    bool tryAcquireReclaimSlot() {
        bool expected = false;
        return reclaim_scheduled_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel);
    }
    void releaseReclaimSlot() {
        reclaim_scheduled_.store(false, std::memory_order_release);
    }

    /**
     * Advance the head to @p new_head (persisted). Call only after an
     * epoch grace period: readers may still be dereferencing reclaimed
     * addresses.
     */
    void advanceHead(uint64_t new_head);

    /** Region offset of the first data byte (diagnostics). */
    pmem::POff dataOff() const { return data_off_; }

    /**
     * True when region offset @p off lies in logical range
     * [lo, hi) of this ring (diagnostics).
     */
    bool
    offsetInLogicalRange(pmem::POff off, uint64_t lo, uint64_t hi) const
    {
        if (off < data_off_ || off >= data_off_ + capacity_ || lo >= hi)
            return false;
        const uint64_t phys = off - data_off_;
        const uint64_t plo = lo % capacity_;
        const uint64_t phi = hi % capacity_;
        if (hi - lo >= capacity_)
            return true;
        if (plo <= phi)
            return phys >= plo && phys < phi;
        return phys >= plo || phys < phi;
    }

    /** Header access for a reader holding a PWB ValueAddr. */
    const ValueRecordHeader *
    headerAt(ValueAddr addr) const
    {
        return region_->as<ValueRecordHeader>(addr.offset());
    }

    const uint8_t *
    payloadAt(ValueAddr addr) const
    {
        return reinterpret_cast<const uint8_t *>(headerAt(addr) + 1);
    }

  private:
    struct PwbRoot {
        uint64_t magic;
        uint64_t capacity;
        std::atomic<uint64_t> head;  ///< logical (monotonic)
        std::atomic<uint64_t> tail;  ///< logical (monotonic)
        pmem::POff data;
    };
    static constexpr uint64_t kMagic = 0x505742ull;  // "PWB"

    Pwb(pmem::PmemRegion &region, pmem::POff root_off);

    PwbRoot *root() { return region_->as<PwbRoot>(root_off_); }
    const PwbRoot *root() const {
        return region_->as<PwbRoot>(root_off_);
    }

    uint8_t *dataAt(uint64_t physical) {
        return region_->as<uint8_t>(data_off_ + physical);
    }
    const uint8_t *dataAt(uint64_t physical) const {
        return region_->as<const uint8_t>(data_off_ + physical);
    }

    /** Write a pad record covering [tail % capacity, capacity). */
    void writePad(uint64_t tail, uint64_t pad_bytes);

    pmem::PmemRegion *region_;
    pmem::POff root_off_;
    pmem::POff data_off_;
    uint64_t capacity_;
    std::atomic<uint64_t> reclaim_cursor_;
    std::atomic<uint64_t> reclaim_scan_tail_{0};
    /** Logical offset of an appended-but-unpublished record. */
    std::atomic<uint64_t> inflight_{UINT64_MAX};
    /** Volatile per-PWB reclamation state (see passMutex()). */
    prof::TimedMutex pass_mu_{"pwb.pass"};
    std::atomic<bool> reclaim_scheduled_{false};
    std::atomic<bool> reclaim_hint_{false};

    // Shared-by-name process-wide metrics (all PWBs aggregate).
    stats::Counter *reg_appends_;
    stats::Counter *reg_append_bytes_;
};

}  // namespace prism::core
