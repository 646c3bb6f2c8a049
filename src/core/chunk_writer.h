/**
 * @file
 * ChunkWriter: packs value records into chunk-sized buffers and writes
 * them asynchronously to Value Storage (§5.2, Fig. 4).
 *
 * Used by the PWB reclaimer (targets: all Value Storages, choosing an
 * idle one per chunk to spread load over the SSD array), by GC (target:
 * the same Value Storage), and by the SVC's scan-aware reorganisation
 * (§4.4, which re-packs a scanned key range contiguously).
 *
 * Addresses are assigned at add() time. Durability comes in two
 * flavours:
 *  - Barrier mode (no chunk callback; GC and scan reorganisation):
 *    records go to the target's *open chunk*, appended at its fill, so
 *    a relocation of a few records does not cost a chunk of its own.
 *    finish() waits for every outstanding write, writing only the bytes
 *    this writer added to a chunk it does not fill; the caller then
 *    publishes all addresses at once, and settleAll() hands the open
 *    chunk back for the next writer. A chunk is sealed once full.
 *  - Pipeline mode (max_inflight > 0 + a chunk callback): at most
 *    max_inflight chunk writes are kept outstanding, and as each chunk
 *    completes the callback fires with the contiguous record range that
 *    landed in it — the caller publishes those HSIT entries while later
 *    chunks are still being packed and written. This overlaps the
 *    NVM-side scan/filter work with the SSD writes instead of stalling
 *    a whole pass behind the slowest chunk.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rand.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/addr.h"
#include "core/value_storage.h"

namespace prism::core {

/** Packs records into chunks across one or more Value Storages. */
class ChunkWriter {
  public:
    /**
     * Fires when one chunk's write is durable on its SSD. Records are
     * numbered in add() order; this chunk holds records
     * [first_record, first_record + record_count). The callback runs on
     * the thread driving the writer (inside add()/pollCompleted()/
     * finish()); it must settle the chunk itself once the new records'
     * validity bits are set.
     */
    using ChunkCallback = std::function<void(
        ValueStorage *vs, int64_t chunk, size_t first_record,
        size_t record_count)>;

    /**
     * @param targets      candidate Value Storages (non-owning,
     *                     non-empty).
     * @param seed         RNG seed for idle-target selection.
     * @param max_inflight chunk writes kept outstanding before add()
     *                     blocks on the oldest; 0 = unbounded (barrier
     *                     mode, all completions reaped in finish()).
     */
    explicit ChunkWriter(std::vector<ValueStorage *> targets,
                         uint64_t seed = 42, int max_inflight = 0);
    ~ChunkWriter();

    ChunkWriter(const ChunkWriter &) = delete;
    ChunkWriter &operator=(const ChunkWriter &) = delete;

    /** Install the per-chunk completion callback. Call before add(). */
    void setChunkCallback(ChunkCallback cb) { callback_ = std::move(cb); }

    /**
     * Append one value record.
     * @return its future Value Storage address, or a null addr when no
     *         chunk could be allocated (caller should run GC and retry).
     */
    ValueAddr add(uint64_t hsit_idx, uint64_t key, const void *data,
                  uint32_t size);

    /**
     * Reap every already-completed outstanding chunk write (in
     * submission order), firing the chunk callback for each.
     * @return chunks reaped.
     */
    size_t pollCompleted();

    /**
     * Submit the final partial chunk and wait for every outstanding
     * chunk write to complete (firing remaining callbacks). In barrier
     * mode a partial last chunk is written but not sealed: the writer
     * holds it as the open chunk until settleAll(). After finish(),
     * every address returned by add() is durable on SSD —
     * except records reported by recordFailed()/firstFailedRecord(),
     * whose chunk writes failed permanently after retries (injected
     * faults or device dropout) and which fired no callback.
     */
    Status finish();

    /**
     * Like finish(), but *discard* the partial tail chunk instead of
     * submitting it: its chunk is recycled unwritten (it was never
     * published anywhere, so recycling is invisible to readers and
     * crash recovery) and its records never fire the callback. Callers
     * that can retry later (the PWB reclaimer, whose source records
     * remain durable in the ring) use this to avoid burning a 512 KB
     * chunk on a few stragglers every pass — sealed-but-nearly-empty
     * chunks are exactly the write amplification §5.2 works to avoid.
     * @return the number of records that were submitted in full chunks
     *         (a prefix of add() order; the rest were discarded).
     */
    size_t finishFullChunksOnly();

    /**
     * Mark every chunk this writer sealed GC-eligible and hand the open
     * chunk back to its Value Storage. Barrier-mode callers invoke it
     * after finish() and after the new records' validity bits have been
     * set: GC skips unsettled chunks so it cannot recycle one
     * mid-publish, and a chunk handed back earlier could be filled,
     * sealed and settled by another writer before those bits are set.
     * A barrier writer destroyed without it published nothing.
     */
    void settleAll();

    /**
     * True when record @p idx (add() numbering) was in a chunk whose
     * write failed permanently (all retries exhausted). Its address is
     * dead: the chunk was recycled unwritten and no callback fired for
     * it. Meaningful after finish()/finishFullChunksOnly().
     */
    bool recordFailed(size_t idx) const;

    /**
     * Lowest permanently-failed record number, or SIZE_MAX when every
     * submitted chunk landed. The PWB reclaimer clamps its new ring
     * head here so failed records stay durable in the ring and are
     * re-queued by the next pass.
     */
    size_t firstFailedRecord() const;

  private:
    struct InFlight {
        ValueStorage *vs;
        int64_t chunk;
        uint32_t base;  ///< fill when taken; the write covers [base, used)
        uint32_t used;
        bool seal;      ///< false for the open chunk a barrier writer holds
        std::unique_ptr<uint8_t[]> buf;
        std::unique_ptr<WriteTicket> ticket;
        size_t first_record;
        size_t record_count;
        uint64_t submit_ns;  ///< when the device write was submitted
    };

    /**
     * Pick a Value Storage (healthy + idle preferred) and claim a chunk
     * with room for @p bytes: its open chunk in barrier mode, else a
     * fresh one.
     */
    bool openChunk(uint64_t bytes);

    /** Submit the current chunk's new bytes; sealed once written. */
    Status submitCurrent(bool seal);

    /** Give up the current chunk, nothing in it published by this writer. */
    void dropCurrent();

    /** Device submit for @p f, honouring the pwb.chunk_write fault site. */
    Status submitTicketed(InFlight &f);

    /** Reap the oldest outstanding write (blocking), fire its callback. */
    void reapFront(bool block);

    std::vector<ValueStorage *> targets_;
    Xorshift rng_;
    uint64_t chunk_bytes_;
    int max_inflight_;
    ChunkCallback callback_;

    ValueStorage *cur_vs_ = nullptr;
    int64_t cur_chunk_ = -1;
    uint32_t cur_base_ = 0;  ///< earlier writers' bytes in cur_chunk_
    uint32_t cur_used_ = 0;
    std::unique_ptr<uint8_t[]> cur_buf_;
    size_t cur_first_record_ = 0;
    size_t records_added_ = 0;
    size_t submitted_records_ = 0;

    /** Outstanding writes, oldest first; reaped in submission order. */
    std::deque<InFlight> inflight_;
    /** Barrier mode's sealed chunks, until settleAll(). */
    std::vector<std::pair<ValueStorage *, int64_t>> written_;
    /** Record ranges whose chunk write failed permanently. */
    std::vector<std::pair<size_t, size_t>> failed_ranges_;
    bool finished_ = false;

    // Process-wide gauge of chunk writes in flight across all writers.
    stats::Gauge *reg_inflight_;
    stats::Counter *reg_retries_;
    stats::Counter *reg_write_failures_;
};

}  // namespace prism::core
