/**
 * @file
 * Value Storage (§4.2, §5.1, §5.2): a log-structured chunk store on one
 * SSD.
 *
 * The device space is divided into fixed 512 KB chunks. Reclaimed PWB
 * values and GC survivors are packed into chunk-sized buffers and
 * written with single large sequential I/Os — the SSD-friendly pattern
 * the paper takes from SFS/log-structured stores. Each value carries its
 * per-value metadata (backward pointer + size) so crash recovery and GC
 * never need the key index.
 *
 * A DRAM validity bitmap (one bit per 64-byte unit; a record's first
 * unit carries its liveness) answers "is this value garbage?" in O(1).
 * It is rebuilt from the HSIT at recovery (§5.5), so it never needs to
 * be persisted.
 *
 * Garbage collection is greedy: victims are the sealed chunks with the
 * fewest live bytes; survivors are rewritten within the same Value
 * Storage and the HSIT is re-pointed with durable CASes. Freed chunks
 * are recycled only after an epoch grace period, so in-flight readers
 * holding old addresses stay safe.
 *
 * Chunk lifecycle: FREE -> OPEN (allocChunk) -> SEALED (sealChunk, once
 * written) -> FREEING (freeChunkDeferred) -> FREE. The PWB reclaimer
 * seals every chunk it fills. Relocation writes (GC survivors, scan
 * reorganisation) are a few records each, so they share one *open
 * chunk* per Value Storage: a writer takes it, appends at its fill,
 * writes only the bytes it added and parks it again (takeOpenChunk /
 * returnOpenChunk). It is sealed once full, so GC only ever sees full
 * chunks and never picks the open one.
 *
 * One ValueStorage exists per SSD. It owns the SSD's read queue and a
 * completion thread that reaps the device CQ and hands every completion
 * to the AsyncIoHandler its request names (§5.1: "one Value Storage per
 * SSD ... its own thread for asynchronous IO").
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/prof.h"
#include "common/spinlock.h"
#include "core/addr.h"
#include "core/async.h"
#include "core/hsit.h"
#include "core/options.h"
#include "core/read_batcher.h"
#include "io/io_backend.h"

namespace prism::core {

class Svc;

/** Completion handle for an asynchronous chunk write. */
struct WriteTicket final : AsyncIoHandler {
    std::atomic<uint32_t> sig{0};  ///< 0 = in flight, 1 = ok, 2 = failed

    void
    onIoComplete(const Status &st) override
    {
        sig.store(st.isOk() ? 1 : 2, std::memory_order_release);
        sig.notify_all();
    }

    void
    wait()
    {
        while (sig.load(std::memory_order_acquire) == 0)
            sig.wait(0, std::memory_order_acquire);
    }

    /** Non-blocking completion poll (pipelined chunk writes). */
    bool done() const { return sig.load(std::memory_order_acquire) != 0; }

    /** True when the completed write errored (injected or dropout). */
    bool failed() const { return sig.load(std::memory_order_acquire) == 2; }

    /** Re-arm for a retry submission. */
    void reset() { sig.store(0, std::memory_order_relaxed); }
};

/** Log-structured chunk store on a single SSD. */
class ValueStorage {
  public:
    enum class ChunkState : uint32_t {
        kFree = 0,
        kOpen = 1,
        kSealed = 2,
        kFreeing = 3,  ///< retired, waiting out the epoch grace period
    };

    ValueStorage(uint32_t ssd_id, std::shared_ptr<io::IoBackend> device,
                 const PrismOptions &opts, EpochManager &epochs);
    ~ValueStorage();

    ValueStorage(const ValueStorage &) = delete;
    ValueStorage &operator=(const ValueStorage &) = delete;

    uint32_t ssdId() const { return ssd_id_; }
    io::IoBackend &device() { return *device_; }
    uint64_t chunkBytes() const { return chunk_bytes_; }
    size_t totalChunks() const { return metas_.size(); }
    size_t freeChunks() const;

    /** @name Chunk lifecycle */
    ///@{
    /**
     * Allocate a free chunk (FREE -> OPEN). This is the only critical
     * section of the write path (§5.2); after it, writers proceed
     * independently on their private chunks.
     * @return chunk index, or -1 when no chunk is free (run GC).
     */
    int64_t allocChunk();

    /**
     * Submit an asynchronous write of @p len bytes at byte @p offset of
     * @p chunk (non-zero when appending to the open chunk).
     */
    Status submitChunkWrite(int64_t chunk, uint32_t offset,
                            const uint8_t *buf, uint32_t len,
                            WriteTicket *ticket);

    /** OPEN -> SEALED once its write has landed. */
    void sealChunk(int64_t chunk, uint32_t used_bytes);

    /**
     * Mark a sealed chunk GC-eligible. Callers settle a chunk only after
     * setting its validity bits; until then GC must not judge it empty
     * (it would recycle a chunk the caller is about to publish into).
     */
    void settleChunk(int64_t chunk);

    /** Recycle a chunk after the epoch grace period (SEALED -> FREE). */
    void freeChunkDeferred(int64_t chunk);

    /**
     * Take the open chunk for appending: the caller owns it until it
     * hands it back with returnOpenChunk(). One owner at a time.
     * @param fill set to the bytes already written into it.
     * @return chunk index, or -1 when none is parked (allocate one).
     */
    int64_t takeOpenChunk(uint32_t *fill);

    /**
     * Park @p chunk as the open chunk, @p fill bytes written and every
     * record in them published (validity bits set). When another writer
     * parked one meanwhile, the fuller of the two is sealed and settled.
     */
    void returnOpenChunk(int64_t chunk, uint32_t fill);
    ///@}

    /** @name Validity bitmap (device-offset addressed) */
    ///@{
    void setValid(uint64_t dev_offset, uint64_t record_bytes);

    /** Idempotent: clearing an already-dead record is a no-op. */
    void clearValid(uint64_t dev_offset, uint64_t record_bytes);

    bool isValid(uint64_t dev_offset) const;

    uint32_t liveUnits(int64_t chunk) const {
        return metas_[static_cast<size_t>(chunk)].live_units.load(
            std::memory_order_relaxed);
    }
    ///@}

    /**
     * Queue reads of this SSD (core/read_batcher.h): the one way a
     * record or chunk read reaches the device, GC's victim reads
     * included. Returns at once; each read's onRead runs when it
     * completes.
     */
    void
    enqueueReads(std::span<ReadBatcher::Read *const> reads)
    {
        reader_->enqueue(reads);
    }

    /** @name Garbage collection (§5.2) */
    ///@{
    /** Over the GC watermark, on a healthy device. */
    bool needsGc() const;

    /**
     * One greedy GC pass: pick the sealed chunks with the fewest live
     * units, read them through this SSD's read queue, append their
     * survivors to the open chunk of this same Value Storage, re-point
     * the HSIT, recycle the victims. A victim whose read fails after
     * the queue's retries stays for a later pass.
     * @param svc when non-null, cached copies of moved values are
     *        re-bound to their new address so they keep serving hits.
     * @return number of chunks reclaimed.
     */
    size_t runGcPass(Hsit &hsit, Svc *svc = nullptr);
    ///@}

    /** @name Recovery (§5.5) */
    ///@{
    /**
     * Forget all volatile chunk state, the open chunk included (then
     * mark live values).
     */
    void resetForRecovery();

    /** Mark one HSIT-reachable record live during recovery. */
    void markLiveAtRecovery(uint64_t dev_offset, uint64_t record_bytes);

    /** Rebuild the free-chunk list from the recovered states. */
    void finalizeRecovery();
    ///@}

  private:
    struct ChunkMeta {
        std::atomic<uint32_t> state{
            static_cast<uint32_t>(ChunkState::kFree)};
        std::atomic<bool> settled{false};  ///< bits populated; GC may act
        std::atomic<uint32_t> used_bytes{0};
        std::atomic<uint32_t> live_units{0};
        std::unique_ptr<std::atomic<uint64_t>[]> bitmap;
    };

    void completionLoop();

    uint64_t unitsPerChunk() const {
        return chunk_bytes_ / ValueAddr::kSizeUnit;
    }

    uint32_t ssd_id_;
    std::shared_ptr<io::IoBackend> device_;
    uint64_t chunk_bytes_;
    double gc_watermark_;
    int numa_node_;  ///< completion-thread placement; -1 = unpinned
    EpochManager &epochs_;

    std::vector<ChunkMeta> metas_;
    prof::TimedTicketLock free_mu_{"vs.chunk_alloc"};
    std::vector<int64_t> free_chunks_;
    int64_t open_chunk_ = -1;  ///< parked open chunk (under free_mu_)
    uint32_t open_fill_ = 0;
    std::mutex gc_mu_;  ///< serializes GC passes on this Value Storage
    /** Victim-read buffers a pass hands to the next (under gc_mu_). */
    std::vector<std::vector<uint8_t>> gc_bufs_;

    std::unique_ptr<ReadBatcher> reader_;

    std::atomic<bool> stop_{false};
    std::thread completion_thread_;

    // Shared-by-name process-wide metrics (see common/stats.h).
    stats::Counter *reg_gc_passes_;
    stats::Counter *reg_gc_moved_bytes_;
    stats::Counter *reg_gc_reclaimed_chunks_;
    stats::LatencyStat *reg_gc_pass_ns_;
    stats::LatencyStat *reg_sealed_bytes_;  ///< used bytes per sealed chunk
    stats::Counter *reg_retries_;   ///< survivor rewrites to retry
    stats::Counter *reg_degraded_;  ///< passes skipped on a sick device
};

}  // namespace prism::core
