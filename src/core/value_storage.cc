#include "core/value_storage.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/numa.h"
#include "common/trace.h"
#include "core/chunk_writer.h"
#include "core/svc.h"

namespace prism::core {

namespace {
/** Victim chunks merged per GC pass, fewest live units first. */
constexpr size_t kGcVictimsPerPass = 4;
}  // namespace

ValueStorage::ValueStorage(uint32_t ssd_id,
                           std::shared_ptr<io::IoBackend> device,
                           const PrismOptions &opts, EpochManager &epochs)
    : ssd_id_(ssd_id), device_(std::move(device)),
      chunk_bytes_(opts.chunk_bytes), gc_watermark_(opts.vs_gc_watermark),
      numa_node_(opts.numa_node), epochs_(epochs),
      metas_(device_->capacity() / opts.chunk_bytes)
{
    PRISM_CHECK(!metas_.empty());
    PRISM_CHECK(chunk_bytes_ % ValueAddr::kSizeUnit == 0);
    auto &reg = stats::StatsRegistry::global();
    reg_gc_passes_ = &reg.counter("prism.vs.gc_passes", "ops");
    reg_gc_moved_bytes_ = &reg.counter("prism.vs.gc_moved_bytes", "bytes");
    reg_gc_reclaimed_chunks_ =
        &reg.counter("prism.vs.gc_reclaimed_chunks", "chunks");
    reg_gc_pass_ns_ = &reg.histogram("prism.vs.gc_pass_ns", "ns");
    reg_sealed_bytes_ = &reg.histogram("prism.vs.sealed_chunk_bytes", "bytes");
    reg_retries_ = &reg.counter("prism.vs.retries", "ops");
    reg_degraded_ = &reg.counter("prism.vs.degraded", "ops");
    const size_t words = (unitsPerChunk() + 63) / 64;
    for (size_t i = 0; i < metas_.size(); i++) {
        metas_[i].bitmap.reset(new std::atomic<uint64_t>[words]);
        for (size_t w = 0; w < words; w++)
            metas_[i].bitmap[w].store(0, std::memory_order_relaxed);
        free_chunks_.push_back(static_cast<int64_t>(i));
    }
    // Hand out low chunk indices first (purely cosmetic determinism).
    std::reverse(free_chunks_.begin(), free_chunks_.end());

    reader_ = std::make_unique<ReadBatcher>(*device_, opts.read_batch_mode,
                                            opts.read_queue_depth);
    completion_thread_ = std::thread([this] { completionLoop(); });
}

ValueStorage::~ValueStorage()
{
    stop_.store(true, std::memory_order_release);
    completion_thread_.join();
}

void
ValueStorage::completionLoop()
{
    // The background completion thread of §5.3 step 4: reap the CQ and
    // hand each completion to the handler its user_data names — a
    // queued read (core/read_batcher.h) or a chunk-write ticket.
    trace::TraceRegistry::global().setThreadName(
        "vs-completion-" + std::to_string(ssd_id_));
    numa::pinThreadToNode(numa_node_);
    std::vector<io::IoCompletion> completions;
    while (!stop_.load(std::memory_order_acquire)) {
        completions.clear();
        // Completions wake this wait (the simulator's timer, a file
        // backend's CQ condvar); the timeout only bounds shutdown
        // latency, so keep it long enough that an idle device costs
        // ~100 wakeups/s, not 5000.
        device_->waitCompletions(completions, 256, 10000);
        for (const auto &c : completions)
            reinterpret_cast<AsyncIoHandler *>(c.user_data)
                ->onIoComplete(c.status);
    }
}

size_t
ValueStorage::freeChunks() const
{
    size_t n = 0;
    for (const auto &m : metas_) {
        if (m.state.load(std::memory_order_relaxed) ==
            static_cast<uint32_t>(ChunkState::kFree))
            n++;
    }
    return n;
}

int64_t
ValueStorage::allocChunk()
{
    std::lock_guard<prof::TimedTicketLock> lock(free_mu_);
    if (free_chunks_.empty())
        return -1;
    const int64_t chunk = free_chunks_.back();
    free_chunks_.pop_back();
    metas_[static_cast<size_t>(chunk)].state.store(
        static_cast<uint32_t>(ChunkState::kOpen),
        std::memory_order_release);
    return chunk;
}

Status
ValueStorage::submitChunkWrite(int64_t chunk, uint32_t offset,
                               const uint8_t *buf, uint32_t len,
                               WriteTicket *ticket)
{
    PRISM_CHECK(static_cast<uint64_t>(offset) + len <= chunk_bytes_);
    io::IoRequest req;
    req.op = io::IoRequest::Op::kWrite;
    req.offset = static_cast<uint64_t>(chunk) * chunk_bytes_ + offset;
    req.length = len;
    req.src = buf;
    req.user_data =
        reinterpret_cast<uint64_t>(static_cast<AsyncIoHandler *>(ticket));
    return device_->submit(req);
}

void
ValueStorage::sealChunk(int64_t chunk, uint32_t used_bytes)
{
    auto &m = metas_[static_cast<size_t>(chunk)];
    m.used_bytes.store(used_bytes, std::memory_order_release);
    m.settled.store(false, std::memory_order_release);
    m.state.store(static_cast<uint32_t>(ChunkState::kSealed),
                  std::memory_order_release);
    reg_sealed_bytes_->record(used_bytes);
}

void
ValueStorage::settleChunk(int64_t chunk)
{
    metas_[static_cast<size_t>(chunk)].settled.store(
        true, std::memory_order_release);
}

void
ValueStorage::freeChunkDeferred(int64_t chunk)
{
    // Only one retirer may free a chunk: concurrent GC/reclaim paths
    // could otherwise push it onto the free list twice and hand the same
    // chunk to two writers.
    auto &meta = metas_[static_cast<size_t>(chunk)];
    uint32_t expected = static_cast<uint32_t>(ChunkState::kSealed);
    if (!meta.state.compare_exchange_strong(
            expected, static_cast<uint32_t>(ChunkState::kFreeing),
            std::memory_order_acq_rel)) {
        // Allow freeing a never-sealed (open, empty) chunk as well.
        expected = static_cast<uint32_t>(ChunkState::kOpen);
        if (!meta.state.compare_exchange_strong(
                expected, static_cast<uint32_t>(ChunkState::kFreeing),
                std::memory_order_acq_rel)) {
            return;  // someone else is already freeing it
        }
    }
    // Readers may still hold addresses into this chunk; recycle it only
    // after two epochs (§5.4's grace-period discipline).
    epochs_.retire([this, chunk] {
        auto &m = metas_[static_cast<size_t>(chunk)];
        const size_t words = (unitsPerChunk() + 63) / 64;
        for (size_t w = 0; w < words; w++)
            m.bitmap[w].store(0, std::memory_order_relaxed);
        m.used_bytes.store(0, std::memory_order_relaxed);
        m.live_units.store(0, std::memory_order_relaxed);
        m.settled.store(false, std::memory_order_relaxed);
        m.state.store(static_cast<uint32_t>(ChunkState::kFree),
                      std::memory_order_release);
        std::lock_guard<prof::TimedTicketLock> lock(free_mu_);
        free_chunks_.push_back(chunk);
    });
}

int64_t
ValueStorage::takeOpenChunk(uint32_t *fill)
{
    std::lock_guard<prof::TimedTicketLock> lock(free_mu_);
    const int64_t chunk = open_chunk_;
    *fill = open_fill_;
    open_chunk_ = -1;
    return chunk;
}

void
ValueStorage::returnOpenChunk(int64_t chunk, uint32_t fill)
{
    int64_t seal = chunk;
    uint32_t seal_fill = fill;
    {
        std::lock_guard<prof::TimedTicketLock> lock(free_mu_);
        if (open_chunk_ < 0 || open_fill_ > fill) {
            // Park the emptier chunk: it has more room left to share.
            std::swap(seal, open_chunk_);
            std::swap(seal_fill, open_fill_);
        }
    }
    if (seal >= 0) {
        sealChunk(seal, seal_fill);
        settleChunk(seal);
    }
}

void
ValueStorage::setValid(uint64_t dev_offset, uint64_t record_bytes)
{
    const uint64_t chunk = dev_offset / chunk_bytes_;
    const uint64_t unit = (dev_offset % chunk_bytes_) / ValueAddr::kSizeUnit;
    auto &m = metas_[chunk];
    const uint64_t prev = m.bitmap[unit / 64].fetch_or(
        1ull << (unit % 64), std::memory_order_acq_rel);
    if (!(prev & (1ull << (unit % 64)))) {
        m.live_units.fetch_add(
            static_cast<uint32_t>(record_bytes / ValueAddr::kSizeUnit),
            std::memory_order_relaxed);
    }
}

void
ValueStorage::clearValid(uint64_t dev_offset, uint64_t record_bytes)
{
    const uint64_t chunk = dev_offset / chunk_bytes_;
    const uint64_t unit = (dev_offset % chunk_bytes_) / ValueAddr::kSizeUnit;
    auto &m = metas_[chunk];
    const uint64_t prev = m.bitmap[unit / 64].fetch_and(
        ~(1ull << (unit % 64)), std::memory_order_acq_rel);
    if (prev & (1ull << (unit % 64))) {
        m.live_units.fetch_sub(
            static_cast<uint32_t>(record_bytes / ValueAddr::kSizeUnit),
            std::memory_order_relaxed);
    }
}

bool
ValueStorage::isValid(uint64_t dev_offset) const
{
    const uint64_t chunk = dev_offset / chunk_bytes_;
    const uint64_t unit = (dev_offset % chunk_bytes_) / ValueAddr::kSizeUnit;
    return metas_[chunk].bitmap[unit / 64].load(std::memory_order_acquire) &
           (1ull << (unit % 64));
}

bool
ValueStorage::needsGc() const
{
    // A dropped-out device cannot take survivor rewrites: leave it alone
    // while it is sick rather than spin on it.
    if (!device_->healthy())
        return false;
    size_t free_count = 0;
    {
        auto *self = const_cast<ValueStorage *>(this);
        std::lock_guard<prof::TimedTicketLock> lock(self->free_mu_);
        free_count = free_chunks_.size();
    }
    return static_cast<double>(metas_.size() - free_count) >
           gc_watermark_ * static_cast<double>(metas_.size());
}

size_t
ValueStorage::runGcPass(Hsit &hsit, Svc *svc)
{
    // One GC pass at a time per Value Storage; concurrent passes would
    // pick overlapping victims and double-relocate.
    std::unique_lock<std::mutex> gc_lock(gc_mu_, std::try_to_lock);
    if (!gc_lock.owns_lock())
        return 0;
    if (!device_->healthy()) {
        // Skip-and-requeue: survivors are rewritten to this same device,
        // so a dropout makes the pass futile. The background loop's next
        // wake retries; meanwhile the store degrades to the healthy SSDs.
        reg_degraded_->inc();
        PRISM_TRACE_INSTANT("vs.gc_skip_degraded");
        return 0;
    }
    PRISM_TRACE_SPAN_VAR(gc_span, "vs.gc_pass");
    gc_span.arg(PRISM_TRACE_NID("ssd"), ssd_id_);
    const uint64_t gc_t0 = nowNs();

    // Greedy victim selection: sealed chunks with the fewest live units.
    struct Victim {
        int64_t chunk;
        uint32_t live;
    };
    std::vector<Victim> victims;
    for (size_t i = 0; i < metas_.size(); i++) {
        const auto &m = metas_[i];
        if (m.state.load(std::memory_order_acquire) !=
            static_cast<uint32_t>(ChunkState::kSealed))
            continue;
        if (!m.settled.load(std::memory_order_acquire))
            continue;  // its writer is still publishing into it
        const uint32_t live = m.live_units.load(std::memory_order_relaxed);
        if (live >= unitsPerChunk())
            continue;  // fully live; nothing to gain
        victims.push_back({static_cast<int64_t>(i), live});
    }
    std::sort(victims.begin(), victims.end(),
              [](const Victim &a, const Victim &b) {
                  return a.live < b.live;
              });
    if (victims.size() > kGcVictimsPerPass)
        victims.resize(kGcVictimsPerPass);
    if (victims.empty())
        return 0;

    // Read every victim with live records as one chain on this SSD's
    // read queue, which retries transient errors. The chunk buffers are
    // kept from pass to pass: freed, their megabytes would go back to
    // the kernel and be faulted in again by the next pass.
    std::vector<std::unique_ptr<GroupRead>> reads;
    for (const auto &v : victims) {
        const uint32_t used = metas_[static_cast<size_t>(v.chunk)]
                                  .used_bytes.load(std::memory_order_acquire);
        if (v.live == 0 || used == 0)
            continue;
        auto r = std::make_unique<GroupRead>();
        if (reads.size() < gc_bufs_.size())
            r->buf.swap(gc_bufs_[reads.size()]);
        r->aim(static_cast<uint64_t>(v.chunk) * chunk_bytes_, used);
        reads.push_back(std::move(r));
    }
    const std::array<ValueStorage *, 1> queue{this};
    (void)readAll(queue, reads);

    struct Survivor {
        uint64_t hsit_idx;
        uint64_t key;
        ValueAddr old_addr;
        std::vector<uint8_t> payload;
    };
    std::vector<Survivor> survivors;
    for (const auto &r : reads) {
        // A victim whose read failed even after the queue's retries is
        // left as-is: its live records keep it from being freed below,
        // and a later pass retries it.
        if (!r->status.isOk())
            continue;
        // Parse the chunk's records; the first-unit bit decides liveness
        // — no key-index traversal (§5.2).
        const std::vector<uint8_t> &chunk_buf = r->buf;
        const uint64_t base = r->req.offset;
        const uint64_t used = chunk_buf.size();
        uint64_t off = 0;
        while (off + sizeof(ValueRecordHeader) <= used) {
            const auto *hdr = reinterpret_cast<const ValueRecordHeader *>(
                chunk_buf.data() + off);
            const uint64_t bytes = recordBytes(hdr->value_size);
            if (hdr->value_size == 0 || off + bytes > used)
                break;  // zero padding tail
            if (!(hdr->flags & ValueRecordHeader::kFlagPad) &&
                isValid(base + off) &&
                recordCrcOk(*hdr, chunk_buf.data() + off +
                                      sizeof(ValueRecordHeader))) {
                Survivor s;
                s.hsit_idx = hdr->backward;
                s.key = hdr->key;
                s.old_addr = ValueAddr::vs(ssd_id_, base + off, bytes);
                s.payload.assign(
                    chunk_buf.data() + off + sizeof(ValueRecordHeader),
                    chunk_buf.data() + off + sizeof(ValueRecordHeader) +
                        hdr->value_size);
                survivors.push_back(std::move(s));
            }
            off += bytes;
        }
    }
    gc_bufs_.resize(std::max(gc_bufs_.size(), reads.size()));
    for (size_t i = 0; i < reads.size(); i++)
        gc_bufs_[i].swap(reads[i]->buf);

    if (!survivors.empty()) {
        uint64_t moved = 0;
        for (const auto &s : survivors)
            moved += recordBytes(static_cast<uint32_t>(s.payload.size()));
        reg_gc_moved_bytes_->add(moved);
        // Rewrite survivors within this same Value Storage (§5.2),
        // appended to its open chunk.
        ChunkWriter writer({this});
        std::vector<ValueAddr> new_addrs;
        new_addrs.reserve(survivors.size());
        for (const auto &s : survivors) {
            const ValueAddr a = writer.add(
                s.hsit_idx, s.key, s.payload.data(),
                static_cast<uint32_t>(s.payload.size()));
            PRISM_CHECK(!a.isNull() && "Value Storage exhausted during GC");
            new_addrs.push_back(a);
        }
        const Status st = writer.finish();
        PRISM_CHECK(st.isOk());

        // Pre-mark the copies live so a concurrent GC pass cannot judge
        // the destination chunk empty before the CASes land. A record
        // whose rewrite failed permanently (device died mid-pass) keeps
        // its old copy: skip both the pre-mark and the CAS, so the HSIT
        // still points into the victim, the victim stays unfreed, and a
        // later pass retries the move.
        for (size_t i = 0; i < survivors.size(); i++) {
            if (!writer.recordFailed(i))
                setValid(new_addrs[i].offset(),
                         new_addrs[i].recordBytes());
        }
        writer.settleAll();
        for (size_t i = 0; i < survivors.size(); i++) {
            const auto &s = survivors[i];
            if (writer.recordFailed(i)) {
                reg_retries_->inc();
                continue;
            }
            if (hsit.casPrimaryDurable(s.hsit_idx, s.old_addr,
                                       new_addrs[i])) {
                clearValid(s.old_addr.offset(), s.old_addr.recordBytes());
                // Same bytes, new home: keep the cached copy serving.
                if (svc != nullptr)
                    svc->rebind(s.hsit_idx, s.old_addr.raw(),
                                new_addrs[i].raw());
            } else {
                // The value was updated or relocated concurrently;
                // whoever won also cleared the old bit. Retract ours.
                clearValid(new_addrs[i].offset(),
                           new_addrs[i].recordBytes());
            }
        }
    }

    size_t reclaimed = 0;
    for (const auto &v : victims) {
        auto &m = metas_[static_cast<size_t>(v.chunk)];
        if (m.live_units.load(std::memory_order_acquire) == 0) {
            freeChunkDeferred(v.chunk);
            reclaimed++;
        }
    }
    reg_gc_passes_->inc();
    reg_gc_reclaimed_chunks_->add(reclaimed);
    reg_gc_pass_ns_->record(nowNs() - gc_t0);
    return reclaimed;
}

void
ValueStorage::resetForRecovery()
{
    const size_t words = (unitsPerChunk() + 63) / 64;
    for (auto &m : metas_) {
        m.state.store(static_cast<uint32_t>(ChunkState::kFree),
                      std::memory_order_relaxed);
        m.settled.store(false, std::memory_order_relaxed);
        m.used_bytes.store(0, std::memory_order_relaxed);
        m.live_units.store(0, std::memory_order_relaxed);
        for (size_t w = 0; w < words; w++)
            m.bitmap[w].store(0, std::memory_order_relaxed);
    }
    std::lock_guard<prof::TimedTicketLock> lock(free_mu_);
    free_chunks_.clear();
    open_chunk_ = -1;
}

void
ValueStorage::markLiveAtRecovery(uint64_t dev_offset, uint64_t record_bytes)
{
    const uint64_t chunk = dev_offset / chunk_bytes_;
    auto &m = metas_[chunk];
    m.state.store(static_cast<uint32_t>(ChunkState::kSealed),
                  std::memory_order_relaxed);
    m.settled.store(true, std::memory_order_relaxed);
    const auto end = static_cast<uint32_t>(
        dev_offset % chunk_bytes_ + record_bytes);
    uint32_t used = m.used_bytes.load(std::memory_order_relaxed);
    while (end > used &&
           !m.used_bytes.compare_exchange_weak(used, end,
                                               std::memory_order_relaxed)) {
    }
    setValid(dev_offset, record_bytes);
}

void
ValueStorage::finalizeRecovery()
{
    std::lock_guard<prof::TimedTicketLock> lock(free_mu_);
    for (size_t i = metas_.size(); i-- > 0;) {
        if (metas_[i].state.load(std::memory_order_relaxed) ==
            static_cast<uint32_t>(ChunkState::kFree))
            free_chunks_.push_back(static_cast<int64_t>(i));
    }
}

}  // namespace prism::core
