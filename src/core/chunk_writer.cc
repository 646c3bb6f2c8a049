#include "core/chunk_writer.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace prism::core {

namespace {
/** Retry budget for a failing chunk write before it is abandoned. */
constexpr int kMaxWriteRetries = 6;
/** Capped exponential backoff between retries. */
constexpr uint64_t kRetryBackoffBaseNs = 20'000;
constexpr uint64_t kRetryBackoffCapNs = 1'000'000;
}  // namespace

ChunkWriter::ChunkWriter(std::vector<ValueStorage *> targets, uint64_t seed,
                         int max_inflight)
    : targets_(std::move(targets)), rng_(seed),
      chunk_bytes_(targets_.empty() ? 0 : targets_[0]->chunkBytes()),
      max_inflight_(max_inflight)
{
    PRISM_CHECK(!targets_.empty());
    auto &reg = stats::StatsRegistry::global();
    reg_inflight_ = &reg.gauge("prism.chunkwriter.inflight", "chunks");
    reg_retries_ = &reg.counter("prism.pwb.retries", "ops");
    reg_write_failures_ =
        &reg.counter("prism.pwb.chunk_write_failures", "ops");
}

ChunkWriter::~ChunkWriter()
{
    // A writer abandoned before finish() must still drain its I/O, so
    // that no completion names a freed ticket.
    if (!finished_)
        (void)finish();
}

bool
ChunkWriter::openChunk()
{
    // Prefer a healthy, idle Value Storage (no in-flight requests),
    // falling back to any healthy one, then to a random target — §5.2's
    // load-spreading policy across SSDs, degraded-aware: a dropped-out
    // device only gets new chunks when every target is unhealthy (its
    // writes will fail and re-queue, which at least preserves the data
    // in the PWB ring).
    ValueStorage *pick = nullptr;
    const size_t start = rng_.nextUniform(targets_.size());
    for (size_t i = 0; i < targets_.size(); i++) {
        ValueStorage *vs = targets_[(start + i) % targets_.size()];
        if (vs->device().healthy() && vs->device().isIdle()) {
            pick = vs;
            break;
        }
    }
    for (size_t i = 0; pick == nullptr && i < targets_.size(); i++) {
        ValueStorage *vs = targets_[(start + i) % targets_.size()];
        if (vs->device().healthy())
            pick = vs;
    }
    if (pick == nullptr)
        pick = targets_[start];

    int64_t chunk = pick->allocChunk();
    if (chunk < 0) {
        // The preferred target is full; try the others.
        for (ValueStorage *vs : targets_) {
            chunk = vs->allocChunk();
            if (chunk >= 0) {
                pick = vs;
                break;
            }
        }
    }
    if (chunk < 0)
        return false;

    cur_vs_ = pick;
    cur_chunk_ = chunk;
    cur_used_ = 0;
    cur_first_record_ = records_added_;
    if (!cur_buf_)
        cur_buf_.reset(new uint8_t[chunk_bytes_]);
    return true;
}

ValueAddr
ChunkWriter::add(uint64_t hsit_idx, uint64_t key, const void *data,
                 uint32_t size)
{
    PRISM_CHECK(!finished_);
    const uint64_t bytes = recordBytes(size);
    PRISM_CHECK(bytes <= chunk_bytes_);
    if (cur_vs_ != nullptr && cur_used_ + bytes > chunk_bytes_) {
        const Status st = submitCurrent();
        PRISM_CHECK(st.isOk());
    }
    if (cur_vs_ == nullptr && !openChunk())
        return ValueAddr();

    auto *hdr = reinterpret_cast<ValueRecordHeader *>(
        cur_buf_.get() + cur_used_);
    hdr->backward = hsit_idx;
    hdr->key = key;
    hdr->value_size = size;
    hdr->flags = 0;
    hdr->reserved = 0;
    std::memcpy(hdr + 1, data, size);
    hdr->crc = recordCrc(*hdr, hdr + 1);
    // Zero the alignment tail so a partial-chunk parse stops cleanly.
    const uint64_t tail = bytes - sizeof(ValueRecordHeader) - size;
    if (tail > 0)
        std::memset(reinterpret_cast<uint8_t *>(hdr + 1) + size, 0, tail);

    const uint64_t dev_off =
        static_cast<uint64_t>(cur_chunk_) * chunk_bytes_ + cur_used_;
    cur_used_ += static_cast<uint32_t>(bytes);
    records_added_++;
    return ValueAddr::vs(cur_vs_->ssdId(), dev_off, bytes);
}

void
ChunkWriter::reapFront(bool block)
{
    InFlight &f = inflight_.front();
    // The span covers reap + publish on the driving thread; the SSD-side
    // service time lives on the device's own trace track. wall_ns (time
    // since submit) shows how long the chunk was in the pipeline.
    PRISM_TRACE_SPAN_VAR(span, "pwb.chunk_write");
    if (block)
        f.ticket->wait();
    // An errored completion (injected fault or device dropout) is
    // retried in place with capped exponential backoff — same chunk,
    // same offsets, so the addresses handed out by add() stay valid.
    for (int attempt = 1;
         f.ticket->failed() && attempt <= kMaxWriteRetries; attempt++) {
        reg_retries_->inc();
        PRISM_TRACE_INSTANT("pwb.chunk_retry");
        delayFor(std::min(kRetryBackoffBaseNs << (attempt - 1),
                          kRetryBackoffCapNs));
        f.ticket->reset();
        const Status st = submitTicketed(f);
        if (!st.isOk()) {
            f.ticket->onIoComplete(st);
            break;
        }
        f.ticket->wait();
    }
    reg_inflight_->sub(1);
    if (f.ticket->failed()) {
        // Permanent failure: these records never became durable on SSD.
        // Recycle the chunk unwritten (nothing references it — the
        // callback that would have published the addresses never fires)
        // and remember the record range so the caller can re-queue or
        // skip those records.
        reg_write_failures_->inc();
        failed_ranges_.emplace_back(f.first_record, f.record_count);
        f.vs->freeChunkDeferred(f.chunk);
    } else if (callback_) {
        callback_(f.vs, f.chunk, f.first_record, f.record_count);
    }
    span.arg(PRISM_TRACE_NID("records"), f.record_count);
    span.arg(PRISM_TRACE_NID("wall_ns"), nowNs() - f.submit_ns);
    inflight_.pop_front();  // releases the chunk buffer
}

size_t
ChunkWriter::pollCompleted()
{
    // Submission order keeps the caller's record bookkeeping simple; an
    // out-of-order completion is reaped once everything ahead of it is.
    size_t reaped = 0;
    while (!inflight_.empty() && inflight_.front().ticket->done()) {
        reapFront(/*block=*/false);
        reaped++;
    }
    return reaped;
}

Status
ChunkWriter::submitCurrent()
{
    if (cur_vs_ == nullptr)
        return Status::ok();
    InFlight f;
    f.vs = cur_vs_;
    f.chunk = cur_chunk_;
    f.used = cur_used_;
    f.buf = std::move(cur_buf_);
    f.ticket = std::make_unique<WriteTicket>();
    f.first_record = cur_first_record_;
    f.record_count = records_added_ - cur_first_record_;
    f.submit_ns = nowNs();
    PRISM_TRACE_INSTANT("pwb.chunk_submit");
    const Status st = submitTicketed(f);
    if (!st.isOk())
        return st;
    f.vs->sealChunk(f.chunk, f.used);
    written_.emplace_back(f.vs, f.chunk);
    submitted_records_ += f.record_count;
    reg_inflight_->add(1);
    inflight_.push_back(std::move(f));
    cur_vs_ = nullptr;
    cur_chunk_ = -1;
    cur_used_ = 0;

    // Pipeline discipline: reap whatever already completed, then bound
    // the outstanding window by blocking on the oldest write.
    pollCompleted();
    if (max_inflight_ > 0) {
        while (inflight_.size() > static_cast<size_t>(max_inflight_))
            reapFront(/*block=*/true);
    }
    return Status::ok();
}

Status
ChunkWriter::finish()
{
    if (finished_)
        return Status::ok();
    finished_ = true;
    if (cur_vs_ != nullptr && cur_used_ > 0) {
        // finished_ guard above lets submitCurrent run normally.
        finished_ = false;
        const Status st = submitCurrent();
        finished_ = true;
        if (!st.isOk())
            return st;
    } else if (cur_vs_ != nullptr) {
        // Open but empty chunk: just recycle it.
        cur_vs_->sealChunk(cur_chunk_, 0);
        cur_vs_->freeChunkDeferred(cur_chunk_);
        cur_vs_ = nullptr;
    }
    while (!inflight_.empty())
        reapFront(/*block=*/true);
    return Status::ok();
}

size_t
ChunkWriter::finishFullChunksOnly()
{
    if (finished_)
        return submitted_records_;
    finished_ = true;
    if (cur_vs_ != nullptr) {
        // Discard the partial tail unwritten; nothing references its
        // chunk, so it goes straight back through the free list.
        cur_vs_->sealChunk(cur_chunk_, 0);
        cur_vs_->freeChunkDeferred(cur_chunk_);
        cur_vs_ = nullptr;
        cur_chunk_ = -1;
        cur_used_ = 0;
    }
    while (!inflight_.empty())
        reapFront(/*block=*/true);
    return submitted_records_;
}

Status
ChunkWriter::submitTicketed(InFlight &f)
{
    if (PRISM_FAULT_POINT("pwb.chunk_write")) {
        // Task-level injected failure: the ticket resolves as an I/O
        // error without reaching the device; the retry path resubmits.
        f.ticket->onIoComplete(Status::ioError("injected chunk write"));
        return Status::ok();
    }
    return f.vs->submitChunkWrite(f.chunk, f.buf.get(), f.used,
                                  f.ticket.get());
}

bool
ChunkWriter::recordFailed(size_t idx) const
{
    for (const auto &[first, count] : failed_ranges_) {
        if (idx >= first && idx < first + count)
            return true;
    }
    return false;
}

size_t
ChunkWriter::firstFailedRecord() const
{
    size_t lowest = SIZE_MAX;
    for (const auto &[first, count] : failed_ranges_)
        lowest = std::min(lowest, first);
    return lowest;
}

void
ChunkWriter::settleAll()
{
    for (auto &[vs, chunk] : written_)
        vs->settleChunk(chunk);
}

}  // namespace prism::core
