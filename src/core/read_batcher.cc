#include "core/read_batcher.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/logging.h"
#include "common/spinlock.h"

namespace prism::core {

namespace {
/** Resubmissions of a read that failed with a transient I/O error. */
constexpr int kMaxRetries = 3;
/** TA mode: how long the batcher waits for more reads before submitting. */
constexpr std::chrono::microseconds kTimeoutBatch{100};
}  // namespace

ReadBatcher::ReadBatcher(io::IoBackend &device, ReadBatchMode mode,
                         int queue_depth)
    : device_(device), mode_(mode), queue_depth_(queue_depth)
{
    PRISM_CHECK(queue_depth_ >= 1);
    auto &reg = stats::StatsRegistry::global();
    reg_batches_ = &reg.counter("prism.tcq.batches", "ops");
    reg_requests_ = &reg.counter("prism.tcq.requests", "ops");
    reg_retries_ = &reg.counter("prism.vs.retries", "ops");
    if (mode_ == ReadBatchMode::kTimeoutAsync)
        ta_thread_ = std::thread([this] { taLoop(); });
}

ReadBatcher::~ReadBatcher()
{
    if (ta_thread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(ta_mu_);
            stop_ = true;
        }
        ta_cv_.notify_all();
        ta_thread_.join();
    }
}

void
ReadBatcher::enqueue(std::span<Read *const> reads)
{
    if (reads.empty())
        return;
    for (size_t i = 0; i < reads.size(); i++) {
        Read *r = reads[i];
        r->queue = this;
        r->req.op = io::IoRequest::Op::kRead;
        r->req.user_data = reinterpret_cast<uint64_t>(
            static_cast<AsyncIoHandler *>(r));
        r->next.store(i + 1 < reads.size() ? reads[i + 1] : nullptr,
                      std::memory_order_relaxed);
    }
    switch (mode_) {
      case ReadBatchMode::kThreadCombining: {
        // Append the chain with one swap on the TCQ tail (Fig. 5, steps
        // 1-2). Finding the queue empty makes this issuer the leader;
        // otherwise the leader in charge takes the chain when it walks
        // past the predecessor.
        Read *first = reads.front();
        Read *prev = tail_.exchange(reads.back(), std::memory_order_acq_rel);
        if (prev == nullptr)
            lead(first);
        else
            prev->next.store(first, std::memory_order_release);
        return;
      }
      case ReadBatchMode::kTimeoutAsync: {
        {
            std::lock_guard<std::mutex> lock(ta_mu_);
            ta_pending_.insert(ta_pending_.end(), reads.begin(),
                               reads.end());
        }
        ta_cv_.notify_one();
        return;
      }
      case ReadBatchMode::kNone:
        lead(reads.front());  // the issuer's own reads only
        return;
    }
}

void
ReadBatcher::lead(Read *cur)
{
    std::vector<io::IoRequest> batch;
    while (cur != nullptr) {
        const io::IoRequest first = cur->req;
        cur = successor(cur);
        if (cur == nullptr || queue_depth_ == 1) {
            submit({&first, 1});  // a lone read needs no batch buffer
            continue;
        }
        batch.assign(1, first);
        do {
            batch.push_back(cur->req);
            cur = successor(cur);
        } while (cur != nullptr &&
                 batch.size() < static_cast<size_t>(queue_depth_));
        submit(batch);
    }
}

ReadBatcher::Read *
ReadBatcher::successor(Read *r)
{
    Read *n = r->next.load(std::memory_order_acquire);
    if (n != nullptr || mode_ == ReadBatchMode::kNone)
        return n;
    Read *expected = r;
    if (tail_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel))
        return nullptr;
    // An issuer swapped itself in behind r; its link lands momentarily.
    int spins = 0;
    while ((n = r->next.load(std::memory_order_acquire)) == nullptr) {
        if (++spins > 128) {
            std::this_thread::yield();
            spins = 0;
        } else {
            cpuRelax();
        }
    }
    return n;
}

void
ReadBatcher::submit(std::span<const io::IoRequest> batch)
{
    // The device rejects a whole batch for one malformed request
    // (io/io_backend.h): such a read fails here, alone, and the rest of
    // the batch goes on without it.
    const uint64_t capacity = device_.capacity();
    const auto malformed = [capacity](const io::IoRequest &r) {
        return r.length == 0 || r.offset + r.length > capacity;
    };
    const auto fail = [](const io::IoRequest &r, const Status &st) {
        reinterpret_cast<AsyncIoHandler *>(r.user_data)->onIoComplete(st);
    };
    if (std::any_of(batch.begin(), batch.end(), malformed)) {
        std::vector<io::IoRequest> rest;
        for (const io::IoRequest &req : batch) {
            if (!malformed(req))
                rest.push_back(req);
            else
                fail(req, Status::invalidArgument(
                              "read is empty or beyond device capacity"));
        }
        if (!rest.empty())
            submit(rest);
        return;
    }
    // The device accepts every well-formed batch, so counting before the
    // submit counts accepted submissions only, and whoever sees a read
    // complete also sees it counted.
    reg_batches_->inc();
    reg_requests_->add(batch.size());
    const Status st = device_.submit(batch);
    if (!st.isOk()) {  // a backend that breaks its contract
        for (const io::IoRequest &req : batch)
            fail(req, st);  // no completion will come
    }
}

void
ReadBatcher::complete(Read &r, const Status &st)
{
    const bool retry =
        st.code() == StatusCode::kIoError && r.retries < kMaxRetries;
    Read *next = nullptr;
    if (retry || r.retries > 0) {
        std::lock_guard<std::mutex> lock(retry_mu_);
        if (r.retries > 0)
            retry_busy_ = false;  // r was the retry in flight
        if (retry && r.retries > 0)
            retry_wait_.push_front(&r);  // failed again: it goes next
        else if (retry)
            retry_wait_.push_back(&r);
        if (!retry_busy_ && !retry_wait_.empty()) {
            next = retry_wait_.front();
            retry_wait_.pop_front();
            retry_busy_ = true;
        }
    }
    if (!retry)
        r.onRead(st);  // may free r
    if (next != nullptr) {
        // Reads are idempotent. The backoff stalls this completion loop
        // briefly; errors are rare enough that simplicity wins over a
        // timer wheel.
        reg_retries_->inc();
        delayFor(20'000ull << next->retries);
        next->retries++;
        enqueue(*next);
    }
}

void
ReadBatcher::taLoop()
{
    std::unique_lock<std::mutex> lock(ta_mu_);
    while (!stop_) {
        if (ta_pending_.empty()) {
            ta_cv_.wait(lock,
                        [this] { return stop_ || !ta_pending_.empty(); });
            continue;
        }
        // Wait out the batching window (or until the batch is full) in
        // the hope of coalescing more requests — the "TA" strawman whose
        // latency cost Fig. 11 quantifies.
        ta_cv_.wait_for(lock, kTimeoutBatch,
                        [this] {
                            return stop_ ||
                                   ta_pending_.size() >=
                                       static_cast<size_t>(queue_depth_);
                        });
        std::vector<io::IoRequest> batch;
        const size_t n = std::min(ta_pending_.size(),
                                  static_cast<size_t>(queue_depth_));
        batch.reserve(n);
        for (size_t i = 0; i < n; i++)
            batch.push_back(ta_pending_[i]->req);
        ta_pending_.erase(ta_pending_.begin(),
                          ta_pending_.begin() + static_cast<long>(n));
        lock.unlock();
        submit(batch);
        lock.lock();
    }
}

}  // namespace prism::core
