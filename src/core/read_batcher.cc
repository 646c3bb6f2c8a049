#include "core/read_batcher.h"

#include "common/logging.h"
#include "common/spinlock.h"

namespace prism::core {

ReadBatcher::ReadBatcher(io::IoBackend &device, ReadBatchMode mode,
                         int queue_depth, uint64_t timeout_us)
    : device_(device), mode_(mode), queue_depth_(queue_depth),
      timeout_us_(timeout_us)
{
    PRISM_CHECK(queue_depth_ >= 1);
    auto &reg = stats::StatsRegistry::global();
    reg_batches_ = &reg.counter("prism.tcq.batches", "ops");
    reg_requests_ = &reg.counter("prism.tcq.requests", "ops");
    if (mode_ == ReadBatchMode::kTimeoutAsync)
        ta_thread_ = std::thread([this] { taLoop(); });
}

ReadBatcher::~ReadBatcher()
{
    if (ta_thread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(ta_mu_);
            stop_.store(true, std::memory_order_release);
        }
        ta_cv_.notify_all();
        ta_thread_.join();
    }
}

Status
ReadBatcher::read(uint64_t offset, void *buf, uint32_t len)
{
    Node node;
    node.req.op = io::IoRequest::Op::kRead;
    node.req.offset = offset;
    node.req.length = len;
    node.req.buf = buf;
    node.req.user_data = reinterpret_cast<uint64_t>(&node.waiter);

    switch (mode_) {
      case ReadBatchMode::kThreadCombining:
        return readThreadCombining(node);
      case ReadBatchMode::kTimeoutAsync:
        return readTimeoutAsync(node);
      case ReadBatchMode::kNone:
        return readUnbatched(node);
    }
    return Status::notSupported();
}

Status
ReadBatcher::readUnbatched(Node &node)
{
    Status s = device_.submit(node.req);
    if (!s.isOk())
        return s;
    reg_batches_->inc();
    reg_requests_->inc();
    return node.waiter.waitNonzero() == ReadWaiter::kOk
               ? Status::ok()
               : Status::ioError("read completion error");
}

Status
ReadBatcher::readThreadCombining(Node &node)
{
    // Enqueue with an atomic swap on the TCQ tail (Fig. 5, step 1/2).
    Node *prev = tail_.exchange(&node, std::memory_order_acq_rel);
    if (prev == nullptr) {
        // Queue was empty: this thread is the leader.
        return leadAndSubmit(node);
    }
    prev->next.store(&node, std::memory_order_release);
    // Follower: the leader coalesces our request; we only wait. If the
    // leader hits the coalescing limit first, it promotes us to lead the
    // remainder of the queue.
    const uint32_t sig = node.waiter.waitNonzero();
    if (sig == ReadWaiter::kOk)
        return Status::ok();
    if (sig == ReadWaiter::kIoError)
        return Status::ioError("read completion error");
    PRISM_DCHECK(sig == ReadWaiter::kPromoted);
    node.waiter.sig.store(0, std::memory_order_relaxed);
    return leadAndSubmit(node);
}

Status
ReadBatcher::leadAndSubmit(Node &self)
{
    std::vector<io::IoRequest> batch;
    batch.reserve(static_cast<size_t>(queue_depth_));
    batch.push_back(self.req);

    Node *cur = &self;
    while (batch.size() < static_cast<size_t>(queue_depth_)) {
        // Try to close the queue at cur; success means no more followers.
        Node *expected = cur;
        if (tail_.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel)) {
            cur = nullptr;
            break;
        }
        // A follower enqueued after cur; its next link lands momentarily.
        Node *n;
        int spins = 0;
        while ((n = cur->next.load(std::memory_order_acquire)) == nullptr) {
            if (++spins > 128) {
                std::this_thread::yield();
                spins = 0;
            } else {
                cpuRelax();
            }
        }
        batch.push_back(n->req);
        cur = n;
    }

    if (cur != nullptr) {
        // Coalescing limit reached with the queue still open: hand the
        // remainder to the next node (before submitting, so its frame is
        // guaranteed alive).
        Node *expected = cur;
        if (!tail_.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel)) {
            Node *n;
            int spins = 0;
            while ((n = cur->next.load(std::memory_order_acquire)) ==
                   nullptr) {
                if (++spins > 128) {
                    std::this_thread::yield();
                    spins = 0;
                } else {
                    cpuRelax();
                }
            }
            n->waiter.signal(2);
        }
    }

    Status s = device_.submit({batch.data(), batch.size()});
    if (!s.isOk())
        return s;
    reg_batches_->inc();
    reg_requests_->add(batch.size());

    // Followers return as soon as their completion arrives (delivered by
    // the Value Storage completion thread); the leader waits its own.
    return self.waiter.waitNonzero() == ReadWaiter::kOk
               ? Status::ok()
               : Status::ioError("read completion error");
}

Status
ReadBatcher::readTimeoutAsync(Node &node)
{
    {
        std::lock_guard<std::mutex> lock(ta_mu_);
        ta_pending_.push_back(&node);
    }
    ta_cv_.notify_one();
    return node.waiter.waitNonzero() == ReadWaiter::kOk
               ? Status::ok()
               : Status::ioError("read completion error");
}

void
ReadBatcher::taLoop()
{
    std::unique_lock<std::mutex> lock(ta_mu_);
    while (!stop_.load(std::memory_order_acquire)) {
        if (ta_pending_.empty()) {
            ta_cv_.wait(lock, [this] {
                return stop_.load(std::memory_order_acquire) ||
                       !ta_pending_.empty();
            });
            continue;
        }
        // Wait out the batching window (or until the batch is full) in
        // the hope of coalescing more requests — the "TA" strawman whose
        // latency cost Fig. 11 quantifies.
        ta_cv_.wait_for(lock, std::chrono::microseconds(timeout_us_),
                        [this] {
                            return stop_.load(std::memory_order_acquire) ||
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
        device_.submit({batch.data(), batch.size()});
        reg_batches_->inc();
        reg_requests_->add(n);
        lock.lock();
    }
}

}  // namespace prism::core
