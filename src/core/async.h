/**
 * @file
 * Completion-driven request handles for the async PrismDb API.
 *
 * An async operation (PrismDb::asyncGet and friends) returns an OpFuture:
 * a shared handle to the operation's result slot. One caller thread can
 * start hundreds of operations, keep the futures, and drain them later —
 * which is how the paper's per-SSD queue depths get filled without one
 * blocked thread per outstanding read (§5.3).
 *
 * Lifecycle:
 *
 *   caller thread                         completion thread (per VS)
 *   ─────────────                         ──────────────────────────
 *   asyncGet(key)
 *     ├─ synchronous prefix: index /
 *     │  HSIT / SVC / PWB under an
 *     │  EpochGuard; may complete here
 *     └─ SSD miss path: enqueue the
 *        read on the VS read queue
 *        (core/read_batcher.h), return
 *        the future                  ───▶   device completion arrives
 *                                         ├─ AsyncIoHandler::onIoComplete
 *                                         ├─ validate + publish to SVC
 *                                         └─ AsyncOpState::complete()
 *   future.wait() / future.ready()  ◀──   (futex wake + user callback)
 *
 * The blocking API is the degenerate case: get() runs the same code on a
 * state on its own stack and waits for it; put() and del() never wait
 * for a device, so their async forms complete before returning.
 *
 * Threading contract: the user callback (when set) runs on whichever
 * thread completes the operation — the *caller* thread when the op
 * finishes in its synchronous prefix (NVM hit, SVC hit, immediate error),
 * otherwise a Value Storage completion thread, a background worker, or
 * the read-queue thread that failed the op's read as malformed. Keep
 * callbacks short and non-blocking; they run inside the completion loop
 * that services every other in-flight I/O on that SSD.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace prism::core {

/** Optional completion hook; see the threading contract above. */
using AsyncCallback = std::function<void(const Status &)>;

/**
 * Result slot shared between the issuing thread and whichever thread
 * completes the operation. `done` is the publication flag: complete()
 * sets it to kDone with release order after filling every other field,
 * so a ready() observer may read them without further synchronisation.
 */
struct AsyncOpState {
    static constexpr uint32_t kDone = 1;
    static constexpr uint32_t kSleeper = 2;  ///< running; a waiter sleeps

    std::atomic<uint32_t> done{0};
    Status status;
    std::string value;  ///< asyncGet result
    std::vector<std::pair<uint64_t, std::string>> rows;  ///< asyncScan
    AsyncCallback callback;

    void
    complete(Status st)
    {
        status = std::move(st);
        // A blocking get's state lives on its waiter's stack and may be
        // gone once `done` is set; only a state with a callback is heap
        // state that its completer still owns.
        const bool has_callback = static_cast<bool>(callback);
        // Notify only a sleeper: most ops complete with nobody waiting
        // (inline hits, callback-driven callers), and a notify makes a
        // futex call whenever any thread sleeps on an address that
        // shares its wait bucket.
        if (done.exchange(kDone, std::memory_order_acq_rel) == kSleeper)
            done.notify_all();
        if (has_callback)
            callback(status);
    }

    bool
    ready() const
    {
        return done.load(std::memory_order_acquire) == kDone;
    }

    void
    wait()
    {
        uint32_t running = 0;
        done.compare_exchange_strong(running, kSleeper,
                                     std::memory_order_acquire);
        while (done.load(std::memory_order_acquire) != kDone)
            done.wait(kSleeper, std::memory_order_acquire);
    }
};

/**
 * Caller-side handle to an async operation. Copyable (shared state);
 * cheap to move. A default-constructed future is invalid.
 */
class OpFuture {
  public:
    OpFuture() = default;
    explicit OpFuture(std::shared_ptr<AsyncOpState> s)
        : state_(std::move(s))
    {
    }

    bool valid() const { return state_ != nullptr; }

    /** Non-blocking: has the operation finished? */
    bool ready() const { return state_->ready(); }

    /** Block until finished; returns the final status. */
    const Status &
    wait() const
    {
        state_->wait();
        return state_->status;
    }

    /** Final status; only meaningful once ready(). */
    const Status &status() const { return state_->status; }

    /** asyncGet payload; only meaningful once ready() and ok. */
    const std::string &value() const { return state_->value; }
    std::string &&takeValue() { return std::move(state_->value); }

    /** asyncScan rows; only meaningful once ready() and ok. */
    const std::vector<std::pair<uint64_t, std::string>> &
    rows() const
    {
        return state_->rows;
    }
    std::vector<std::pair<uint64_t, std::string>> &&
    takeRows()
    {
        return std::move(state_->rows);
    }

  private:
    std::shared_ptr<AsyncOpState> state_;
};

/**
 * The device-completion contract of every Value Storage request: its
 * user_data is an AsyncIoHandler*, and the VS completion loop calls
 * onIoComplete(status) on its own thread for each completion, with no
 * other decoding. The handlers are the queued read
 * (ReadBatcher::Read, core/read_batcher.h), which owns the retry policy
 * and then calls its owner — an async get, or one read of a scan or
 * multiGet — and the chunk-write ticket (WriteTicket,
 * core/value_storage.h).
 *
 * onIoComplete owns the continuation: it may resubmit the I/O, restart
 * the lookup (the record moved mid-flight), or finish the op, and it may
 * free the handler.
 */
class AsyncIoHandler {
  public:
    virtual ~AsyncIoHandler() = default;
    virtual void onIoComplete(const Status &st) = 0;
};

}  // namespace prism::core
