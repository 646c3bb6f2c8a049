/**
 * @file
 * Opportunistic thread combining for Value Storage reads (§5.3, Fig. 5).
 *
 * Threads that miss both the SVC and the PWB must read the SSD. Each
 * such thread enqueues itself on a Thread Combining Queue (TCQ) with an
 * atomic swap on the tail, MCS-style. The thread that finds the queue
 * empty becomes the *leader*: it walks the queue, coalesces up to
 * queue-depth requests (its own plus the followers'), submits them as
 * one io_uring batch, and everyone waits for their individual
 * completion, which the Value Storage completion thread delivers.
 *
 * The effect is the dynamic batch sizing the paper wants: many
 * concurrent readers form large batches (bandwidth), a lone reader
 * submits immediately (latency).
 *
 * The timeout-based alternative ("TA" in Fig. 11) and a no-batching mode
 * are provided for the ablation benchmarks.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/options.h"
#include "io/io_backend.h"

namespace prism::core {

/**
 * Per-request completion flag. The device completion path signals it via
 * the request's user_data. Values: 0 = pending, 1 = completed,
 * 2 = promoted to leader (TC mode internal), 3 = completed with an I/O
 * error (no data transferred; see common/fault.h).
 */
struct ReadWaiter {
    static constexpr uint32_t kOk = 1;
    static constexpr uint32_t kPromoted = 2;
    static constexpr uint32_t kIoError = 3;

    std::atomic<uint32_t> sig{0};

    void
    signal(uint32_t v)
    {
        sig.store(v, std::memory_order_release);
        sig.notify_all();
    }

    uint32_t
    waitNonzero()
    {
        uint32_t v;
        while ((v = sig.load(std::memory_order_acquire)) == 0)
            sig.wait(0, std::memory_order_acquire);
        return v;
    }
};

/** Batches blocking reads to one SSD according to ReadBatchMode. */
class ReadBatcher {
  public:
    /**
     * @param device     the Value Storage's device (any io::IoBackend).
     * @param mode       combining scheme.
     * @param queue_depth coalescing limit (paper: 64).
     * @param timeout_us TA mode batching window.
     */
    ReadBatcher(io::IoBackend &device, ReadBatchMode mode, int queue_depth,
                uint64_t timeout_us);
    ~ReadBatcher();

    ReadBatcher(const ReadBatcher &) = delete;
    ReadBatcher &operator=(const ReadBatcher &) = delete;

    /**
     * Blocking read of [offset, offset+len); may be coalesced with
     * concurrent readers into a single device submission.
     */
    Status read(uint64_t offset, void *buf, uint32_t len);

    /**
     * Deliver a device completion whose user_data was produced by this
     * module (called from the Value Storage completion thread). @p ok
     * is the completion's status; an error wakes the waiter with
     * ReadWaiter::kIoError so the read returns Status::ioError.
     */
    static void
    completeFromUserData(uint64_t user_data, bool ok = true)
    {
        reinterpret_cast<ReadWaiter *>(user_data)->signal(
            ok ? ReadWaiter::kOk : ReadWaiter::kIoError);
    }

  private:
    struct Node {
        io::IoRequest req;
        ReadWaiter waiter;
        std::atomic<Node *> next{nullptr};
    };

    Status readThreadCombining(Node &node);
    Status readTimeoutAsync(Node &node);
    Status readUnbatched(Node &node);

    /** Leader role: coalesce from @p self onward, submit, wait own. */
    Status leadAndSubmit(Node &self);

    void taLoop();

    io::IoBackend &device_;
    ReadBatchMode mode_;
    int queue_depth_;
    uint64_t timeout_us_;

    // TC state.
    std::atomic<Node *> tail_{nullptr};

    // TA state.
    std::mutex ta_mu_;
    std::condition_variable ta_cv_;
    std::vector<Node *> ta_pending_;
    std::atomic<bool> stop_{false};
    std::thread ta_thread_;

    // Shared-by-name process-wide metrics; requests/batches is the TCQ
    // combine ratio (Fig. 11).
    stats::Counter *reg_batches_;
    stats::Counter *reg_requests_;
};

}  // namespace prism::core
