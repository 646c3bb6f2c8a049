/**
 * @file
 * BgPool — the background I/O worker pool (§5.2).
 *
 * Prism's performance argument rests on *background* machinery keeping
 * up with the NVM-speed write path: PWB reclamation streams chunk-sized
 * sequential writes to many SSDs, and Value Storage GC runs per SSD.
 * Both are embarrassingly parallel across PWBs / Value Storages, so
 * they run as tasks on this shared pool (sized by
 * PrismOptions::bg_workers) instead of on two lone threads.
 *
 * Fairness: the pool is shared — under the shard router every shard's
 * reclaim and GC competes for the same workers. A single FIFO queue
 * would let one producer's burst (a shard entering a GC storm) delay
 * every other producer's reclaim behind it. Instead each producer
 * registers a *source* (allocSource()) with its own FIFO sub-queue, and
 * workers drain the sources round-robin: per-source ordering is
 * preserved, but a source with k queued tasks cannot make another
 * source wait more than one task-length per dispatch. The wait between
 * enqueue and dispatch is recorded in the prism.bg.queue_delay_ns
 * histogram — the fairness invariant is measured, not asserted.
 *
 * Two entry points:
 *  - submit(): fire-and-forget (reclaim passes, GC passes, async
 *    scans). After shutdown() the task runs inline on the caller.
 *  - parallelFor(): fan an index range out over the workers and block
 *    until every index ran. The caller *helps* (it claims indices like
 *    any worker), so the call makes progress even when every pool
 *    worker is busy — including when it is issued from inside a pool
 *    task (the GC round inside a reclamation pass does exactly that).
 *    This makes parallelFor deadlock-free by construction.
 *
 * Observability (docs/OBSERVABILITY.md): prism.bg.tasks,
 * prism.bg.task_ns, prism.bg.queue_depth, prism.bg.queue_delay_ns, and
 * per-worker prism.bg.worker<i>.busy_ns.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/prof.h"
#include "common/stats.h"

namespace prism::core {

/** Fixed-size worker pool for background reclamation and GC tasks. */
class BgPool {
  public:
    /** @param workers thread count, at least 1. */
    explicit BgPool(int workers);
    ~BgPool();

    BgPool(const BgPool &) = delete;
    BgPool &operator=(const BgPool &) = delete;

    /**
     * Register a new producer and return its source id for submit().
     * Source 0 always exists (anonymous producers). Sources are never
     * freed — they cost one empty deque each and shard counts are small.
     */
    int allocSource();

    /**
     * Enqueue @p fn for a worker under @p source's sub-queue (inline
     * once the pool is shut down). Tasks must not assume any ordering
     * against tasks from other sources.
     */
    void submit(std::function<void()> fn) { submit(0, std::move(fn)); }
    void submit(int source, std::function<void()> fn);

    /**
     * Run fn(0..n-1) across the workers and the calling thread, then
     * return once all n indices completed. Safe to call from inside a
     * pool task: the caller claims indices itself, so saturation of the
     * pool delays but never deadlocks the call.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn) {
        parallelFor(0, n, fn);
    }
    void parallelFor(int source, size_t n,
                     const std::function<void(size_t)> &fn);

    /**
     * Drain every queued task and join the workers. Idempotent; called
     * by the destructor. Owners call it explicitly before tearing down
     * state the tasks reference.
     */
    void shutdown();

    /** Tasks executed so far (queued + inline), for tests. */
    uint64_t tasksRun() const {
        return tasks_run_.load(std::memory_order_relaxed);
    }

    /** Registered source count (incl. the default source 0), for tests. */
    int sources() const;

  private:
    /** One queued unit of work, stamped for the queue-delay histogram. */
    struct Task {
        std::function<void()> fn;
        int source = 0;
        uint64_t enqueue_ns = 0;
    };

    /** Shared state of one parallelFor call. */
    struct PfState {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        size_t n;
        std::function<void(size_t)> fn;
    };

    void workerLoop(int idx);
    void runTask(Task &task, stats::Counter *busy_ns);
    /** Requires mu_. True when any source has a queued task. */
    bool anyQueuedLocked() const { return queued_total_ > 0; }
    /** Requires mu_ and queued_total_ > 0. Round-robin pop. */
    Task popNextLocked();
    /** Requires mu_. Enqueue without notify (caller notifies). */
    void pushLocked(Task &&task);
    static void helpWith(const std::shared_ptr<PfState> &st);

    mutable prof::TimedMutex mu_{"bg.queue"};
    // _any: waits on the profiled wrapper, not a raw std::mutex.
    std::condition_variable_any cv_;
    // One FIFO per source, drained round-robin from rr_cursor_.
    std::vector<std::deque<Task>> queues_;
    size_t rr_cursor_ = 0;
    size_t queued_total_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;

    std::atomic<uint64_t> tasks_run_{0};

    // Shared-by-name process-wide metrics (see common/stats.h).
    stats::Counter *reg_tasks_;
    stats::Counter *reg_task_faults_;
    stats::LatencyStat *reg_task_ns_;
    stats::LatencyStat *reg_queue_delay_ns_;
    stats::Gauge *reg_queue_depth_;
    std::vector<stats::Counter *> reg_worker_busy_ns_;
};

}  // namespace prism::core
