#include "core/bg_pool.h"

#include <string>

#include "common/clock.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/numa.h"
#include "common/trace.h"

namespace prism::core {

BgPool::BgPool(int workers)
{
    PRISM_CHECK(workers >= 1);
    auto &reg = stats::StatsRegistry::global();
    reg_tasks_ = &reg.counter("prism.bg.tasks", "ops");
    reg_task_faults_ = &reg.counter("prism.bg.task_faults", "ops");
    reg_task_ns_ = &reg.histogram("prism.bg.task_ns", "ns");
    reg_queue_delay_ns_ = &reg.histogram("prism.bg.queue_delay_ns", "ns");
    reg_queue_depth_ = &reg.gauge("prism.bg.queue_depth", "tasks");
    reg_worker_busy_ns_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; i++) {
        reg_worker_busy_ns_.push_back(&reg.counter(
            "prism.bg.worker" + std::to_string(i) + ".busy_ns", "ns"));
    }
    queues_.resize(1);  // source 0: anonymous producers
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; i++)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

BgPool::~BgPool()
{
    shutdown();
}

int
BgPool::allocSource()
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    queues_.emplace_back();
    return static_cast<int>(queues_.size()) - 1;
}

int
BgPool::sources() const
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    return static_cast<int>(queues_.size());
}

void
BgPool::pushLocked(Task &&task)
{
    if (task.source < 0 ||
        task.source >= static_cast<int>(queues_.size()))
        task.source = 0;
    queues_[static_cast<size_t>(task.source)].push_back(std::move(task));
    queued_total_++;
    reg_queue_depth_->add(1);
}

BgPool::Task
BgPool::popNextLocked()
{
    // Round-robin across sources: start at the cursor, take the first
    // non-empty sub-queue, park the cursor just past it. A source with a
    // deep backlog yields to every other source between its tasks.
    const size_t n = queues_.size();
    for (size_t probe = 0; probe < n; probe++) {
        const size_t src = (rr_cursor_ + probe) % n;
        if (queues_[src].empty())
            continue;
        Task task = std::move(queues_[src].front());
        queues_[src].pop_front();
        queued_total_--;
        reg_queue_depth_->sub(1);
        rr_cursor_ = (src + 1) % n;
        return task;
    }
    PRISM_CHECK(false);  // caller guarantees queued_total_ > 0
    return {};
}

void
BgPool::shutdown()
{
    {
        std::lock_guard<prof::TimedMutex> lock(mu_);
        if (stop_)
            return;
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
    threads_.clear();
    // Tasks queued after the last worker exited still run, on this
    // thread, so submitters' completion bookkeeping (pending flags,
    // parallelFor counters) settles.
    while (true) {
        Task task;
        {
            std::lock_guard<prof::TimedMutex> lock(mu_);
            if (!anyQueuedLocked())
                break;
            task = popNextLocked();
        }
        reg_queue_delay_ns_->record(nowNs() - task.enqueue_ns);
        runTask(task, nullptr);
    }
}

void
BgPool::submit(int source, std::function<void()> fn)
{
    Task task{std::move(fn), source, nowNs()};
    {
        std::lock_guard<prof::TimedMutex> lock(mu_);
        if (!stop_) {
            pushLocked(std::move(task));
            cv_.notify_one();
            return;
        }
    }
    // Already shut down: run it here so callers never lose work.
    runTask(task, nullptr);
}

void
BgPool::runTask(Task &task, stats::Counter *busy_ns)
{
    // Injected task failure: the task goes back on its source's queue
    // instead of running. It must never be dropped — upstream
    // dispatchers hold one-outstanding slots keyed on the task
    // eventually running, so a dropped task would wedge reclaim/GC
    // forever. The inline path (after shutdown) has no queue to defer
    // to and runs the task regardless. The original enqueue stamp rides
    // along so queue_delay_ns reflects total wait.
    if (PRISM_FAULT_POINT("bg.task")) {
        reg_task_faults_->inc();
        std::lock_guard<prof::TimedMutex> lock(mu_);
        if (!stop_) {
            pushLocked(std::move(task));
            cv_.notify_one();
            return;
        }
    }
    PRISM_TRACE_SPAN("bg.task");
    const uint64_t t0 = nowNs();
    task.fn();
    const uint64_t dt = nowNs() - t0;
    if (busy_ns != nullptr)
        busy_ns->add(dt);
    reg_task_ns_->record(dt);
    reg_tasks_->inc();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
}

void
BgPool::workerLoop(int idx)
{
    trace::TraceRegistry::global().setThreadName(
        "bg-worker-" + std::to_string(idx));
    // Spread workers across NUMA nodes so every node's shards find a
    // local worker. No-op on single-node machines.
    if (numa::nodeCount() > 1)
        numa::pinThreadToNode(idx % numa::nodeCount());
    stats::Counter *busy = reg_worker_busy_ns_[static_cast<size_t>(idx)];
    std::unique_lock<prof::TimedMutex> lock(mu_);
    while (true) {
        cv_.wait(lock,
                 [this] { return stop_ || anyQueuedLocked(); });
        // Drain the queue even when stopping: shutdown() promises every
        // queued task runs before the join returns.
        if (!anyQueuedLocked())
            return;  // stop_ must be set
        Task task = popNextLocked();
        lock.unlock();
        reg_queue_delay_ns_->record(nowNs() - task.enqueue_ns);
        runTask(task, busy);
        lock.lock();
    }
}

void
BgPool::helpWith(const std::shared_ptr<PfState> &st)
{
    size_t i;
    while ((i = st->next.fetch_add(1, std::memory_order_relaxed)) <
           st->n) {
        st->fn(i);
        if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            st->n) {
            st->done.notify_all();
        }
    }
}

void
BgPool::parallelFor(int source, size_t n,
                    const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1 || threads_.empty()) {
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }
    auto st = std::make_shared<PfState>();
    st->n = n;
    st->fn = fn;
    // One helper per remaining index beyond the caller's own share; each
    // helper claims indices until none remain, so excess helpers cost
    // one no-op task.
    const size_t helpers =
        std::min(n - 1, static_cast<size_t>(threads_.size()));
    for (size_t i = 0; i < helpers; i++)
        submit(source, [st] { helpWith(st); });
    helpWith(st);  // the caller claims indices too — never blocks idle
    size_t d;
    while ((d = st->done.load(std::memory_order_acquire)) < n)
        st->done.wait(d, std::memory_order_acquire);
}

}  // namespace prism::core
