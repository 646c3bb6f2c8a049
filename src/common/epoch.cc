#include "common/epoch.h"

#include <algorithm>
#include <iterator>
#include <thread>

#include "common/logging.h"
#include "common/spinlock.h"
#include "common/thread_util.h"

namespace prism {

namespace {

// Registry of live managers. Manager ids are recycled through a bitmap
// so long test runs that create and destroy many stores never exhaust
// the id space; a monotonically increasing generation distinguishes a
// recycled id's new owner from its old one.
SpinLock g_manager_mu;
EpochManager *g_managers[64];
uint64_t g_manager_gens[64];
uint64_t g_next_generation = 1;

struct SlotRef {
    int slot = -1;
    uint64_t gen = 0;
};

// Per-thread cache of this thread's slot in each live manager, released
// at thread exit so thread churn (bench driver phases) cannot exhaust
// the slot table.
struct TlsSlots {
    SlotRef refs[64];

    ~TlsSlots()
    {
        std::lock_guard<SpinLock> lock(g_manager_mu);
        for (int i = 0; i < 64; i++) {
            if (refs[i].slot < 0)
                continue;
            if (g_managers[i] != nullptr &&
                g_manager_gens[i] == refs[i].gen) {
                g_managers[i]->releaseSlotAtThreadExit(refs[i].slot);
            }
            refs[i].slot = -1;
        }
    }
};
thread_local TlsSlots tls_slots;

int
allocManagerId(EpochManager *mgr, uint64_t *gen_out)
{
    std::lock_guard<SpinLock> lock(g_manager_mu);
    for (int i = 0; i < 64; i++) {
        if (g_managers[i] == nullptr) {
            g_managers[i] = mgr;
            g_manager_gens[i] = g_next_generation++;
            *gen_out = g_manager_gens[i];
            return i;
        }
    }
    PRISM_CHECK(false && "too many concurrent EpochManager instances");
    return -1;
}

void
freeManagerId(int id)
{
    std::lock_guard<SpinLock> lock(g_manager_mu);
    g_managers[id] = nullptr;
    g_manager_gens[id] = 0;
}

}  // namespace

EpochManager::EpochManager() : slots_(kMaxThreads)
{
    manager_id_ = allocManagerId(this, &generation_);
}

EpochManager::~EpochManager()
{
    // Run everything still pending; no readers can exist at destruction.
    {
        std::lock_guard<std::mutex> lock(retired_mu_);
        for (auto &r : retired_)
            r.deleter();
        retired_.clear();
    }
    freeManagerId(manager_id_);
}

void
EpochManager::releaseSlotAtThreadExit(int slot)
{
    auto &s = slots_[static_cast<size_t>(slot)];
    s.local_epoch.store(kQuiescent, std::memory_order_release);
    s.in_use.store(false, std::memory_order_release);
}

int
EpochManager::acquireSlot()
{
    for (int i = 0; i < kMaxThreads; i++) {
        bool expected = false;
        if (slots_[static_cast<size_t>(i)].in_use.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
            return i;
        }
    }
    PRISM_CHECK(false && "EpochManager: too many threads");
    return -1;
}

int
EpochManager::enter()
{
    SlotRef &ref = tls_slots.refs[manager_id_];
    // Validate the cached slot: the manager id may have been recycled by
    // a different manager instance since this thread last touched it.
    if (ref.slot < 0 || ref.gen != generation_) {
        ref.slot = acquireSlot();
        ref.gen = generation_;
    }
    const int slot = ref.slot;
    auto &s = slots_[static_cast<size_t>(slot)];
    // Nested critical sections keep the outermost epoch pin.
    if (s.local_epoch.load(std::memory_order_relaxed) == kQuiescent) {
        // Publish the pin, then re-validate: if the global epoch moved
        // between our read and the pin becoming visible, the pin is
        // stale and would not block reclamation of objects retired in
        // the meantime — retry until read and pin agree.
        while (true) {
            const uint64_t e =
                global_epoch_.load(std::memory_order_acquire);
            s.local_epoch.store(e, std::memory_order_release);
            // Make the pin visible before re-reading the global epoch
            // (and before any shared-structure reads).
            std::atomic_thread_fence(std::memory_order_seq_cst);
            if (global_epoch_.load(std::memory_order_acquire) == e)
                break;
        }
    }
    return slot;
}

void
EpochManager::exit(int slot)
{
    slots_[static_cast<size_t>(slot)].local_epoch.store(
        kQuiescent, std::memory_order_release);
}

void
EpochManager::retire(std::function<void()> deleter)
{
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_.push_back({std::move(deleter),
                        global_epoch_.load(std::memory_order_acquire)});
}

size_t
EpochManager::tryAdvance()
{
    const uint64_t cur = global_epoch_.load(std::memory_order_acquire);
    // The epoch may advance only when every active reader has observed
    // the current epoch; a reader pinned at an older epoch blocks it.
    for (auto &s : slots_) {
        if (!s.in_use.load(std::memory_order_acquire))
            continue;
        const uint64_t e = s.local_epoch.load(std::memory_order_acquire);
        if (e != kQuiescent && e < cur)
            return 0;
    }
    uint64_t expected = cur;
    global_epoch_.compare_exchange_strong(expected, cur + 1,
                                          std::memory_order_acq_rel);
    const uint64_t now = global_epoch_.load(std::memory_order_acquire);

    // Free retirees that are at least two epochs old. retire() stamps
    // them under the lock with a monotonic epoch, so they form a prefix
    // of the list, taken in one pass however long the list has grown.
    std::vector<Retired> ready;
    {
        std::lock_guard<std::mutex> lock(retired_mu_);
        const auto end = std::partition_point(
            retired_.begin(), retired_.end(),
            [now](const Retired &r) { return r.epoch + 2 <= now; });
        ready.assign(std::make_move_iterator(retired_.begin()),
                     std::make_move_iterator(end));
        retired_.erase(retired_.begin(), end);
    }
    for (auto &r : ready)
        r.deleter();
    return ready.size();
}

void
EpochManager::drain()
{
    while (pendingCount() > 0) {
        if (tryAdvance() == 0)
            std::this_thread::yield();
    }
}

size_t
EpochManager::pendingCount() const
{
    std::lock_guard<std::mutex> lock(retired_mu_);
    return retired_.size();
}

}  // namespace prism
