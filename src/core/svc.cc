#include "core/svc.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/trace.h"
#include "core/chunk_writer.h"

namespace prism::core {

Svc::Svc(Hsit &hsit, EpochManager &epochs,
         std::vector<ValueStorage *> targets, const PrismOptions &opts)
    : hsit_(hsit), epochs_(epochs), targets_(std::move(targets)),
      enabled_(opts.enable_svc), scan_reorg_(opts.enable_scan_reorg),
      capacity_(opts.svc_capacity_bytes),
      wake_bytes_(capacity_ + capacity_ / kOverBudgetDiv)
{
    auto &reg = stats::StatsRegistry::global();
    reg_hits_ = &reg.counter("prism.svc.hits", "ops");
    reg_misses_ = &reg.counter("prism.svc.misses", "ops");
    reg_admissions_ = &reg.counter("prism.svc.admissions", "ops");
    reg_evictions_ = &reg.counter("prism.svc.evictions", "ops");
    reg_scan_reorgs_ = &reg.counter("prism.svc.scan_reorgs", "ops");
    reg_reorged_values_ = &reg.counter("prism.svc.reorged_values", "ops");
    reg_manager_rounds_ = &reg.counter("prism.svc.manager_rounds", "ops");
    manager_ = std::thread([this] { managerLoop(); });
}

Svc::~Svc()
{
    {
        std::lock_guard<prof::TimedMutex> lock(ev_mu_);
        stop_.store(true, std::memory_order_release);
    }
    ev_cv_.notify_all();
    manager_.join();
    // Drain straggler events in order (one swap, same as the manager),
    // then free the survivors; no application threads can remain at
    // destruction. Every Admit has been processed by now, so each live
    // entry is on an LRU list or retired: an entry that lost its
    // eviction CAS was retired by the Remove just drained.
    std::deque<Event> batch;
    {
        std::lock_guard<prof::TimedMutex> lock(ev_mu_);
        events_.swap(batch);
    }
    for (auto &ev : batch)
        processEvent(ev);
    for (Lru *list : {&active_, &inactive_}) {
        while (SvcEntry *e = list->popBack()) {
            hsit_.svcCas(e->hsit_idx, e, nullptr);
            operator delete(e);
        }
    }
    epochs_.drain();  // run pending EBR deleters for retired entries
}

bool
Svc::lookup(uint64_t hsit_idx, uint64_t primary_raw, std::string *out)
{
    if (!enabled_)
        return false;
    PRISM_TRACE_SPAN("svc.lookup");
    auto *e = static_cast<SvcEntry *>(hsit_.svcLoad(hsit_idx));
    if (e == nullptr) {
        reg_misses_->inc();
        return false;
    }
    // Staleness validation: the copy is authoritative only while the
    // forward pointer still names the record it was taken from.
    if (e->vs_raw.load(std::memory_order_acquire) != primary_raw) {
        reg_misses_->inc();
        return false;
    }
    out->assign(reinterpret_cast<const char *>(e->data()), e->size);
    e->referenced.store(true, std::memory_order_relaxed);
    reg_hits_->inc();
    return true;
}

void
Svc::admit(uint64_t hsit_idx, uint64_t key, ValueAddr vs_addr,
           const uint8_t *payload, uint32_t size)
{
    if (!enabled_)
        return;
    PRISM_TRACE_SPAN("svc.admit");
    auto *e = static_cast<SvcEntry *>(
        operator new(sizeof(SvcEntry) + size));
    new (e) SvcEntry();
    e->key = key;
    e->hsit_idx = hsit_idx;
    const uint64_t vs_raw = vs_addr.withoutDirty().raw();
    e->vs_raw.store(vs_raw, std::memory_order_relaxed);
    e->size = size;
    std::memcpy(e->data(), payload, size);

    used_bytes_.fetch_add(e->footprint(), std::memory_order_relaxed);
    if (!hsit_.svcCas(hsit_idx, nullptr, e)) {
        // Raced with another admitter; nobody else saw this entry.
        used_bytes_.fetch_sub(e->footprint(), std::memory_order_relaxed);
        operator delete(e);
        return;
    }
    reg_admissions_->inc();
    enqueue({EvType::kAdmit, e, {}});
    // Post-publish re-validation: if the forward pointer moved while we
    // were publishing, retract the (possibly stale) copy. Whoever wins
    // the detach CAS enqueues the Remove; the background thread performs
    // the actual retirement. Once published, e may already have been
    // detached and retired by a concurrent writer, so compare against
    // the local copy rather than reading e.
    if (hsit_.entry(hsit_idx).primary.load(std::memory_order_acquire) !=
        vs_raw) {
        if (hsit_.svcCas(hsit_idx, e, nullptr))
            enqueue({EvType::kRemove, e, {}});
    }
}

void
Svc::invalidate(uint64_t hsit_idx)
{
    if (!enabled_)
        return;
    auto *e = static_cast<SvcEntry *>(hsit_.svcLoad(hsit_idx));
    if (e == nullptr)
        return;
    if (hsit_.svcCas(hsit_idx, e, nullptr))
        enqueue({EvType::kRemove, e, {}});
}

void
Svc::noteScan(std::vector<uint64_t> hsit_indices)
{
    if (!enabled_ || !scan_reorg_ || hsit_indices.size() < 2)
        return;
    enqueue({EvType::kScanChain, nullptr, std::move(hsit_indices)});
}

void
Svc::enqueue(Event ev)
{
    bool wake = false;
    {
        std::lock_guard<prof::TimedMutex> lock(ev_mu_);
        events_.push_back(std::move(ev));
        if (!due_ && (events_.size() >= kWakeBatch ||
                      used_bytes_.load(std::memory_order_relaxed) >
                          wake_bytes_))
            due_ = wake = true;
    }
    if (wake)
        ev_cv_.notify_one();
}

void
Svc::rebind(uint64_t hsit_idx, uint64_t old_raw, uint64_t new_raw)
{
    if (!enabled_)
        return;
    EpochGuard guard(epochs_);
    auto *e = static_cast<SvcEntry *>(hsit_.svcLoad(hsit_idx));
    if (e == nullptr)
        return;
    uint64_t expected = old_raw;
    e->vs_raw.compare_exchange_strong(expected, new_raw,
                                      std::memory_order_acq_rel);
}

void
Svc::drainForTest()
{
    // Two full passes: one may already have been in flight. Each pass
    // marks a round due, which the manager runs even with a short queue.
    for (int pass = 0; pass < 2; pass++) {
        const uint64_t gen =
            drained_generation_.load(std::memory_order_acquire);
        {
            std::lock_guard<prof::TimedMutex> lock(ev_mu_);
            due_ = true;
        }
        ev_cv_.notify_one();
        while (drained_generation_.load(std::memory_order_acquire) <=
               gen)
            std::this_thread::yield();
    }
}

void
Svc::Lru::pushFront(SvcEntry *e)
{
    e->prev = nullptr;
    e->next = head;
    if (head != nullptr)
        head->prev = e;
    head = e;
    if (tail == nullptr)
        tail = e;
    count++;
}

void
Svc::Lru::unlink(SvcEntry *e)
{
    if (e->prev != nullptr)
        e->prev->next = e->next;
    else
        head = e->next;
    if (e->next != nullptr)
        e->next->prev = e->prev;
    else
        tail = e->prev;
    e->prev = e->next = nullptr;
    count--;
}

Svc::SvcEntry *
Svc::Lru::popBack()
{
    SvcEntry *e = tail;
    if (e != nullptr)
        unlink(e);
    return e;
}

void
Svc::managerLoop()
{
    trace::TraceRegistry::global().setThreadName("svc-manager");
    std::deque<Event> batch;
    while (!stop_.load(std::memory_order_acquire)) {
        batch.clear();
        {
            // Batch-driven: sleep until a producer finds a round due
            // (see enqueue), drainForTest or shutdown. The timer sweeps
            // up a short queue and bounds epoch-advance staleness: an
            // idle SVC costs ~20 wakeups/s, and a busy one about one
            // per kWakeBatch events rather than one per event.
            std::unique_lock<prof::TimedMutex> lock(ev_mu_);
            ev_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
                return stop_.load(std::memory_order_acquire) || due_;
            });
            due_ = false;
            // Swap-drain: take the whole queue in O(1) under one lock
            // acquisition instead of popping elements while producers
            // (put/get/scan threads) contend for the mutex.
            events_.swap(batch);
        }
        for (auto &ev : batch)
            processEvent(ev);
        balance();
        epochs_.tryAdvance();
        reg_manager_rounds_->inc();
        drained_generation_.fetch_add(1, std::memory_order_release);
    }
}

void
Svc::processEvent(Event &ev)
{
    switch (ev.type) {
      case EvType::kAdmit: {
        SvcEntry *e = ev.entry;
        e->admit_seen = true;
        if (e->remove_seen) {
            // Its Remove arrived first (the entry was detached before we
            // got here); retire it now that both events are accounted.
            retireEntry(e);
            return;
        }
        // First touch goes to the inactive list (2Q admission, Fig. 3-1).
        inactive_.pushFront(e);
        e->in_lru = true;
        e->in_active = false;
        return;
      }
      case EvType::kRemove: {
        SvcEntry *e = ev.entry;
        if (e->admit_seen)
            retireEntry(e);
        else
            e->remove_seen = true;  // Admit not yet processed; defer
        return;
      }
      case EvType::kScanChain: {
        // Link the (still-cached) members of one scan into a chain.
        SvcEntry *prev = nullptr;
        for (uint64_t idx : ev.chain) {
            auto *e = static_cast<SvcEntry *>(hsit_.svcLoad(idx));
            if (e == nullptr || e->evicted || !e->in_lru)
                continue;
            unlinkScan(e);
            if (prev != nullptr) {
                prev->scan_next = e;
                e->scan_prev = prev;
            }
            prev = e;
        }
        return;
      }
    }
}

void
Svc::balance()
{
    // Demote from the active tail when the active list dominates
    // (Fig. 3-3), and evict from the inactive tail over capacity
    // (Fig. 3-4).
    while (active_.count > 2 * inactive_.count + 8) {
        SvcEntry *e = active_.popBack();
        if (e == nullptr)
            break;
        e->in_active = false;
        e->referenced.store(false, std::memory_order_relaxed);
        inactive_.pushFront(e);
    }
    int guard = 4096;
    while (used_bytes_.load(std::memory_order_relaxed) > capacity_ &&
           guard-- > 0) {
        evictOne();
        if (active_.count == 0 && inactive_.count == 0)
            break;
    }
}

void
Svc::evictOne()
{
    PRISM_TRACE_SPAN("svc.evict");
    SvcEntry *e = inactive_.popBack();
    if (e == nullptr) {
        e = active_.popBack();
        if (e == nullptr)
            return;
        e->in_active = false;
    }
    e->in_lru = false;
    if (e->referenced.exchange(false, std::memory_order_relaxed) &&
        !e->in_active) {
        // Second access observed: promote instead of evicting
        // (Fig. 3-2).
        e->in_active = true;
        e->in_lru = true;
        active_.pushFront(e);
        return;
    }
    if (scan_reorg_ && (e->scan_prev != nullptr || e->scan_next != nullptr))
        reorganizeChain(e);

    // Logical deletion first (disconnect from HSIT), physical free after
    // the epoch grace period (§4.4). If the detach CAS loses, another
    // thread already detached the entry and its Remove event will retire
    // it; we must not free it twice.
    if (hsit_.svcCas(e->hsit_idx, e, nullptr))
        retireEntry(e);
    reg_evictions_->inc();
}

void
Svc::unlinkScan(SvcEntry *e)
{
    if (e->scan_prev != nullptr)
        e->scan_prev->scan_next = e->scan_next;
    if (e->scan_next != nullptr)
        e->scan_next->scan_prev = e->scan_prev;
    e->scan_prev = e->scan_next = nullptr;
}

void
Svc::reorganizeChain(SvcEntry *evictee)
{
    PRISM_TRACE_SPAN("svc.reorg");
    // Walk the doubly-linked chain formed at scan time (no extra lookup
    // needed, §4.4), collect the members, and rewrite them sorted and
    // contiguous (appended to an open chunk) so the range becomes one
    // sequential read.
    // The epoch guard keeps every chunk freed from here on from being
    // recycled before the CASes below, so an address that still names a
    // member's record at the check names it at the CAS too.
    EpochGuard guard(epochs_);
    std::vector<SvcEntry *> chain;
    for (SvcEntry *e = evictee; e != nullptr; e = e->scan_prev)
        chain.push_back(e);
    std::reverse(chain.begin(), chain.end());
    for (SvcEntry *e = evictee->scan_next; e != nullptr; e = e->scan_next)
        chain.push_back(e);

    struct Item {
        SvcEntry *e;
        ValueAddr old_addr;
    };
    std::vector<Item> items;
    for (SvcEntry *e : chain) {
        unlinkScan(e);
        const ValueAddr addr(e->vs_raw.load(std::memory_order_acquire));
        // Only values that still live on SSD participate; a member whose
        // value moved back to the PWB is skipped.
        if (!addr.isVs())
            continue;
        // A member detached by a put or delete stays chained until the
        // manager retires it. Its copy is older than the record, even
        // when a recycled chunk put a newer record (of its key, or of a
        // new key on its reused HSIT entry) back at the same address.
        if (hsit_.svcLoad(e->hsit_idx) != e)
            continue;
        if (hsit_.entry(e->hsit_idx).primary.load(
                std::memory_order_acquire) != addr.raw())
            continue;  // superseded meanwhile
        items.push_back({e, addr});
    }
    if (items.size() < 2)
        return;

    std::sort(items.begin(), items.end(), [](const Item &a, const Item &b) {
        return a.e->key < b.e->key;
    });

    // An early return publishes nothing; the writer's destructor then
    // settles its chunks as garbage and hands back the open chunk.
    ChunkWriter writer(targets_);
    std::vector<ValueAddr> new_addrs;
    new_addrs.reserve(items.size());
    for (const auto &it : items) {
        const ValueAddr a = writer.add(it.e->hsit_idx, it.e->key,
                                       it.e->data(), it.e->size);
        if (a.isNull())
            return;  // Value Storage full; skip the optimisation
        new_addrs.push_back(a);
    }
    if (!writer.finish().isOk())
        return;

    auto vs_by_id = [this](uint32_t id) -> ValueStorage * {
        for (ValueStorage *vs : targets_) {
            if (vs->ssdId() == id)
                return vs;
        }
        return targets_[0];
    };

    // Pre-mark the copies live so a concurrent GC pass cannot judge the
    // destination chunk empty before the CASes land. A record whose
    // chunk write failed permanently is skipped and keeps its old copy.
    for (size_t i = 0; i < items.size(); i++) {
        if (!writer.recordFailed(i))
            vs_by_id(new_addrs[i].ssdId())
                ->setValid(new_addrs[i].offset(),
                           new_addrs[i].recordBytes());
    }
    writer.settleAll();
    size_t moved = 0;
    for (size_t i = 0; i < items.size(); i++) {
        const auto &it = items[i];
        if (writer.recordFailed(i))
            continue;
        if (hsit_.casPrimaryDurable(it.e->hsit_idx, it.old_addr,
                                    new_addrs[i])) {
            vs_by_id(it.old_addr.ssdId())
                ->clearValid(it.old_addr.offset(),
                             it.old_addr.recordBytes());
            it.e->vs_raw.store(new_addrs[i].withoutDirty().raw(),
                               std::memory_order_release);
            moved++;
        } else {
            vs_by_id(new_addrs[i].ssdId())
                ->clearValid(new_addrs[i].offset(),
                             new_addrs[i].recordBytes());
        }
    }
    reg_scan_reorgs_->inc();
    reg_reorged_values_->add(moved);
}

void
Svc::retireEntry(SvcEntry *e)
{
    if (e->evicted)
        return;
    if (e->in_lru) {
        (e->in_active ? active_ : inactive_).unlink(e);
        e->in_lru = false;
    }
    unlinkScan(e);
    e->evicted = true;
    used_bytes_.fetch_sub(e->footprint(), std::memory_order_relaxed);
    epochs_.retire([e] { operator delete(e); });
}

}  // namespace prism::core
