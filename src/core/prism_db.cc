#include "core/prism_db.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/clock.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/logging.h"
#include "common/numa.h"
#include "common/prof.h"
#include "common/trace.h"
#include "core/chunk_writer.h"

namespace prism::core {

using pmem::kNullOff;
using pmem::POff;

namespace {

/** Async get: re-lookups after the record moved mid-flight. */
constexpr int kAsyncLookupRetries = 8;

/** Largest supported value: one record must fit a chunk and the packed
 *  address size field. */
constexpr size_t kMaxValueBytes = 60 * 1024;

/** PWB utilization that triggers background reclamation. */
constexpr double kReclaimWatermark = 0.5;

/**
 * PWB utilization at or above which a reclamation pass also submits its
 * final *partial* chunk. Below it, passes are thrifty: they relocate
 * full chunks only and leave the straggler records in the ring for a
 * later pass (they are durable there, and most become stale and free to
 * drop — §4.3's dedup). This keeps a hot-update workload from sealing a
 * nearly-empty chunk per pass, which would inflate SSD write
 * amplification and exhaust chunks when GC is throttled. flushAll()
 * always forces full submission.
 */
constexpr double kReclaimForceUtilization = 0.90;

/**
 * Chunk writes kept in flight per reclamation pass. Each completed chunk
 * publishes its HSIT entries immediately instead of waiting for a
 * full-pass barrier, overlapping SSD writes with NVM-side scan/filter
 * work.
 */
constexpr int kReclaimPipelineDepth = 4;

/**
 * Background reclaimer safety-net poll. The hot path is edge-triggered —
 * a put whose ring crosses the watermark notifies the reclaimer directly
 * (Pwb::armReclaimHint) — so this poll only bounds staleness for the
 * re-dispatch gate and epoch advancement.
 */
constexpr std::chrono::microseconds kReclaimerPoll{10000};

/** Aim @p r at [offset, offset + len) of its SSD, read into @p buf. */
void
aimRead(ReadBatcher::Read &r, std::vector<uint8_t> &buf, uint64_t offset,
        uint64_t len)
{
    buf.resize(len);
    r.req.offset = offset;
    r.req.length = static_cast<uint32_t>(len);
    r.req.buf = buf.data();
}

/**
 * The record at @p rec (@p avail bytes readable) parses, belongs to HSIT
 * entry @p h and passes its checksum.
 */
const ValueRecordHeader *
checkedRecord(const uint8_t *rec, size_t avail, uint64_t h)
{
    const auto *hdr = reinterpret_cast<const ValueRecordHeader *>(rec);
    if (sizeof(ValueRecordHeader) > avail ||
        sizeof(ValueRecordHeader) + hdr->value_size > avail ||
        hdr->backward != h || !recordCrcOk(*hdr, hdr + 1))
        return nullptr;
    return hdr;
}

/** One read of a scan or multiGet; its issuer waits for all (readAll). */
struct GroupRead : ReadBatcher::Read {
    uint32_t ssd = 0;
    std::vector<uint8_t> buf;
    Status status;
    std::atomic<uint32_t> *pending = nullptr;

    void
    onRead(const Status &st) override
    {
        status = st;
        // The issuer may free this read as soon as the count hits zero.
        std::atomic<uint32_t> *p = pending;
        if (p->fetch_sub(1, std::memory_order_acq_rel) == 1)
            p->notify_all();
    }
};

/**
 * Enqueue @p reads, one chain per Value Storage, and block until every
 * one has completed. Returns the first error.
 */
template <typename R>
Status
readAll(const std::vector<ValueStorage *> &vss,
        const std::vector<std::unique_ptr<R>> &reads)
{
    std::atomic<uint32_t> pending{static_cast<uint32_t>(reads.size())};
    std::vector<std::vector<ReadBatcher::Read *>> chains(vss.size());
    for (const auto &r : reads) {
        r->pending = &pending;
        chains[r->ssd].push_back(r.get());
    }
    for (size_t i = 0; i < vss.size(); i++)
        vss[i]->enqueueReads(chains[i]);
    for (uint32_t n; (n = pending.load(std::memory_order_acquire)) != 0;)
        pending.wait(n, std::memory_order_acquire);
    for (const auto &r : reads)
        if (!r->status.isOk())
            return r->status;
    return Status::ok();
}

}  // namespace

PrismDb::PrismDb(const PrismOptions &opts,
                 std::shared_ptr<pmem::PmemRegion> region,
                 std::vector<std::shared_ptr<io::IoBackend>> devices,
                 bool format, std::shared_ptr<BgPool> pool)
    : opts_(opts), region_(std::move(region)), bg_pool_(std::move(pool))
{
    PRISM_CHECK(!devices.empty());
    PRISM_CHECK(devices.size() <= ValueAddr::kSsdMask + 1);
    alloc_ = std::make_unique<pmem::PmemAllocator>(*region_);

    auto &reg = stats::StatsRegistry::global();
    reg_.puts = &reg.counter("prism.puts", "ops");
    reg_.gets = &reg.counter("prism.gets", "ops");
    reg_.dels = &reg.counter("prism.dels", "ops");
    reg_.scans = &reg.counter("prism.scans", "ops");
    reg_.user_bytes_written = &reg.counter("prism.user_bytes_written",
                                           "bytes");
    reg_.pwb_hits = &reg.counter("prism.get.pwb_hits", "ops");
    reg_.svc_hits = &reg.counter("prism.get.svc_hits", "ops");
    reg_.vs_reads = &reg.counter("prism.get.vs_reads", "ops");
    reg_.pwb_stalls = &reg.counter("prism.pwb.stalls", "ops");
    reg_.reclaim_passes = &reg.counter("prism.pwb.reclaim_passes", "ops");
    reg_.reclaimed_values = &reg.counter("prism.pwb.reclaimed_values",
                                         "ops");
    reg_.reclaim_skipped_stale =
        &reg.counter("prism.pwb.reclaim_skipped_stale", "ops");
    reg_.hsit_cas_retries = &reg.counter("prism.hsit.cas_retries", "ops");
    reg_.reclaim_dispatches =
        &reg.counter("prism.pwb.reclaim_dispatches", "ops");
    reg_.gc_dispatches = &reg.counter("prism.vs.gc_dispatches", "ops");
    reg_.reclaim_deferred_values =
        &reg.counter("prism.pwb.reclaim_deferred_values", "ops");
    reg_.pwb_requeued_values =
        &reg.counter("prism.pwb.requeued_values", "ops");
    reg_.pwb_stall_ns = &reg.histogram("prism.pwb.stall_ns", "ns");

    for (size_t i = 0; i < devices.size(); i++) {
        value_storages_.push_back(std::make_unique<ValueStorage>(
            static_cast<uint32_t>(i), devices[i], opts_, epochs_));
        vs_ptrs_.push_back(value_storages_.back().get());
    }

    if (format) {
        master_off_ = alloc_->alloc(sizeof(MasterRoot));
        PRISM_CHECK(master_off_ != kNullOff);
        master_ = region_->as<MasterRoot>(master_off_);
        std::memset(static_cast<void *>(master_), 0, sizeof(MasterRoot));

        index_ = index::PacTree::create(*region_, *alloc_);
        hsit_ = Hsit::create(*region_, *alloc_, opts_.hsit_capacity);

        master_->tree_root = index_->rootOff();
        master_->hsit_root = hsit_->rootOff();
        master_->magic = kMagic;
        region_->persist(master_, sizeof(MasterRoot));
        region_->setRoot(master_off_);
    } else {
        runRecovery();
    }

    svc_ = std::make_unique<Svc>(*hsit_, epochs_, vs_ptrs_, opts_);

    // Each shard is its own round-robin source on the shared pool, so
    // one shard's GC burst cannot starve another's reclaim.
    bg_source_ = bg_pool_->allocSource();
    gc_scheduled_.reset(new std::atomic<bool>[value_storages_.size()]);
    for (size_t i = 0; i < value_storages_.size(); i++)
        gc_scheduled_[i].store(false, std::memory_order_relaxed);
    reclaimer_ = std::thread([this] { reclaimerLoop(); });
    gc_thread_ = std::thread([this] { gcLoop(); });
}

PrismDb::~PrismDb()
{
    // Wait out in-flight async operations first: their completion paths
    // (VS completion threads, bg-pool scan tasks) touch the SVC, HSIT,
    // epochs and the pool, all of which are torn down below.
    while (async_inflight_.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    stop_.store(true, std::memory_order_release);
    reclaim_cv_.notify_all();
    gc_cv_.notify_all();
    reclaimer_.join();
    gc_thread_.join();
    // Dispatchers are gone; before tearing down any state the reclaim/
    // GC tasks reference, make sure none of ours remain. The shared pool
    // must keep serving the other shards, so wait out this shard's own
    // tasks instead of shutting it down — every dispatch is gated
    // one-outstanding (per-PWB reclaim slot, per-VS gc flag) and counted
    // in bg_inflight_, and the dispatchers above are joined, so the
    // count can only fall.
    while (bg_inflight_.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    // Destroy the SVC (its manager thread uses hsit_/value_storages_),
    // then run every deferred reclamation before members are torn down:
    // pending lambdas reference PWBs, Value Storages and the HSIT.
    svc_.reset();
    epochs_.drain();
}

void
PrismDb::runRecovery()
{
    const uint64_t t0 = nowNs();
    const POff root = region_->root();
    PRISM_CHECK(root != kNullOff && "no store in this region");
    master_off_ = root;
    master_ = region_->as<MasterRoot>(master_off_);
    PRISM_CHECK(master_->magic == kMagic);

    // Step 1 (§5.5): re-attach NVM components; drop volatile leftovers
    // (SVC pointers, persisted-but-uncleared dirty bits).
    hsit_ = Hsit::attach(*region_, master_->hsit_root);
    hsit_->resetVolatile();
    index_ = index::PacTree::recover(*region_, *alloc_,
                                     master_->tree_root);

    // Step 2: walk the key index to find reachable HSIT entries, and
    // from them reconstruct each Value Storage's validity bitmaps.
    for (auto &vs : value_storages_)
        vs->resetForRecovery();
    // The walk is partitioned across worker threads (§5.5: recovery is
    // performed concurrently over partitioned key ranges). Byte-sized
    // flags (not vector<bool>) keep the marking race-free.
    std::vector<uint8_t> reachable_bytes(hsit_->capacity(), 0);
    const int recovery_threads = std::max(
        1u, std::thread::hardware_concurrency());
    std::mutex orphan_mu;
    std::vector<uint64_t> orphan_keys;
    index_->forEachParallel(recovery_threads, [&](uint64_t key,
                                                  uint64_t h) {
        if (h >= hsit_->capacity())
            return;
        const ValueAddr addr(
            hsit_->entry(h).primary.load(std::memory_order_relaxed));
        if (addr.isNull()) {
            // Interrupted put (index insert durable, value never
            // published) or interrupted delete (primary nulled, index
            // removal lost). Either way the key has no value: prune it
            // so size()/scan/get agree, and leave the HSIT entry
            // unreachable so the free-list rebuild reclaims it.
            std::lock_guard<std::mutex> lock(orphan_mu);
            orphan_keys.push_back(key);
            return;
        }
        reachable_bytes[h] = 1;
        if (addr.isVs() && addr.ssdId() < value_storages_.size()) {
            value_storages_[addr.ssdId()]->markLiveAtRecovery(
                addr.offset(), addr.recordBytes());
        }
    });
    for (const uint64_t key : orphan_keys)
        index_->remove(key);
    // Deterministic crash hook for the recovery-idempotence tests:
    // fires after the durable repairs above (orphan pruning), so a
    // crash image captured here reflects a half-finished recovery.
    (void)PRISM_FAULT_POINT("db.recover.midpoint");
    std::vector<bool> reachable(hsit_->capacity());
    for (uint64_t i = 0; i < hsit_->capacity(); i++)
        reachable[i] = reachable_bytes[i] != 0;
    hsit_->rebuildFreeList(reachable);
    for (auto &vs : value_storages_)
        vs->finalizeRecovery();

    // Step 3: re-attach the per-thread PWBs; slots are keyed by dense
    // thread id, which restarts from zero, so slot i is simply reused by
    // the i-th thread of the new process.
    for (int tid = 0; tid < ThreadId::kMaxThreads; tid++) {
        const POff pwb_root =
            master_->pwb_roots[tid].load(std::memory_order_relaxed);
        if (pwb_root == kNullOff)
            continue;
        auto pwb = Pwb::attach(*region_, pwb_root);
        pwbs_[tid].store(pwb.get(), std::memory_order_release);
        pwb_owner_.push_back(std::move(pwb));
    }
    recovery_ns_ = nowNs() - t0;
}

Pwb *
PrismDb::pwbForThisThread()
{
    const int tid = ThreadId::self();
    Pwb *p = pwbs_[tid].load(std::memory_order_acquire);
    if (p != nullptr)
        return p;
    std::lock_guard<std::mutex> lock(pwb_mu_);
    p = pwbs_[tid].load(std::memory_order_acquire);
    if (p != nullptr)
        return p;
    auto pwb = Pwb::create(*region_, *alloc_, opts_.pwb_size_bytes);
    PRISM_CHECK(pwb != nullptr);
    master_->pwb_roots[tid].store(pwb->rootOff(),
                                  std::memory_order_release);
    region_->persist(&master_->pwb_roots[tid], sizeof(POff));
    p = pwb.get();
    pwb_owner_.push_back(std::move(pwb));
    pwbs_[tid].store(p, std::memory_order_release);
    return p;
}

void
PrismDb::clearOldLocation(uint64_t hsit_idx, ValueAddr old_addr)
{
    if (old_addr.isVs() && old_addr.ssdId() < value_storages_.size()) {
        value_storages_[old_addr.ssdId()]->clearValid(
            old_addr.offset(), old_addr.recordBytes());
    }
    svc_->invalidate(hsit_idx);
}

Status
PrismDb::put(uint64_t key, std::string_view value)
{
    if (value.size() > kMaxValueBytes)
        return Status::invalidArgument("value too large");
    PRISM_TRACE_OP(op_scope, "prism.put");
    reg_.puts->inc();
    reg_.user_bytes_written->add(value.size());

    uint64_t stall_t0 = 0;
    while (true) {
        {
            EpochGuard guard(epochs_);

            // Resolve (or create) the key's HSIT entry.
            uint64_t h;
            const auto found = index_->lookup(key);
            if (found.has_value()) {
                h = *found;
            } else {
                const uint64_t nh = hsit_->allocEntry();
                if (nh == Hsit::kInvalidIndex)
                    return Status::outOfSpace("HSIT full");
                const auto res = index_->insertOrGet(key, nh);
                if (!res.inserted)
                    hsit_->freeEntryImmediate(nh);  // lost the insert race
                h = res.handle;
            }

            // Write the value (and its backward pointer) to this
            // thread's PWB — durable before it becomes visible.
            Pwb *pwb = pwbForThisThread();
            ValueAddr addr;
            {
                PRISM_TRACE_SPAN("pwb.append");
                addr = pwb->append(h, key, value.data(),
                                   static_cast<uint32_t>(value.size()));
            }
            if (!addr.isNull()) {
                // Publish: durable-linearizable CAS of the forward
                // pointer (§5.4). Retried on concurrent change.
                PRISM_TRACE_SPAN_VAR(cas_span, "hsit.cas_publish");
                uint64_t retries = 0;
                while (true) {
                    const ValueAddr old = hsit_->loadPrimary(h);
                    if (hsit_->casPrimaryDurable(h, old, addr)) {
                        pwb->markPublished();
                        clearOldLocation(h, old);
                        break;
                    }
                    retries++;
                    reg_.hsit_cas_retries->inc();
                }
                cas_span.arg(PRISM_TRACE_NID("retries"), retries);
                if (stall_t0 != 0) {
                    const uint64_t waited = nowNs() - stall_t0;
                    reg_.pwb_stall_ns->record(waited);
                    trace::spanAt(PRISM_TRACE_NID("pwb.stall"),
                                  stall_t0, waited);
                }
                // Edge-triggered reclaimer wakeup: the reclaimer sleeps
                // on a long safety-net poll and relies on this notify
                // when a ring crosses the watermark (one syscall per
                // crossing, not per append).
                if (pwb->utilization() >= kReclaimWatermark &&
                    pwb->armReclaimHint())
                    reclaim_cv_.notify_all();
                return Status::ok();
            }
        }
        // PWB full. The epoch guard must be dropped while waiting: the
        // space we need is released by an epoch-deferred head advance.
        reg_.pwb_stalls->inc();
        if (stall_t0 == 0)
            stall_t0 = nowNs();
        // Wake the reclaimer immediately instead of waiting out its poll
        // interval, and hand this thread's PWB straight to the worker
        // pool (no-op if a pass for it is already queued or running).
        if (bg_pool_->workers() > 0)
            dispatchReclaim(pwbForThisThread());
        reclaim_cv_.notify_all();
        epochs_.tryAdvance();
        std::this_thread::yield();
    }
}

Status
PrismDb::readPwb(uint64_t hsit_idx, ValueAddr addr, std::string *out)
{
    const auto *hdr = region_->as<ValueRecordHeader>(addr.offset());
    region_->chargeRead(addr.recordBytes());
    if (hdr->backward != hsit_idx)
        return Status::corruption("PWB record coupling mismatch");
    out->assign(reinterpret_cast<const char *>(hdr + 1), hdr->value_size);
    reg_.pwb_hits->inc();
    return Status::ok();
}

Status
PrismDb::get(uint64_t key, std::string *value)
{
    // The blocking get is the async get plus a wait. Its state lives on
    // this stack behind a non-owning handle, which nothing uses once the
    // state is complete, so a get that hits the SVC or the PWB allocates
    // nothing.
    PRISM_TRACE_OP(op_scope, "prism.get");
    reg_.gets->inc();
    AsyncOpState state;
    startAsyncGet(std::shared_ptr<AsyncOpState>(std::shared_ptr<void>(),
                                                &state),
                  value, key, /*lookup_attempts=*/0);
    state.wait();
    return state.status;
}

Status
PrismDb::del(uint64_t key)
{
    PRISM_TRACE_OP(op_scope, "prism.del");
    reg_.dels->inc();
    EpochGuard guard(epochs_);
    const auto h = index_->lookup(key);
    if (!h.has_value())
        return Status::notFound();
    if (!index_->remove(key))
        return Status::notFound();  // lost the race to another deleter
    svc_->invalidate(*h);
    PRISM_TRACE_SPAN_VAR(cas_span, "hsit.cas_publish");
    uint64_t retries = 0;
    while (true) {
        const ValueAddr old = hsit_->loadPrimary(*h);
        if (hsit_->casPrimaryDurable(*h, old, ValueAddr())) {
            if (old.isVs() && old.ssdId() < value_storages_.size()) {
                value_storages_[old.ssdId()]->clearValid(
                    old.offset(), old.recordBytes());
            }
            break;
        }
        retries++;
        reg_.hsit_cas_retries->inc();
    }
    cas_span.arg(PRISM_TRACE_NID("retries"), retries);
    hsit_->freeEntryDeferred(*h, epochs_);
    return Status::ok();
}

/**
 * One get's Value Storage read in flight, blocking or async: a queued
 * read (core/read_batcher.h) whose outcome runs onAsyncVsRead on the VS
 * completion thread. It owns the read buffer, so nothing on any caller's
 * stack is referenced while the I/O flies, and it counts in
 * async_inflight_ for as long as it exists.
 */
struct PrismDb::AsyncGetCtx final : ReadBatcher::Read {
    PrismDb *db;
    std::shared_ptr<AsyncOpState> st;
    std::string *out;  ///< st->value, or a blocking caller's string
    uint64_t key;
    uint64_t h;
    ValueAddr addr;
    int lookup_attempts;  ///< re-lookups after mid-flight moves so far
    std::vector<uint8_t> buf;

    AsyncGetCtx(PrismDb *d, std::shared_ptr<AsyncOpState> s,
                std::string *o, uint64_t k, uint64_t hi, ValueAddr a,
                int attempts)
        : db(d), st(std::move(s)), out(o), key(k), h(hi), addr(a),
          lookup_attempts(attempts)
    {
        db->async_inflight_.fetch_add(1, std::memory_order_acq_rel);
        aimRead(*this, buf, a.offset(), a.recordBytes());
    }

    ~AsyncGetCtx() override
    {
        db->async_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }

    void
    onRead(const Status &s) override
    {
        db->onAsyncVsRead(this, s);
    }
};

OpFuture
PrismDb::asyncPut(uint64_t key, std::string_view value, AsyncCallback cb)
{
    // The put path is an NVM append + durable CAS (§4.3): there is no
    // device round-trip to overlap, so the future completes inline.
    auto st = std::make_shared<AsyncOpState>();
    st->callback = std::move(cb);
    st->complete(put(key, value));
    return OpFuture(std::move(st));
}

OpFuture
PrismDb::asyncDel(uint64_t key, AsyncCallback cb)
{
    auto st = std::make_shared<AsyncOpState>();
    st->callback = std::move(cb);
    st->complete(del(key));
    return OpFuture(std::move(st));
}

OpFuture
PrismDb::asyncGet(uint64_t key, AsyncCallback cb)
{
    // The op trace scope covers the synchronous prefix only; the flight
    // itself is visible as the device's submit/service spans.
    PRISM_TRACE_OP(op_scope, "prism.async_get");
    reg_.gets->inc();
    auto st = std::make_shared<AsyncOpState>();
    st->callback = std::move(cb);
    startAsyncGet(st, &st->value, key, /*lookup_attempts=*/0);
    return OpFuture(std::move(st));
}

OpFuture
PrismDb::asyncScan(uint64_t start_key, size_t count, AsyncCallback cb)
{
    auto st = std::make_shared<AsyncOpState>();
    st->callback = std::move(cb);
    if (bg_pool_->workers() == 0) {
        // No pool (serial ablation): degenerate to a blocking scan.
        st->complete(scan(start_key, count, &st->rows));
        return OpFuture(std::move(st));
    }
    async_inflight_.fetch_add(1, std::memory_order_acq_rel);
    bg_inflight_.fetch_add(1, std::memory_order_acq_rel);
    bg_pool_->submit(bg_source_, [this, st, start_key, count] {
        st->complete(scan(start_key, count, &st->rows));
        async_inflight_.fetch_sub(1, std::memory_order_acq_rel);
        bg_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    });
    return OpFuture(std::move(st));
}

void
PrismDb::startAsyncGet(const std::shared_ptr<AsyncOpState> &st,
                       std::string *out, uint64_t key, int lookup_attempts)
{
    Status s;
    AsyncGetCtx *ctx = nullptr;
    {
        EpochGuard guard(epochs_);
        const auto found = index_->lookup(key);
        const uint64_t h = found.value_or(0);
        const ValueAddr addr =
            found.has_value() ? hsit_->loadPrimary(h) : ValueAddr();
        if (addr.isNull())
            s = Status::notFound();
        else if (svc_->lookup(h, addr.raw(), out))
            reg_.svc_hits->inc();
        else if (addr.isPwb())
            s = readPwb(h, addr, out);  // NVM: nothing to overlap
        else if (addr.ssdId() >= value_storages_.size())
            s = Status::corruption("bad SSD id in HSIT entry");
        else
            ctx = new AsyncGetCtx(this, st, out, key, h, addr,
                                  lookup_attempts);
    }
    // Complete outside the epoch guard: the user callback must not run
    // inside a read-side critical section.
    if (ctx == nullptr) {
        st->complete(std::move(s));
        return;
    }
    // SSD-resident: queue the read with *no epoch held across the
    // flight* — pinning an epoch per in-flight op would stall every
    // reclaimer behind the slowest I/O. Safety comes from the
    // completion-side re-validation instead (onAsyncVsRead).
    ReadBatcher::Read *read = ctx;
    value_storages_[ctx->addr.ssdId()]->enqueueReads({&read, 1});
}

void
PrismDb::onAsyncVsRead(AsyncGetCtx *ctx, const Status &io_st)
{
    if (!io_st.isOk()) {
        ctx->st->complete(io_st);  // the read queue's retries ran out
        delete ctx;
        return;
    }
    bool published = false;
    {
        // The flight held no epoch, so the record may have been
        // relocated (update, reclamation, GC) and its chunk recycled —
        // even recycled *and rewritten* — under us. Validate under an
        // epoch guard: the record must parse (coupling + CRC) and the
        // HSIT must still point at the exact address we read; otherwise
        // nothing is published and the lookup is retried.
        EpochGuard guard(epochs_);
        const ValueRecordHeader *hdr =
            checkedRecord(ctx->buf.data(), ctx->buf.size(), ctx->h);
        if (hdr != nullptr && hsit_->loadPrimary(ctx->h) == ctx->addr) {
            const auto *payload = reinterpret_cast<const uint8_t *>(hdr + 1);
            ctx->out->assign(reinterpret_cast<const char *>(payload),
                             hdr->value_size);
            reg_.vs_reads->inc();
            svc_->admit(ctx->h, ctx->key, ctx->addr, payload,
                        hdr->value_size);
            published = true;
        }
    }
    if (published) {
        ctx->st->complete(Status::ok());
    } else if (ctx->lookup_attempts < kAsyncLookupRetries) {
        // The value moved mid-flight; chase it with a fresh lookup. Each
        // round re-resolves index -> HSIT -> SVC/PWB/VS, so a value that
        // migrated into the PWB or SVC completes inline this time. The
        // new round counts in async_inflight_ before this one stops.
        startAsyncGet(ctx->st, ctx->out, ctx->key,
                      ctx->lookup_attempts + 1);
    } else {
        ctx->st->complete(
            Status::corruption("async get: record kept moving"));
    }
    delete ctx;
}

Status
PrismDb::scan(uint64_t start_key, size_t count,
              std::vector<std::pair<uint64_t, std::string>> *out)
{
    PRISM_TRACE_OP(op_scope, "prism.scan");
    op_scope.arg(PRISM_TRACE_NID("count"), count);
    reg_.scans->inc();
    EpochGuard guard(epochs_);
    out->clear();

    std::vector<std::pair<uint64_t, uint64_t>> handles;
    index_->scan(start_key, count, handles);

    struct VsReq {
        size_t out_idx;
        uint64_t h;
        uint64_t key;
        ValueAddr addr;
    };
    std::vector<VsReq> vs_reqs;
    std::vector<std::pair<uint64_t, uint64_t>> noted;  // (key, hsit idx)

    for (const auto &[key, h] : handles) {
        const ValueAddr addr = hsit_->loadPrimary(h);
        if (addr.isNull())
            continue;  // deleted concurrently
        out->emplace_back(key, std::string());
        std::string *slot = &out->back().second;
        if (svc_->lookup(h, addr.raw(), slot)) {
            reg_.svc_hits->inc();
            noted.emplace_back(key, h);
            continue;
        }
        if (addr.isPwb()) {
            const Status st = readPwb(h, addr, slot);
            if (!st.isOk())
                return st;
            continue;
        }
        vs_reqs.push_back({out->size() - 1, h, key, addr});
    }

    if (!vs_reqs.empty()) {
        // Batched SSD reads with span merging: after a scan-aware
        // reorganisation the whole range collapses into one or two
        // sequential chunk reads — the SSD I/O reduction of §4.4.
        std::sort(vs_reqs.begin(), vs_reqs.end(),
                  [](const VsReq &a, const VsReq &b) {
                      if (a.addr.ssdId() != b.addr.ssdId())
                          return a.addr.ssdId() < b.addr.ssdId();
                      return a.addr.offset() < b.addr.offset();
                  });
        struct Span : GroupRead {
            uint64_t start;
            uint64_t end;
            size_t first_req;
            size_t req_count;
        };
        std::vector<std::unique_ptr<Span>> spans;
        for (size_t i = 0; i < vs_reqs.size(); i++) {
            const auto &r = vs_reqs[i];
            const uint64_t end = r.addr.offset() + r.addr.recordBytes();
            if (!spans.empty()) {
                Span &s = *spans.back();
                if (s.ssd == r.addr.ssdId() && s.end == r.addr.offset() &&
                    end - s.start <= opts_.chunk_bytes) {
                    s.end = end;
                    s.req_count++;
                    continue;
                }
            }
            auto s = std::make_unique<Span>();
            s->ssd = r.addr.ssdId();
            s->start = r.addr.offset();
            s->end = end;
            s->first_req = i;
            s->req_count = 1;
            spans.push_back(std::move(s));
        }
        for (auto &s : spans)
            aimRead(*s, s->buf, s->start, s->end - s->start);
        const Status io_st = readAll(vs_ptrs_, spans);
        if (!io_st.isOk())
            return io_st;
        for (auto &s : spans) {
            for (size_t i = s->first_req; i < s->first_req + s->req_count;
                 i++) {
                const auto &r = vs_reqs[i];
                const uint64_t at = r.addr.offset() - s->start;
                const ValueRecordHeader *hdr = checkedRecord(
                    s->buf.data() + at, s->buf.size() - at, r.h);
                if (hdr == nullptr)
                    return Status::corruption("scan record mismatch");
                const auto *payload =
                    reinterpret_cast<const uint8_t *>(hdr + 1);
                (*out)[r.out_idx].second.assign(
                    reinterpret_cast<const char *>(payload),
                    hdr->value_size);
                reg_.vs_reads->inc();
                svc_->admit(r.h, r.key, r.addr, payload, hdr->value_size);
                noted.emplace_back(r.key, r.h);
            }
        }
    }

    // Chain this scan's members in key order for future reorganisation.
    if (noted.size() >= 2) {
        std::sort(noted.begin(), noted.end());
        std::vector<uint64_t> indices;
        indices.reserve(noted.size());
        for (const auto &[key, h] : noted)
            indices.push_back(h);
        svc_->noteScan(std::move(indices));
    }
    return Status::ok();
}

Status
PrismDb::multiGet(const std::vector<uint64_t> &keys,
                  std::vector<std::optional<std::string>> *out)
{
    PRISM_TRACE_OP(op_scope, "prism.multiget");
    op_scope.arg(PRISM_TRACE_NID("keys"), keys.size());
    reg_.gets->add(keys.size());
    EpochGuard guard(epochs_);
    out->assign(keys.size(), std::nullopt);

    // Resolve every key; serve SVC/PWB hits inline and gather the SSD
    // residents into one chain per Value Storage.
    struct VsReq : GroupRead {
        size_t out_idx;
        uint64_t h;
        ValueAddr addr;
    };
    std::vector<std::unique_ptr<VsReq>> vs_reqs;
    for (size_t i = 0; i < keys.size(); i++) {
        const auto h = index_->lookup(keys[i]);
        if (!h.has_value())
            continue;
        const ValueAddr addr = hsit_->loadPrimary(*h);
        if (addr.isNull())
            continue;
        std::string value;
        if (svc_->lookup(*h, addr.raw(), &value)) {
            reg_.svc_hits->inc();
            (*out)[i] = std::move(value);
            continue;
        }
        if (addr.isPwb()) {
            const Status st = readPwb(*h, addr, &value);
            if (!st.isOk())
                return st;
            (*out)[i] = std::move(value);
            continue;
        }
        if (addr.ssdId() >= value_storages_.size())
            return Status::corruption("bad SSD id in HSIT entry");
        auto req = std::make_unique<VsReq>();
        req->out_idx = i;
        req->h = *h;
        req->addr = addr;
        req->ssd = addr.ssdId();
        aimRead(*req, req->buf, addr.offset(), addr.recordBytes());
        vs_reqs.push_back(std::move(req));
    }

    const Status io_st = readAll(vs_ptrs_, vs_reqs);
    if (!io_st.isOk())
        return io_st;
    for (auto &r : vs_reqs) {
        const ValueRecordHeader *hdr =
            checkedRecord(r->buf.data(), r->buf.size(), r->h);
        if (hdr == nullptr)
            return Status::corruption("multiGet record mismatch");
        const auto *payload = reinterpret_cast<const uint8_t *>(hdr + 1);
        (*out)[r->out_idx].emplace(
            reinterpret_cast<const char *>(payload), hdr->value_size);
        reg_.vs_reads->inc();
        svc_->admit(r->h, keys[r->out_idx], r->addr, payload,
                    hdr->value_size);
    }
    return Status::ok();
}

void
PrismDb::reclaimPwb(Pwb *pwb, bool force)
{
    // One reclamation pass at a time *per PWB*: flushAll, the worker
    // pool and a stalled put's direct dispatch may race, and overlapping
    // passes on one PWB would waste SSD writes relocating the same
    // records twice (and must not interleave their cursor updates).
    // Blocking, so flushAll reliably makes progress. Passes on distinct
    // PWBs are independent and run concurrently across the pool.
    PRISM_TRACE_SPAN_VAR(pass_span, "pwb.reclaim_pass");
    std::lock_guard<prof::TimedMutex> pass_lock(pwb->passMutex());

    // Near-full rings (a stalled put dispatches at ~100% utilization)
    // must reclaim everything they can; under lighter pressure a pass
    // may leave a partial chunk's worth of records behind rather than
    // seal a nearly-empty chunk (see kReclaimForceUtilization).
    force = force || pwb->utilization() >= kReclaimForceUtilization;

    // Start past every range a still-deferred head advance may cover:
    // that space can be recycled mid-pass, so its bytes must not be
    // trusted. [cursor, tail) is stable until *this* pass's advance.
    const uint64_t start =
        std::max(pwb->headLogical(), pwb->reclaimCursor());
    std::vector<Pwb::RecordRef> refs;
    uint64_t new_head =
        pwb->collectFrom(start, pwb->usedBytes(), refs);
    // Record how far this pass scanned *before* the thrifty pull-back
    // below retreats new_head: the reclaimer loop's re-dispatch gate
    // compares the ring tail against this, so a deferred straggler does
    // not read as "unscanned backlog" and trigger a dispatch storm.
    pwb->setLastScanTail(new_head);
    pass_span.arg(PRISM_TRACE_NID("scanned_records"), refs.size());
    if (new_head == start)
        return;

    struct LiveValue {
        uint64_t h;
        uint64_t key;
        const uint8_t *payload;
        uint32_t size;
        ValueAddr pwb_addr;
        uint64_t logical_end;  ///< ring offset just past the record
    };
    std::vector<LiveValue> live;
    live.reserve(refs.size());
    const bool paranoid = std::getenv("PRISM_PARANOID") != nullptr;
    for (const auto &ref : refs) {
        if (paranoid && !recordCrcOk(*ref.hdr, ref.payload)) {
            PRISM_LOG_ERROR("pwb.reclaim.bad_crc",
                "bad crc at logical_end=%llu addr=%llu key=%llu "
                "back=%llu size=%u start=%llu head=%llu tail=%llu "
                "cursor=%llu",
                (unsigned long long)ref.logical_end,
                (unsigned long long)ref.addr.offset(),
                (unsigned long long)ref.hdr->key,
                (unsigned long long)ref.hdr->backward,
                ref.hdr->value_size, (unsigned long long)start,
                (unsigned long long)pwb->headLogical(),
                (unsigned long long)pwb->tailLogical(),
                (unsigned long long)pwb->reclaimCursor());
            std::abort();
        }
        const uint64_t h = ref.hdr->backward;
        if (h >= hsit_->capacity())
            continue;
        // Well-coupled check (§5.2): the HSIT forward pointer must refer
        // back to this exact record; superseded versions are skipped,
        // which is Prism's write-traffic dedup.
        const ValueAddr primary = hsit_->loadPrimary(h);
        if (primary == ref.addr) {
            live.push_back({h, ref.hdr->key, ref.payload,
                            ref.hdr->value_size, ref.addr,
                            ref.logical_end});
        } else {
            reg_.reclaim_skipped_stale->inc();
        }
    }

    if (!live.empty()) {
        // Pipelined chunk writes: up to kReclaimPipelineDepth chunks
        // stay in flight, and each chunk's records are published the
        // moment its write completes — the pass no longer serializes
        // behind a full-barrier finish() (§5.2, Fig. 4).
        ChunkWriter writer(vs_ptrs_, /*seed=*/42, kReclaimPipelineDepth);
        std::vector<ValueAddr> placed(live.size());
        writer.setChunkCallback([&](ValueStorage *vs, int64_t chunk,
                                    size_t first, size_t count) {
            // This chunk is durable. Mark its copies live *before*
            // settling and publishing: a chunk whose bits lag its HSIT
            // references could be selected, emptied and recycled by a
            // concurrent GC pass.
            for (size_t i = first; i < first + count; i++) {
                vs->setValid(placed[i].offset(),
                             placed[i].recordBytes());
            }
            vs->settleChunk(chunk);
            for (size_t i = first; i < first + count; i++) {
                const auto &v = live[i];
                if (hsit_->casPrimaryDurable(v.h, v.pwb_addr,
                                             placed[i])) {
                    reg_.reclaimed_values->inc();
                    // Write-back admission: a just-relocated value is a
                    // recent write and, under skewed request mixes, a
                    // likely near-term read — serving it from the SVC
                    // saves the whole batched-SSD-read path. Gated on
                    // headroom so a capacity-bound cache (which would
                    // only thrash its eviction lists) is left alone.
                    if (svc_->hasHeadroom())
                        svc_->admit(v.h, v.key, placed[i], v.payload,
                                    v.size);
                } else {
                    // Superseded after collection; retract the copy.
                    vs->clearValid(placed[i].offset(),
                                   placed[i].recordBytes());
                }
            }
        });
        for (size_t i = 0; i < live.size(); i++) {
            ValueAddr a = writer.add(live[i].h, live[i].key,
                                     live[i].payload, live[i].size);
            for (int attempt = 0; a.isNull() && attempt < 64; attempt++) {
                // No free chunk anywhere: force a concurrent GC round
                // and let the epoch machinery release recycled chunks,
                // then retry.
                runGcRoundParallel();
                epochs_.tryAdvance();
                std::this_thread::yield();
                a = writer.add(live[i].h, live[i].key, live[i].payload,
                               live[i].size);
            }
            PRISM_CHECK(!a.isNull() && "Value Storage out of space");
            placed[i] = a;
        }
        if (force) {
            const Status st = writer.finish();
            PRISM_CHECK(st.isOk());
        } else {
            // Thrifty pass: full chunks only. Stragglers stay durable in
            // the ring; the head advance below stops short of the first
            // one, so a later pass re-collects them (by then most have
            // been superseded and cost nothing).
            const size_t published = writer.finishFullChunksOnly();
            if (published < live.size()) {
                const auto &first_left = live[published];
                new_head = first_left.logical_end -
                           first_left.pwb_addr.recordBytes();
                reg_.reclaim_deferred_values->add(
                    live.size() - published);
            }
        }
        // A permanently-failed chunk write (injected fault or device
        // dropout) published nothing: its callback never fired, so no
        // HSIT entry points at the dead chunk and the records' only
        // durable copy is still the ring. Clamp the head advance to
        // stop short of the first such record — the next pass
        // re-collects everything from there (already-published later
        // records are skipped as stale by the well-coupled check).
        const size_t first_failed = writer.firstFailedRecord();
        if (first_failed < live.size()) {
            const auto &ff = live[first_failed];
            new_head = std::min(new_head, ff.logical_end -
                                              ff.pwb_addr.recordBytes());
            uint64_t requeued = 0;
            for (size_t i = first_failed; i < live.size(); i++)
                requeued += writer.recordFailed(i) ? 1 : 0;
            reg_.pwb_requeued_values->add(requeued);
        }
    }

    pass_span.arg(PRISM_TRACE_NID("live_records"), live.size());
    reg_.reclaim_passes->inc();
    if (new_head == start)
        return;  // nothing resolved; no cursor/head movement to record
    pwb->setReclaimCursor(new_head);
    // The head advance (space reuse) waits out the epoch grace period:
    // readers may still be dereferencing reclaimed PWB addresses.
    epochs_.retire([this, pwb, start, new_head] {
        if (std::getenv("PRISM_PARANOID") != nullptr) {
            // No HSIT entry may still reference the range being freed.
            for (uint64_t i = 0; i < hsit_->capacity(); i++) {
                const ValueAddr a(
                    hsit_->entry(i).primary.load(
                        std::memory_order_acquire));
                if (a.isPwb() &&
                    pwb->offsetInLogicalRange(a.offset(), start,
                                              new_head)) {
                    PRISM_LOG_ERROR("pwb.advance.live_entry",
                        "live entry %llu at pwb off %llu in "
                        "[%llu,%llu) head=%llu tail=%llu",
                        (unsigned long long)i,
                        (unsigned long long)a.offset(),
                        (unsigned long long)start,
                        (unsigned long long)new_head,
                        (unsigned long long)pwb->headLogical(),
                        (unsigned long long)pwb->tailLogical());
                    std::abort();
                }
            }
        }
        pwb->advanceHead(new_head);
    });
}

void
PrismDb::dispatchReclaim(Pwb *pwb)
{
    // One outstanding dispatch per PWB: the slot is released by the
    // task, so at most one queue entry plus one running pass exist for
    // any PWB (the pass lock serializes with flushAll regardless).
    if (!pwb->tryAcquireReclaimSlot())
        return;
    PRISM_TRACE_INSTANT("pwb.reclaim_dispatch");
    reg_.reclaim_dispatches->inc();
    bg_inflight_.fetch_add(1, std::memory_order_acq_rel);
    bg_pool_->submit(bg_source_, [this, pwb] {
        reclaimPwb(pwb);
        pwb->releaseReclaimSlot();
        epochs_.tryAdvance();
        bg_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    });
}

void
PrismDb::dispatchGc(size_t vs_id)
{
    bool expected = false;
    if (!gc_scheduled_[vs_id].compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
        return;
    PRISM_TRACE_INSTANT("vs.gc_dispatch");
    reg_.gc_dispatches->inc();
    bg_inflight_.fetch_add(1, std::memory_order_acq_rel);
    bg_pool_->submit(bg_source_, [this, vs_id] {
        value_storages_[vs_id]->runGcPass(*hsit_, svc_.get());
        gc_scheduled_[vs_id].store(false, std::memory_order_release);
        epochs_.tryAdvance();
        bg_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    });
}

void
PrismDb::runGcRoundParallel()
{
    // The caller helps execute the per-VS passes (BgPool::parallelFor),
    // so this is safe to invoke from inside a pool task — the GC
    // fallback in reclaimPwb does. Contended Value Storages are skipped
    // by runGcPass's try-lock, never waited on.
    PRISM_TRACE_SPAN("vs.gc_round");
    bg_pool_->parallelFor(bg_source_, value_storages_.size(),
                          [this](size_t i) {
        value_storages_[i]->runGcPass(*hsit_, svc_.get());
    });
}

void
PrismDb::reclaimerLoop()
{
    trace::TraceRegistry::global().setThreadName("prism-reclaimer");
    numa::pinThreadToNode(opts_.numa_node);
    std::unique_lock<std::mutex> lock(reclaim_mu_);
    while (!stop_.load(std::memory_order_acquire)) {
        reclaim_cv_.wait_for(lock, kReclaimerPoll);
        if (stop_.load(std::memory_order_acquire))
            return;
        lock.unlock();
        for (int tid = 0; tid < ThreadId::kMaxThreads; tid++) {
            Pwb *pwb = pwbs_[tid].load(std::memory_order_acquire);
            if (pwb == nullptr)
                continue;
            // Re-arm the put-path edge trigger: appends that land while
            // this pass is deciding will raise a fresh notify.
            pwb->clearReclaimHint();
            const double util = pwb->utilization();
            if (util < kReclaimWatermark)
                continue;
            // Re-dispatch gate: a thrifty pass leaves the ring over the
            // watermark on purpose (deferred stragglers), so utilization
            // alone would re-dispatch every poll and each pass would
            // re-scan the same stale backlog. Only dispatch once at
            // least a chunk of fresh appends has landed past the last
            // scan — unless pressure forces a full pass anyway. Stalled
            // puts and flushAll dispatch directly and skip this gate.
            if (pwb->tailLogical() - pwb->lastScanTail() >=
                    opts_.chunk_bytes ||
                util >= kReclaimForceUtilization)
                dispatchReclaim(pwb);
        }
        epochs_.tryAdvance();
        lock.lock();
    }
}

void
PrismDb::gcLoop()
{
    trace::TraceRegistry::global().setThreadName("prism-gc");
    numa::pinThreadToNode(opts_.numa_node);
    // Adaptive cadence: 200 us while GC work is being found, backing
    // off 2x per idle round to 20 ms. A store with no garbage pays ~50
    // wakeups/s instead of 5000 — the difference is measurable when a
    // shard router runs one of these loops per shard on a small box.
    constexpr uint64_t kBusyPollNs = 200 * 1000;
    constexpr uint64_t kIdlePollNs = 20000 * 1000;
    uint64_t poll_ns = kBusyPollNs;
    while (!stop_.load(std::memory_order_acquire)) {
        bool dispatched = false;
        for (size_t i = 0; i < value_storages_.size(); i++) {
            if (stop_.load(std::memory_order_acquire))
                return;
            // A dropped-out device cannot complete survivor rewrites;
            // runGcPass would skip it anyway (prism.vs.degraded), so
            // don't burn pool slots on it while it is sick.
            if (value_storages_[i]->needsGc() &&
                value_storages_[i]->device().healthy()) {
                dispatchGc(i);
                dispatched = true;
            }
        }
        epochs_.tryAdvance();
        poll_ns = dispatched ? kBusyPollNs
                             : std::min(poll_ns * 2, kIdlePollNs);
        // Scheduling wait, not delayFor: simulated-time delays end in a
        // calibration spin that is pure waste here, and a condvar makes
        // shutdown interruptible at the longer idle cadence.
        std::unique_lock<std::mutex> lock(gc_mu_);
        gc_cv_.wait_for(lock, std::chrono::nanoseconds(poll_ns), [this] {
            return stop_.load(std::memory_order_acquire);
        });
    }
}

void
PrismDb::flushAll()
{
    // Quiesced-caller contract: no concurrent put/get/scan.
    PRISM_TRACE_SPAN("prism.flush_all");
    for (int round = 0; round < 1024; round++) {
        bool dirty = false;
        for (int tid = 0; tid < ThreadId::kMaxThreads; tid++) {
            Pwb *pwb = pwbs_[tid].load(std::memory_order_acquire);
            if (pwb == nullptr || pwb->usedBytes() == 0)
                continue;
            dirty = true;
            reclaimPwb(pwb, /*force=*/true);
        }
        epochs_.drain();  // apply the deferred head advances
        if (!dirty)
            return;
    }
}

void
PrismDb::forceGc()
{
    // Rounds of one concurrent pass per over-watermark Value Storage;
    // freed chunks only return to the free lists after the epoch drain,
    // so progress is re-evaluated between rounds.
    PRISM_TRACE_SPAN("prism.force_gc");
    for (int round = 0; round < 1024; round++) {
        std::vector<size_t> needy;
        for (size_t i = 0; i < value_storages_.size(); i++) {
            // Degrade gracefully: an over-watermark but dropped-out
            // device is left alone rather than spun on forever.
            if (value_storages_[i]->needsGc() &&
                value_storages_[i]->device().healthy())
                needy.push_back(i);
        }
        if (needy.empty())
            return;
        std::atomic<size_t> reclaimed{0};
        bg_pool_->parallelFor(bg_source_, needy.size(), [&](size_t i) {
            reclaimed.fetch_add(
                value_storages_[needy[i]]->runGcPass(*hsit_, svc_.get()),
                std::memory_order_relaxed);
        });
        epochs_.drain();
        if (reclaimed.load(std::memory_order_relaxed) == 0)
            return;  // nothing left to squeeze out of any victim
    }
}

uint64_t
PrismDb::ssdBytesWritten() const
{
    uint64_t total = 0;
    for (const auto &vs : value_storages_) {
        total += const_cast<ValueStorage &>(*vs)
                     .device()
                     .stats()
                     .bytes_written.load(std::memory_order_relaxed);
    }
    return total;
}

uint64_t
PrismDb::nvmIndexBytes() const
{
    return index_->nvmBytes() + hsit_->nvmBytes();
}

uint64_t
PrismDb::pwbUsedBytes() const
{
    uint64_t used = 0;
    for (const auto &p : pwbs_)
        if (const Pwb *pwb = p.load(std::memory_order_acquire))
            used += pwb->usedBytes();
    return used;
}

uint64_t
PrismDb::pwbCapacityBytes() const
{
    uint64_t cap = 0;
    for (const auto &p : pwbs_)
        if (const Pwb *pwb = p.load(std::memory_order_acquire))
            cap += pwb->capacity();
    return cap;
}

}  // namespace prism::core
