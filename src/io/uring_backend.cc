#include "io/uring_backend.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/trace.h"

#if PRISM_HAVE_URING
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace prism::io {

#if PRISM_HAVE_URING

namespace {

// Each OpCtx passes from submit() to the reaper through the kernel's
// rings, a hand-off ThreadSanitizer cannot see. TSan builds announce it
// (sanitizer/tsan_interface.h); other builds compile it away.
#if defined(__SANITIZE_THREAD__)
#define PRISM_URING_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PRISM_URING_TSAN 1
#endif
#endif
#ifdef PRISM_URING_TSAN
extern "C" void __tsan_acquire(void *addr);
extern "C" void __tsan_release(void *addr);
void handOff(void *ctx) { __tsan_release(ctx); }
void takeOver(void *ctx) { __tsan_acquire(ctx); }
#else
void handOff(void *) {}
void takeOver(void *) {}
#endif

// Raw syscall wrappers — liburing is deliberately not a dependency.
// On exotic libcs without the __NR constants the wrappers fail with
// ENOSYS, so the probe reports "unavailable" and everything falls back
// to the POSIX backend.
int
sysIoUringSetup(unsigned entries, struct io_uring_params *p)
{
#ifdef __NR_io_uring_setup
    return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
#else
    (void)entries;
    (void)p;
    errno = ENOSYS;
    return -1;
#endif
}

int
sysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                unsigned flags)
{
#ifdef __NR_io_uring_enter
    return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                      min_complete, flags, nullptr, 0));
#else
    (void)fd;
    (void)to_submit;
    (void)min_complete;
    (void)flags;
    errno = ENOSYS;
    return -1;
#endif
}

constexpr unsigned kRingEntries = 256;

// The uring backend has no fixed worker count; 8 approximates the
// device-side parallelism of one NVMe namespace for the telemetry
// utilization math (busy ÷ window × channels). Documented as
// approximate in docs/IO_BACKENDS.md.
constexpr int kUringChannels = 8;

}  // namespace

bool
uringAvailable()
{
    static const bool avail = [] {
        struct io_uring_params p;
        std::memset(&p, 0, sizeof(p));
        const int fd = sysIoUringSetup(4, &p);
        if (fd < 0)
            return false;
        ::close(fd);
        return true;
    }();
    return avail;
}

UringBackend::UringBackend(const FileBackendOptions &opts)
    : FileBackendBase(opts, kUringChannels)
{
    struct io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    ring_fd_ = sysIoUringSetup(kRingEntries, &p);
    if (ring_fd_ < 0)
        fatal("io_uring_setup: %s (use the posix backend)",
              std::strerror(errno));
    sq_entries_ = p.sq_entries;
    cq_entries_ = p.cq_entries;

    sq_ring_bytes_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_ring_bytes_ =
        p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
    single_mmap_ = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap_)
        sq_ring_bytes_ = cq_ring_bytes_ =
            std::max(sq_ring_bytes_, cq_ring_bytes_);

    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_,
                      IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED)
        fatal("mmap io_uring SQ ring: %s", std::strerror(errno));
    if (single_mmap_) {
        cq_ring_ = sq_ring_;
    } else {
        cq_ring_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, ring_fd_,
                          IORING_OFF_CQ_RING);
        if (cq_ring_ == MAP_FAILED)
            fatal("mmap io_uring CQ ring: %s", std::strerror(errno));
    }
    sqes_bytes_ = p.sq_entries * sizeof(struct io_uring_sqe);
    sqes_ = static_cast<struct io_uring_sqe *>(
        ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED)
        fatal("mmap io_uring SQEs: %s", std::strerror(errno));

    auto *sqr = static_cast<char *>(sq_ring_);
    sq_head_ = reinterpret_cast<std::atomic<unsigned> *>(sqr + p.sq_off.head);
    sq_tail_ = reinterpret_cast<std::atomic<unsigned> *>(sqr + p.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned *>(sqr + p.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned *>(sqr + p.sq_off.array);
    auto *cqr = static_cast<char *>(cq_ring_);
    cq_head_ = reinterpret_cast<std::atomic<unsigned> *>(cqr + p.cq_off.head);
    cq_tail_ = reinterpret_cast<std::atomic<unsigned> *>(cqr + p.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned *>(cqr + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe *>(cqr + p.cq_off.cqes);

    reaper_ = std::thread([this] { reaperLoop(); });
}

UringBackend::~UringBackend()
{
    stop_.store(true, std::memory_order_release);
    {
        // Wake the reaper (possibly blocked in io_uring_enter) with a
        // NOP whose sentinel user_data = 0 it discards.
        std::lock_guard<std::mutex> lock(sq_mu_);
        struct io_uring_sqe *sqe = nextSqe();
        sqe->opcode = IORING_OP_NOP;
        sqe->user_data = 0;
        const unsigned tail = sq_tail_->load(std::memory_order_relaxed);
        sq_array_[tail & *sq_mask_] =
            static_cast<unsigned>(sqe - sqes_);
        sq_tail_->store(tail + 1, std::memory_order_release);
        pending_sqes_++;
        flushSq();
    }
    reaper_.join();
    if (sqes_ != nullptr)
        ::munmap(sqes_, sqes_bytes_);
    if (cq_ring_ != nullptr && cq_ring_ != sq_ring_)
        ::munmap(cq_ring_, cq_ring_bytes_);
    if (sq_ring_ != nullptr)
        ::munmap(sq_ring_, sq_ring_bytes_);
    if (ring_fd_ >= 0)
        ::close(ring_fd_);
}

struct io_uring_sqe *
UringBackend::nextSqe()
{
    // sq_mu_ held. The kernel consumes SQEs synchronously during
    // io_uring_enter (no SQPOLL), so flushing always frees slots.
    while (true) {
        const unsigned head = sq_head_->load(std::memory_order_acquire);
        const unsigned tail = sq_tail_->load(std::memory_order_relaxed);
        if (tail - head < sq_entries_) {
            struct io_uring_sqe *sqe = &sqes_[tail & *sq_mask_];
            std::memset(sqe, 0, sizeof(*sqe));
            return sqe;
        }
        flushSq();
    }
}

void
UringBackend::flushSq()
{
    // sq_mu_ held.
    while (pending_sqes_ > 0) {
        const int ret = sysIoUringEnter(ring_fd_, pending_sqes_, 0, 0);
        if (ret < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EBUSY) {
                // CQ backpressure: give the reaper a moment to drain.
                delayFor(10'000);
                continue;
            }
            fatal("io_uring_enter(submit): %s", std::strerror(errno));
        }
        pending_sqes_ -= static_cast<unsigned>(ret);
    }
}

Status
UringBackend::submit(std::span<const IoRequest> batch)
{
    PRISM_TRACE_SPAN_VAR(submit_span, "ssd.submit");
    submit_span.arg(PRISM_TRACE_NID("reqs"), batch.size());
    const Status vst = validateBatch(batch);
    if (!vst.isOk())
        return vst;

    std::vector<IoFault> faults;
    ins_.decideFaults(batch, faults);

    const uint64_t now = nowNs();
    const uint64_t depth =
        inflight_.fetch_add(batch.size(), std::memory_order_acq_rel) +
        batch.size();
    ins_.inflight->add(static_cast<int64_t>(batch.size()));
    DeviceInstruments::noteDepth(stats_, depth);

    std::vector<IoCompletion> immediate;
    bool woke_reaper = false;
    {
        std::lock_guard<std::mutex> lock(sq_mu_);
        for (size_t i = 0; i < batch.size(); i++) {
            const IoRequest &req = batch[i];
            const Status forced =
                faults.empty() ? Status::ok() : faults[i].status;
            const uint32_t xfer =
                faults.empty() ? req.length : faults[i].xfer;
            const uint64_t extra_ns =
                faults.empty() ? 0 : faults[i].extra_ns;
            // Bytes/ops are accounted at submission (matching the
            // simulator), with the fault-adjusted transfer size.
            ins_.account(stats_, req, xfer);

            if (xfer == 0) {
                // Injected error with no transfer: never reaches the
                // kernel. Latency faults ride through the deferred
                // list; a NOP CQE nudges the reaper to look at it.
                IoCompletion c;
                c.user_data = req.user_data;
                c.status = forced;
                c.latency_ns = extra_ns;
                if (extra_ns > 0) {
                    {
                        std::lock_guard<std::mutex> dl(deferred_mu_);
                        deferred_.emplace_back(now + extra_ns, c);
                    }
                    struct io_uring_sqe *nop = nextSqe();
                    nop->opcode = IORING_OP_NOP;
                    nop->user_data = 0;
                    const unsigned tail =
                        sq_tail_->load(std::memory_order_relaxed);
                    sq_array_[tail & *sq_mask_] =
                        static_cast<unsigned>(nop - sqes_);
                    sq_tail_->store(tail + 1, std::memory_order_release);
                    pending_sqes_++;
                    woke_reaper = true;
                } else {
                    ins_.latency->record(c.latency_ns);
                    immediate.push_back(c);
                }
                continue;
            }

            auto *ctx = new OpCtx;
            ctx->user_data = req.user_data;
            ctx->submit_ns = now;
            ctx->expected = xfer;
            ctx->is_write = req.op == IoRequest::Op::kWrite;
            ctx->forced = forced;
            ctx->extra_ns = extra_ns;
            handOff(ctx);

            struct io_uring_sqe *sqe = nextSqe();
            sqe->fd = fd_;
            sqe->off = req.offset;
            sqe->len = xfer;
            if (req.op == IoRequest::Op::kWrite) {
                sqe->opcode = IORING_OP_WRITE;
                sqe->addr = reinterpret_cast<uint64_t>(req.src);
            } else {
                sqe->opcode = IORING_OP_READ;
                sqe->addr = reinterpret_cast<uint64_t>(req.buf);
            }
            sqe->user_data = reinterpret_cast<uint64_t>(ctx);
            const unsigned tail =
                sq_tail_->load(std::memory_order_relaxed);
            sq_array_[tail & *sq_mask_] =
                static_cast<unsigned>(sqe - sqes_);
            sq_tail_->store(tail + 1, std::memory_order_release);
            pending_sqes_++;
        }
        flushSq();
    }
    (void)woke_reaper;
    deliver(immediate);
    return Status::ok();
}

size_t
UringBackend::drainKernelCq(std::vector<IoCompletion> &out)
{
    const uint64_t now = nowNs();
    unsigned head = cq_head_->load(std::memory_order_relaxed);
    size_t reaped = 0;
    bool synced_write = false;
    while (head != cq_tail_->load(std::memory_order_acquire)) {
        const struct io_uring_cqe *cqe = &cqes_[head & *cq_mask_];
        const uint64_t ud = cqe->user_data;
        const int32_t res = cqe->res;
        head++;
        reaped++;
        if (ud == 0)
            continue;  // wake-up NOP
        auto *ctx = reinterpret_cast<OpCtx *>(ud);
        takeOver(ctx);
        Status st = ctx->forced;
        if (st.isOk()) {
            if (res < 0) {
                st = Status::ioError(std::strerror(-res));
                ins_.countError();
            } else if (static_cast<uint32_t>(res) < ctx->expected) {
                st = Status::ioError("short I/O");
                ins_.countError();
            } else if (sync_each_write_ && ctx->is_write &&
                       !synced_write) {
                if (::fdatasync(fd_) != 0) {
                    st = Status::ioError(std::strerror(errno));
                    ins_.countError();
                } else {
                    synced_write = true;  // one sync covers this drain
                }
            }
        }
        IoCompletion c;
        c.user_data = ctx->user_data;
        c.status = st;
        c.latency_ns = now - ctx->submit_ns + ctx->extra_ns;
        ins_.dev_busy_ns->add(now - ctx->submit_ns);
        if (ctx->extra_ns > 0) {
            std::lock_guard<std::mutex> dl(deferred_mu_);
            deferred_.emplace_back(now + ctx->extra_ns, c);
        } else {
            ins_.latency->record(c.latency_ns);
            out.push_back(c);
        }
        delete ctx;
    }
    cq_head_->store(head, std::memory_order_release);
    return reaped;
}

void
UringBackend::reaperLoop()
{
    trace::TraceRegistry::global().setThreadName(
        "io" + std::to_string(ins_.dev) + "-uring");
    std::vector<IoCompletion> out;
    while (true) {
        drainKernelCq(out);

        const bool stopping = stop_.load(std::memory_order_acquire);
        uint64_t next_due = 0;
        {
            std::lock_guard<std::mutex> dl(deferred_mu_);
            const uint64_t now = nowNs();
            for (size_t i = 0; i < deferred_.size();) {
                if (stopping || deferred_[i].first <= now) {
                    ins_.latency->record(deferred_[i].second.latency_ns);
                    out.push_back(deferred_[i].second);
                    deferred_[i] = deferred_.back();
                    deferred_.pop_back();
                } else {
                    if (next_due == 0 || deferred_[i].first < next_due)
                        next_due = deferred_[i].first;
                    i++;
                }
            }
        }
        deliver(out);

        if (stopping) {
            // Callers quiesce before destruction; sweep any straggler
            // CQEs so their contexts are freed, then exit.
            drainKernelCq(out);
            deliver(out);
            return;
        }
        if (next_due != 0) {
            const uint64_t now = nowNs();
            delayFor(std::min<uint64_t>(
                next_due > now ? next_due - now : 1, 100'000));
            continue;
        }
        const int ret =
            sysIoUringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
        if (ret < 0 && errno != EINTR && errno != EAGAIN &&
            errno != EBUSY && errno != ETIME)
            fatal("io_uring_enter(wait): %s", std::strerror(errno));
    }
}

#else  // !PRISM_HAVE_URING

bool
uringAvailable()
{
    return false;
}

UringBackend::UringBackend(const FileBackendOptions &opts)
    : FileBackendBase(opts, 1)
{
    fatal("io_uring backend not compiled in on this platform");
}

Status
UringBackend::submit(std::span<const IoRequest> batch)
{
    (void)batch;
    return Status::ioError("io_uring backend not available");
}

#endif  // PRISM_HAVE_URING

}  // namespace prism::io
