#include "sim/ssd_device.h"

#include <poll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/clock.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace prism::sim {

SsdDevice::SsdDevice(uint64_t capacity_bytes, const DeviceProfile &profile,
                     bool model_timing)
    : capacity_((capacity_bytes + kBlockSize - 1) & ~(kBlockSize - 1)),
      profile_(profile),
      model_timing_(model_timing),
      pages_((capacity_ + kPageSize - 1) / kPageSize),
      channel_free_at_(static_cast<size_t>(profile.internal_parallelism), 0),
      ins_(profile.internal_parallelism)
{
    PRISM_CHECK(capacity_bytes > 0);
    for (auto &p : pages_)
        p.store(nullptr, std::memory_order_relaxed);
    // Token-bucket rates are fixed at construction; benches set TimeScale
    // before creating devices. A scale < 1 compresses time, which shows up
    // here as proportionally higher effective bandwidth.
    const double scale = std::max(TimeScale::get(), 1e-6);
    read_bw_ = std::make_unique<TokenBucket>(
        profile.read_bw_bytes_per_sec / scale, 8 * 1024 * 1024);
    write_bw_ = std::make_unique<TokenBucket>(
        profile.write_bw_bytes_per_sec / scale, 8 * 1024 * 1024);
    auto &tracer = trace::TraceRegistry::global();
    trace_channel_tracks_.reserve(channel_free_at_.size());
    for (size_t c = 0; c < channel_free_at_.size(); c++) {
        trace_channel_tracks_.push_back(tracer.registerTrack(
            "ssd" + std::to_string(ins_.dev) + ".ch" +
            std::to_string(c)));
    }
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC);
    PRISM_CHECK(timer_fd_ >= 0);
}

SsdDevice::~SsdDevice()
{
    ::close(timer_fd_);
    for (auto &p : pages_) {
        uint8_t *ptr = p.load(std::memory_order_relaxed);
        delete[] ptr;
    }
}

uint8_t *
SsdDevice::pageFor(uint64_t page_index, bool allocate)
{
    auto &slot = pages_[page_index];
    uint8_t *p = slot.load(std::memory_order_acquire);
    if (p != nullptr || !allocate)
        return p;
    std::lock_guard<std::mutex> lock(page_alloc_mu_);
    p = slot.load(std::memory_order_acquire);
    if (p == nullptr) {
        p = new uint8_t[kPageSize];
        std::memset(p, 0, kPageSize);
        slot.store(p, std::memory_order_release);
    }
    return p;
}

namespace {

timespec
toTimespec(uint64_t ns)
{
    return {static_cast<time_t>(ns / 1000000000),
            static_cast<long>(ns % 1000000000)};
}

/**
 * Page memory is shared between submitters, the synchronous helpers and
 * the crash-capture path (`snapshotTo`), which deliberately reads pages
 * while writes are in flight — exactly how a power cut captures a drive
 * mid-DMA. Torn data is part of the modelled semantics (record CRCs
 * detect it); copying through relaxed atomics keeps that tearing from
 * being a C++ data race. The private side of each copy is plain memory.
 */
void
atomicStoreBytes(uint8_t *shared_dst, const uint8_t *src, uint32_t len)
{
    while (len > 0 &&
           (reinterpret_cast<uintptr_t>(shared_dst) & 7u) != 0) {
        reinterpret_cast<std::atomic<uint8_t> *>(shared_dst)->store(
            *src, std::memory_order_relaxed);
        shared_dst++, src++, len--;
    }
    while (len >= 8) {
        uint64_t v;
        std::memcpy(&v, src, 8);
        reinterpret_cast<std::atomic<uint64_t> *>(shared_dst)->store(
            v, std::memory_order_relaxed);
        shared_dst += 8, src += 8, len -= 8;
    }
    while (len > 0) {
        reinterpret_cast<std::atomic<uint8_t> *>(shared_dst)->store(
            *src, std::memory_order_relaxed);
        shared_dst++, src++, len--;
    }
}

void
atomicLoadBytes(uint8_t *dst, const uint8_t *shared_src, uint32_t len)
{
    while (len > 0 &&
           (reinterpret_cast<uintptr_t>(shared_src) & 7u) != 0) {
        *dst = reinterpret_cast<const std::atomic<uint8_t> *>(shared_src)
                   ->load(std::memory_order_relaxed);
        dst++, shared_src++, len--;
    }
    while (len >= 8) {
        const uint64_t v =
            reinterpret_cast<const std::atomic<uint64_t> *>(shared_src)
                ->load(std::memory_order_relaxed);
        std::memcpy(dst, &v, 8);
        dst += 8, shared_src += 8, len -= 8;
    }
    while (len > 0) {
        *dst = reinterpret_cast<const std::atomic<uint8_t> *>(shared_src)
                   ->load(std::memory_order_relaxed);
        dst++, shared_src++, len--;
    }
}

}  // namespace

void
SsdDevice::copyIn(uint64_t offset, const void *src, uint32_t len)
{
    const auto *s = static_cast<const uint8_t *>(src);
    while (len > 0) {
        const uint64_t page = offset / kPageSize;
        const uint64_t in_page = offset % kPageSize;
        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(len, kPageSize - in_page));
        atomicStoreBytes(pageFor(page, true) + in_page, s, n);
        offset += n;
        s += n;
        len -= n;
    }
}

void
SsdDevice::copyOut(uint64_t offset, void *dst, uint32_t len)
{
    auto *d = static_cast<uint8_t *>(dst);
    while (len > 0) {
        const uint64_t page = offset / kPageSize;
        const uint64_t in_page = offset % kPageSize;
        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(len, kPageSize - in_page));
        const uint8_t *p = pageFor(page, false);
        if (p == nullptr) {
            std::memset(d, 0, n);  // never-written blocks read as zero
        } else {
            atomicLoadBytes(d, p + in_page, n);
        }
        offset += n;
        d += n;
        len -= n;
    }
}

uint64_t
SsdDevice::serviceTimeNs(const SsdIoRequest &req, uint64_t now)
{
    const bool is_read = req.op == SsdIoRequest::Op::kRead;
    const double bw = is_read ? profile_.read_bw_bytes_per_sec
                              : profile_.write_bw_bytes_per_sec;
    const uint64_t media_lat = is_read ? profile_.read_latency_ns
                                       : profile_.write_latency_ns;
    const auto transfer_ns = static_cast<uint64_t>(
        static_cast<double>(req.length) / bw * 1e9);
    // Aggregate-bandwidth back-pressure: the bucket tells us how far the
    // device is oversubscribed; that delay queues ahead of the media time.
    const uint64_t bw_delay =
        (is_read ? read_bw_ : write_bw_)->acquire(req.length);
    return TimeScale::scaled(media_lat + transfer_ns) + bw_delay;
}

Status
SsdDevice::submit(std::span<const SsdIoRequest> batch)
{
    PRISM_TRACE_SPAN_VAR(submit_span, "ssd.submit");
    submit_span.arg(PRISM_TRACE_NID("reqs"), batch.size());
    const bool timed = model_timing_.load(std::memory_order_relaxed);
    if (timed)
        spinFor(TimeScale::scaled(kSubmitOverheadNs));
    for (const auto &req : batch) {
        if (req.offset + req.length > capacity_)
            return Status::invalidArgument("I/O beyond device capacity");
        if (req.length == 0)
            return Status::invalidArgument("zero-length I/O");
    }

    // Fault-decision pass (io::DeviceInstruments): empty, and skipped
    // entirely, unless a fault site is armed or a dropout is active.
    std::vector<io::IoFault> faults;
    ins_.decideFaults(batch, faults);

    // Transfer data at submission; the completion only carries timing.
    // (Writes become durable at completion; an in-flight write lost to a
    // crash may thus survive in the backing store, which is benign: the
    // client treats it as unreferenced garbage, exactly as a completed-
    // but-unacknowledged write on real hardware.)
    for (size_t i = 0; i < batch.size(); i++) {
        const auto &req = batch[i];
        const uint32_t xfer = faults.empty() ? req.length : faults[i].xfer;
        if (req.op == SsdIoRequest::Op::kWrite) {
            PRISM_DCHECK(req.src != nullptr);
            if (xfer > 0)
                copyIn(req.offset, req.src, xfer);
        } else {
            PRISM_DCHECK(req.buf != nullptr);
            if (xfer > 0)
                copyOut(req.offset, req.buf, xfer);
        }
        ins_.account(stats_, req, xfer);
    }

    const uint64_t now = nowNs();
    inflight_.fetch_add(batch.size(), std::memory_order_acq_rel);
    ins_.inflight->add(static_cast<int64_t>(batch.size()));

    std::lock_guard<std::mutex> lock(sq_mu_);
    for (size_t i = 0; i < batch.size(); i++) {
        Pending p;
        p.due_ns = p.start_ns = p.submit_ns = now;
        if (timed) {
            uint64_t service = serviceTimeNs(batch[i], now);
            if (!faults.empty())
                service += faults[i].extra_ns;
            // Earliest-free internal channel serves the request.
            auto it = std::min_element(channel_free_at_.begin(),
                                       channel_free_at_.end());
            p.start_ns = std::max(now, *it);
            p.due_ns = p.start_ns + service;
            p.channel = static_cast<uint32_t>(
                it - channel_free_at_.begin());
            *it = p.due_ns;
        }
        p.trace_id = (static_cast<uint64_t>(ins_.dev) << 48) |
                     trace_req_seq_.fetch_add(1, std::memory_order_relaxed);
        p.completion = {batch[i].user_data,
                        faults.empty() ? Status::ok() : faults[i].status,
                        0};
        pending_.push(std::move(p));
    }
    if (!pending_.empty() && pending_.top().due_ns < armed_ns_)
        setTimer(pending_.top().due_ns);
    return Status::ok();
}

void
SsdDevice::setTimer(uint64_t due_ns)
{
    // A zero it_value disarms; an absolute time already past fires at
    // once. Either way the expiry count restarts from zero.
    itimerspec its{};
    if (due_ns != kDisarmed)
        its.it_value = toTimespec(due_ns);
    PRISM_CHECK(::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its,
                                  nullptr) == 0);
    armed_ns_ = due_ns;
}

size_t
SsdDevice::pollCompletions(std::vector<SsdCompletion> &out, size_t max)
{
    const bool tracing = trace::detail::tracingEnabled();
    uint64_t busy = 0;
    size_t n = 0;
    std::lock_guard<std::mutex> lock(sq_mu_);
    const uint64_t now = nowNs();
    for (; n < max && !pending_.empty() && pending_.top().due_ns <= now;
         n++) {
        const Pending &p = pending_.top();
        if (tracing) {
            // Reconstructed at delivery: queue wait (submit -> channel
            // pickup) as an async interval on the reaper's track, and
            // the service time as an "X" span on the serving channel's
            // own synthetic track (channel occupancy never overlaps).
            if (p.start_ns > p.submit_ns) {
                trace::asyncBegin(PRISM_TRACE_NID("ssd.queue_wait"),
                                  p.submit_ns, p.trace_id);
                trace::asyncEnd(PRISM_TRACE_NID("ssd.queue_wait"),
                                p.start_ns, p.trace_id);
            }
            trace::spanAt(PRISM_TRACE_NID("ssd.service"), p.start_ns,
                          p.due_ns - p.start_ns,
                          trace_channel_tracks_[p.channel]);
        }
        busy += p.due_ns - p.start_ns;
        out.push_back(p.completion);
        out.back().latency_ns = now - p.submit_ns;
        ins_.latency->record(out.back().latency_ns);
        pending_.pop();
    }
    // Set the timer for the new head. This also consumes the expiry that
    // woke a reaper; if requests are still due (max was reached) the new
    // head is in the past, so the timer stays expired for the next one.
    const uint64_t head =
        pending_.empty() ? kDisarmed : pending_.top().due_ns;
    if (head != armed_ns_)
        setTimer(head);
    if (n > 0) {
        ins_.dev_busy_ns->add(busy);
        inflight_.fetch_sub(n, std::memory_order_acq_rel);
        ins_.inflight->sub(static_cast<int64_t>(n));
    }
    return n;
}

size_t
SsdDevice::waitCompletions(std::vector<SsdCompletion> &out, size_t max,
                           uint64_t timeout_us)
{
    const uint64_t deadline = nowNs() + timeout_us * 1000;
    while (true) {
        const size_t n = pollCompletions(out, max);
        const uint64_t now = nowNs();
        if (n > 0 || now >= deadline)
            return n;
        // The timer fires when the head request is due (or, if another
        // reaper took it first, it has been re-armed for the next one).
        pollfd pfd{timer_fd_, POLLIN, 0};
        const timespec ts = toTimespec(deadline - now);
        ::ppoll(&pfd, 1, &ts, nullptr);
    }
}

Status
SsdDevice::readSync(uint64_t offset, void *buf, uint32_t length)
{
    if (offset + length > capacity_)
        return Status::invalidArgument("I/O beyond device capacity");
    const Status fault_st = ins_.syncFaultCheck(/*is_write=*/false);
    if (!fault_st.isOk())
        return fault_st;
    // Synchronous path: model the blocking pread an O_DIRECT caller sees.
    copyOut(offset, buf, length);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kRead;
    req.length = length;
    ins_.account(stats_, req, length);
    if (model_timing_.load(std::memory_order_relaxed)) {
        const uint64_t service = serviceTimeNs(req, nowNs());
        ins_.dev_busy_ns->add(service);
        delayFor(service);
    }
    return Status::ok();
}

Status
SsdDevice::writeSync(uint64_t offset, const void *src, uint32_t length)
{
    if (offset + length > capacity_)
        return Status::invalidArgument("I/O beyond device capacity");
    const Status fault_st = ins_.syncFaultCheck(/*is_write=*/true);
    if (!fault_st.isOk())
        return fault_st;
    copyIn(offset, src, length);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kWrite;
    req.length = length;
    ins_.account(stats_, req, length);
    if (model_timing_.load(std::memory_order_relaxed)) {
        const uint64_t service = serviceTimeNs(req, nowNs());
        ins_.dev_busy_ns->add(service);
        delayFor(service);
    }
    return Status::ok();
}

void
SsdDevice::simulateCrash()
{
    std::lock_guard<std::mutex> lock(sq_mu_);
    const size_t dropped = pending_.size();
    pending_ = {};
    if (armed_ns_ != kDisarmed)
        setTimer(kDisarmed);
    inflight_.fetch_sub(dropped, std::memory_order_acq_rel);
    ins_.inflight->sub(static_cast<int64_t>(dropped));
    std::fill(channel_free_at_.begin(), channel_free_at_.end(), 0);
}

void
SsdDevice::snapshotTo(std::vector<uint8_t> &out)
{
    out.resize(capacity_);
    constexpr uint64_t kStep = 1ull << 30;
    for (uint64_t off = 0; off < capacity_; off += kStep) {
        copyOut(off, out.data() + off, static_cast<uint32_t>(
            std::min(kStep, capacity_ - off)));
    }
}

void
SsdDevice::loadFrom(const std::vector<uint8_t> &image)
{
    PRISM_CHECK(image.size() <= capacity_);
    constexpr uint64_t kStep = 1ull << 30;
    for (uint64_t off = 0; off < image.size(); off += kStep) {
        copyIn(off, image.data() + off, static_cast<uint32_t>(
            std::min(kStep, image.size() - off)));
    }
}

void
SsdDevice::eraseAll()
{
    std::lock_guard<std::mutex> lock(page_alloc_mu_);
    for (auto &p : pages_) {
        uint8_t *ptr = p.exchange(nullptr, std::memory_order_acq_rel);
        delete[] ptr;
    }
}

}  // namespace prism::sim
