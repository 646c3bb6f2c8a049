#include "io/file_backend.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/logging.h"
#include "common/trace.h"

namespace prism::io {

void
makeBackendDir(const std::string &dir)
{
    std::string path;
    for (size_t i = 0; i <= dir.size(); i++) {
        if (i < dir.size() && dir[i] != '/') {
            path.push_back(dir[i]);
            continue;
        }
        if (i < dir.size())
            path.push_back('/');
        if (path.empty() || path == "/")
            continue;
        if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
            fatal("mkdir %s: %s", path.c_str(), std::strerror(errno));
    }
}

FileBackendBase::FileBackendBase(const FileBackendOptions &opts,
                                 int channels)
    : path_(opts.path),
      capacity_((opts.capacity_bytes + kBlockSize - 1) & ~(kBlockSize - 1)),
      sync_each_write_(opts.sync_each_write),
      ins_(channels)
{
    PRISM_CHECK(opts.capacity_bytes > 0);
    PRISM_CHECK(!path_.empty());
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        fatal("open %s: %s", path_.c_str(), std::strerror(errno));
    if (::ftruncate(fd_, static_cast<off_t>(capacity_)) != 0)
        fatal("ftruncate %s: %s", path_.c_str(), std::strerror(errno));
}

FileBackendBase::~FileBackendBase()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Status
FileBackendBase::validateBatch(std::span<const IoRequest> batch) const
{
    for (const auto &req : batch) {
        if (req.offset + req.length > capacity_)
            return Status::invalidArgument("I/O beyond device capacity");
        if (req.length == 0)
            return Status::invalidArgument("zero-length I/O");
    }
    return Status::ok();
}

Status
FileBackendBase::fullPread(uint64_t offset, void *buf, uint32_t len)
{
    auto *d = static_cast<uint8_t *>(buf);
    uint32_t done = 0;
    while (done < len) {
        const ssize_t n = ::pread(fd_, d + done, len - done,
                                  static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::strerror(errno));
        }
        if (n == 0)
            return Status::ioError("short read");
        done += static_cast<uint32_t>(n);
    }
    return Status::ok();
}

Status
FileBackendBase::fullPwrite(uint64_t offset, const void *src, uint32_t len)
{
    const auto *s = static_cast<const uint8_t *>(src);
    uint32_t done = 0;
    while (done < len) {
        const ssize_t n = ::pwrite(fd_, s + done, len - done,
                                   static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::strerror(errno));
        }
        if (n == 0)
            return Status::ioError("short write");
        done += static_cast<uint32_t>(n);
    }
    return Status::ok();
}

void
FileBackendBase::deliver(std::vector<IoCompletion> &batch)
{
    if (batch.empty())
        return;
    {
        // Leave inflight() under the lock, so a reaper that drained these
        // completions never sees the device still busy with them.
        std::lock_guard<std::mutex> lock(cq_mu_);
        cq_.insert(cq_.end(), batch.begin(), batch.end());
        inflight_.fetch_sub(batch.size(), std::memory_order_acq_rel);
    }
    ins_.inflight->sub(static_cast<int64_t>(batch.size()));
    cq_cv_.notify_all();
    batch.clear();
}

size_t
FileBackendBase::pollCompletions(std::vector<IoCompletion> &out, size_t max)
{
    std::lock_guard<std::mutex> lock(cq_mu_);
    const size_t n = std::min(max, cq_.size());
    out.insert(out.end(), cq_.begin(), cq_.begin() + static_cast<long>(n));
    cq_.erase(cq_.begin(), cq_.begin() + static_cast<long>(n));
    return n;
}

size_t
FileBackendBase::waitCompletions(std::vector<IoCompletion> &out, size_t max,
                                 uint64_t timeout_us)
{
    std::unique_lock<std::mutex> lock(cq_mu_);
    cq_cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                    [this] { return !cq_.empty(); });
    const size_t n = std::min(max, cq_.size());
    out.insert(out.end(), cq_.begin(), cq_.begin() + static_cast<long>(n));
    cq_.erase(cq_.begin(), cq_.begin() + static_cast<long>(n));
    return n;
}

Status
FileBackendBase::readSync(uint64_t offset, void *buf, uint32_t length)
{
    if (offset + length > capacity_)
        return Status::invalidArgument("I/O beyond device capacity");
    const Status fault_st = ins_.syncFaultCheck(/*is_write=*/false);
    if (!fault_st.isOk())
        return fault_st;
    const uint64_t t0 = nowNs();
    const Status st = fullPread(offset, buf, length);
    ins_.dev_busy_ns->add(nowNs() - t0);
    if (!st.isOk()) {
        ins_.countError();
        return st;
    }
    IoRequest req;
    req.op = IoRequest::Op::kRead;
    req.length = length;
    ins_.account(stats_, req, length);
    return Status::ok();
}

Status
FileBackendBase::writeSync(uint64_t offset, const void *src, uint32_t length)
{
    if (offset + length > capacity_)
        return Status::invalidArgument("I/O beyond device capacity");
    const Status fault_st = ins_.syncFaultCheck(/*is_write=*/true);
    if (!fault_st.isOk())
        return fault_st;
    const uint64_t t0 = nowNs();
    Status st = fullPwrite(offset, src, length);
    if (st.isOk() && sync_each_write_ && ::fdatasync(fd_) != 0)
        st = Status::ioError(std::strerror(errno));
    ins_.dev_busy_ns->add(nowNs() - t0);
    if (!st.isOk()) {
        ins_.countError();
        return st;
    }
    IoRequest req;
    req.op = IoRequest::Op::kWrite;
    req.length = length;
    ins_.account(stats_, req, length);
    return Status::ok();
}

Status
FileBackendBase::flush()
{
    if (::fdatasync(fd_) != 0)
        return Status::ioError(std::strerror(errno));
    return Status::ok();
}

// ---------------------------------------------------------------------------
// PosixFileBackend

PosixFileBackend::PosixFileBackend(const FileBackendOptions &opts)
    : FileBackendBase(opts, std::max(1, opts.workers))
{
    const int workers = std::max(1, opts.workers);
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; i++)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

PosixFileBackend::~PosixFileBackend()
{
    {
        std::lock_guard<std::mutex> lock(q_mu_);
        stop_.store(true, std::memory_order_release);
    }
    q_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

Status
PosixFileBackend::submit(std::span<const IoRequest> batch)
{
    PRISM_TRACE_SPAN_VAR(submit_span, "ssd.submit");
    submit_span.arg(PRISM_TRACE_NID("reqs"), batch.size());
    const Status vst = validateBatch(batch);
    if (!vst.isOk())
        return vst;

    std::vector<IoFault> faults;
    ins_.decideFaults(batch, faults);

    const uint64_t now = nowNs();
    inflight_.fetch_add(batch.size(), std::memory_order_acq_rel);
    ins_.inflight->add(static_cast<int64_t>(batch.size()));

    {
        std::lock_guard<std::mutex> lock(q_mu_);
        for (size_t i = 0; i < batch.size(); i++) {
            Job job;
            job.req = batch[i];
            job.forced = faults.empty() ? Status::ok() : faults[i].status;
            job.xfer = faults.empty() ? batch[i].length : faults[i].xfer;
            job.extra_ns = faults.empty() ? 0 : faults[i].extra_ns;
            job.submit_ns = now;
            // Bytes/ops are accounted at submission (matching the
            // simulator), with the fault-adjusted transfer size.
            ins_.account(stats_, job.req, job.xfer);
            queue_.push_back(std::move(job));
        }
    }
    if (batch.size() > 1)
        q_cv_.notify_all();
    else
        q_cv_.notify_one();
    return Status::ok();
}

void
PosixFileBackend::workerLoop(int worker_id)
{
    trace::TraceRegistry::global().setThreadName(
        "io" + std::to_string(ins_.dev) + "-posix-" +
        std::to_string(worker_id));
    std::vector<IoCompletion> done;
    std::unique_lock<std::mutex> lock(q_mu_);
    while (true) {
        if (queue_.empty()) {
            if (stop_.load(std::memory_order_acquire))
                return;
            q_cv_.wait(lock, [this] {
                return stop_.load(std::memory_order_acquire) ||
                       !queue_.empty();
            });
            continue;
        }
        Job job = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();

        if (job.extra_ns > 0)
            delayFor(job.extra_ns);
        Status st = job.forced;
        const uint64_t t0 = nowNs();
        if (job.xfer > 0) {
            PRISM_TRACE_SPAN("ssd.service");
            Status io_st;
            if (job.req.op == IoRequest::Op::kWrite) {
                io_st = fullPwrite(job.req.offset, job.req.src, job.xfer);
                if (io_st.isOk() && sync_each_write_ &&
                    ::fdatasync(fd_) != 0)
                    io_st = Status::ioError(std::strerror(errno));
            } else {
                io_st = fullPread(job.req.offset, job.req.buf, job.xfer);
            }
            // An injected outcome (torn write) wins over the syscall's;
            // a real failure surfaces when no fault was injected.
            if (st.isOk() && !io_st.isOk()) {
                st = io_st;
                ins_.countError();
            }
        }
        ins_.dev_busy_ns->add(nowNs() - t0);

        IoCompletion c;
        c.user_data = job.req.user_data;
        c.status = st;
        c.latency_ns = nowNs() - job.submit_ns;
        ins_.latency->record(c.latency_ns);
        done.push_back(c);
        deliver(done);

        lock.lock();
    }
}

}  // namespace prism::io
