#include "io/io_backend.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "common/clock.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/logging.h"
#include "io/file_backend.h"
#include "io/uring_backend.h"

namespace prism::io {

namespace {
/** Process-wide device numbering across all backend kinds. */
std::atomic<int> g_device_seq{0};
}  // namespace

DeviceInstruments::DeviceInstruments(int channels)
{
    dev = g_device_seq.fetch_add(1, std::memory_order_relaxed);
    auto &reg = stats::StatsRegistry::global();
    bytes_read = &reg.counter("sim.ssd.bytes_read", "bytes");
    bytes_written = &reg.counter("sim.ssd.bytes_written", "bytes");
    read_ops = &reg.counter("sim.ssd.read_ops", "ops");
    write_ops = &reg.counter("sim.ssd.write_ops", "ops");
    io_errors = &reg.counter("sim.ssd.io_errors", "ops");
    inflight = &reg.gauge("sim.ssd.inflight", "reqs");
    latency = &reg.histogram("sim.ssd.latency_ns", "ns");
    const std::string devp = "sim.ssd." + std::to_string(dev) + ".";
    dev_bytes_read = &reg.counter(devp + "bytes_read", "bytes");
    dev_bytes_written = &reg.counter(devp + "bytes_written", "bytes");
    dev_busy_ns = &reg.counter(devp + "busy_ns", "ns");
    dev_io_errors = &reg.counter(devp + "io_errors", "ops");
    reg.gauge(devp + "channels", "channels")
        .set(static_cast<int64_t>(std::max(1, channels)));
    auto &freg = fault::FaultRegistry::global();
    const std::string faultp = "ssd." + std::to_string(dev) + ".";
    fs_io_error = freg.siteId(faultp + "io_error");
    fs_torn_write = freg.siteId(faultp + "torn_write");
    fs_latency = freg.siteId(faultp + "latency");
    fs_dropout = freg.siteId(faultp + "dropout");
}

bool
DeviceInstruments::healthy() const
{
    const uint64_t until = dropout_until.load(std::memory_order_relaxed);
    return until == 0 || nowNs() >= until;
}

void
DeviceInstruments::setDropout(bool on)
{
    dropout_until.store(on ? UINT64_MAX : 0, std::memory_order_relaxed);
}

void
DeviceInstruments::countError()
{
    io_errors->inc();
    dev_io_errors->inc();
}

bool
DeviceInstruments::decideFaults(std::span<const IoRequest> batch,
                                std::vector<IoFault> &out)
{
    if (!fault::enabled() &&
        dropout_until.load(std::memory_order_relaxed) == 0)
        return false;
    out.resize(batch.size());
    auto &freg = fault::FaultRegistry::global();
    for (size_t i = 0; i < batch.size(); i++) {
        const auto &req = batch[i];
        IoFault &f = out[i];
        f.status = Status::ok();
        f.xfer = req.length;
        f.extra_ns = 0;
        const bool is_write = req.op == IoRequest::Op::kWrite;
        uint64_t payload = 0;
        if (is_write && fault::enabled() &&
            freg.shouldFire(fs_dropout, &payload)) {
            dropout_until.store(payload == 0 ? UINT64_MAX
                                             : nowNs() + payload,
                                std::memory_order_relaxed);
        }
        if (is_write && !healthy()) {
            f.status = Status::ioError("device dropout");
            f.xfer = 0;
        } else if (fault::enabled() && freg.shouldFire(fs_io_error)) {
            f.status = Status::ioError("injected I/O error");
            f.xfer = 0;
        } else if (is_write && fault::enabled() &&
                   freg.shouldFire(fs_torn_write, &payload)) {
            // Torn multi-page write: a prefix reaches the medium
            // (payload bytes, default half the request rounded to 8),
            // then the request errors out.
            f.status = Status::ioError("injected torn write");
            f.xfer = payload != 0
                         ? static_cast<uint32_t>(
                               std::min<uint64_t>(payload, req.length))
                         : (req.length / 2) & ~7u;
        }
        if (fault::enabled() && freg.shouldFire(fs_latency, &payload))
            f.extra_ns = payload != 0 ? payload : 2'000'000;
        if (!f.status.isOk())
            countError();
    }
    return true;
}

Status
DeviceInstruments::syncFaultCheck(bool is_write)
{
    if (is_write && !healthy())
        return Status::ioError("device dropout");
    if (fault::enabled() &&
        fault::FaultRegistry::global().shouldFire(fs_io_error)) {
        countError();
        return Status::ioError("injected I/O error");
    }
    return Status::ok();
}

void
DeviceInstruments::account(IoDeviceStats &s, const IoRequest &req,
                           uint32_t xfer)
{
    if (req.op == IoRequest::Op::kWrite) {
        s.bytes_written.fetch_add(xfer, std::memory_order_relaxed);
        s.write_ops.fetch_add(1, std::memory_order_relaxed);
        bytes_written->add(xfer);
        dev_bytes_written->add(xfer);
        write_ops->inc();
    } else {
        s.bytes_read.fetch_add(xfer, std::memory_order_relaxed);
        s.read_ops.fetch_add(1, std::memory_order_relaxed);
        bytes_read->add(xfer);
        dev_bytes_read->add(xfer);
        read_ops->inc();
    }
}

const char *
backendKindName(IoBackendKind kind)
{
    switch (kind) {
      case IoBackendKind::kSim: return "sim";
      case IoBackendKind::kPosix: return "posix";
      case IoBackendKind::kUring: return "uring";
    }
    return "sim";
}

IoBackendKind
resolveBackendKind(std::string_view selector)
{
    std::string sel(selector);
    if (sel.empty()) {
        const char *env = std::getenv("PRISM_IO_BACKEND");
        if (env != nullptr)
            sel = env;
    }
    if (sel.empty() || sel == "sim")
        return IoBackendKind::kSim;
    if (sel == "posix")
        return IoBackendKind::kPosix;
    if (sel == "uring")
        return IoBackendKind::kUring;
    if (sel == "auto")
        return uringAvailable() ? IoBackendKind::kUring
                                : IoBackendKind::kPosix;
    fatal("unknown I/O backend \"%s\" (want sim|posix|uring|auto)",
          sel.c_str());
    return IoBackendKind::kSim;
}

std::string
resolveBackendDir(std::string_view dir)
{
    if (!dir.empty())
        return std::string(dir);
    const char *env = std::getenv("PRISM_IO_DIR");
    if (env != nullptr && env[0] != '\0')
        return env;
    return "/tmp/prism-io";
}

std::shared_ptr<IoBackend>
createFileBackend(IoBackendKind kind, const FileBackendOptions &opts)
{
    PRISM_CHECK(kind != IoBackendKind::kSim &&
                "sim devices are constructed directly (sim::SsdDevice)");
    if (kind == IoBackendKind::kUring) {
        if (uringAvailable())
            return std::make_shared<UringBackend>(opts);
        PRISM_LOG_WARN("io.uring_fallback",
                       "io_uring unavailable on this kernel; falling "
                       "back to the posix backend for %s",
                       opts.path.c_str());
    }
    return std::make_shared<PosixFileBackend>(opts);
}

std::vector<std::shared_ptr<IoBackend>>
createFileBackendSet(IoBackendKind kind, const std::string &dir, int count,
                     uint64_t capacity_bytes)
{
    makeBackendDir(dir);
    std::vector<std::shared_ptr<IoBackend>> out;
    static std::atomic<int> file_seq{0};
    for (int i = 0; i < count; i++) {
        FileBackendOptions o;
        o.path = dir + "/prism-ssd-" +
                 std::to_string(static_cast<long>(::getpid())) + "-" +
                 std::to_string(file_seq.fetch_add(
                     1, std::memory_order_relaxed)) +
                 ".img";
        o.capacity_bytes = capacity_bytes;
        out.push_back(createFileBackend(kind, o));
    }
    return out;
}

}  // namespace prism::io
