/**
 * @file
 * IoBackend — the device contract behind every Value Storage.
 *
 * Prism's data path only ever talks to a device through an io_uring-like
 * queue pair: submit a batch of read/write requests, reap completions.
 * This header extracts that contract out of the simulator so the same
 * ValueStorage / ChunkWriter / GC / ReadBatcher code runs against three
 * interchangeable implementations (docs/IO_BACKENDS.md):
 *
 *   - prism::sim::SsdDevice   — the timing-modelled simulator (default)
 *   - prism::io::UringBackend — real files via raw io_uring syscalls,
 *                               behind a runtime capability probe
 *   - prism::io::PosixFileBackend — real files via a pread/pwrite
 *                               worker pool (works on any kernel)
 *
 * ## Contract
 *
 * Thread safety: every method may be called from any thread, and
 * submit()/pollCompletions()/waitCompletions() may race freely. A
 * typical deployment has many submitters (client threads, the chunk
 * writer, GC) and one reaper (the Value Storage completion thread), but
 * the backend must not assume a single reaper.
 *
 * Completion ordering: NONE is guaranteed, neither across batches nor
 * within one batch. Callers identify requests solely by `user_data`,
 * which is returned verbatim in the completion. Every accepted request
 * produces exactly one completion; a submit() that returns an error
 * produced no completions for any request of that batch.
 *
 * Data lifetime: request buffers (`buf`/`src`) must stay valid until the
 * request's completion has been reaped. The simulator copies data at
 * submission; the file backends DMA/read into the caller's buffer from a
 * worker or the kernel, so this is a hard requirement, not a formality.
 *
 * Error model: per-request failures (injected faults, a dropped-out
 * device, a real syscall error) are reported in the *completion* status,
 * never as a submit() error. submit() itself fails only for malformed
 * requests (zero length, beyond capacity), in which case the whole batch
 * is rejected atomically. Reads that complete with an error transferred
 * nothing; torn writes transferred a prefix (see common/fault.h).
 *
 * Durability: a completed write is durable to the *backend's* medium
 * contract — the simulator's backing pages, or the file's page cache.
 * flush() forces file-backed data down (fdatasync); the simulator's is a
 * no-op. Prism's crash-consistency story (docs/FAULTS.md) is built on
 * the simulator's completion-equals-durable model.
 *
 * Observability: all backends register the same process-wide stats
 * families ("sim.ssd.*" — the prefix is historical; it covers every
 * IoBackend device), per-device series ("sim.ssd.<n>.*") and fault
 * sites ("ssd.<n>.io_error" / "torn_write" / "latency" / "dropout"),
 * via DeviceInstruments below. /metrics, `prism_cli top`, the error
 * budget and the fault harness therefore observe real files exactly
 * like simulated devices.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/status.h"

namespace prism::io {

/** One submission-queue entry. */
struct IoRequest {
    enum class Op : uint8_t { kRead, kWrite };

    Op op = Op::kRead;
    uint64_t offset = 0;       ///< byte offset on the device
    uint32_t length = 0;       ///< transfer size in bytes
    void *buf = nullptr;       ///< destination (reads)
    const void *src = nullptr; ///< source (writes)
    uint64_t user_data = 0;    ///< opaque tag returned in the completion
};

/** One completion-queue entry. */
struct IoCompletion {
    uint64_t user_data = 0;
    Status status;
    uint64_t latency_ns = 0;   ///< submit-to-complete latency
};

/** Host-visible I/O counters (used for the WAF experiment, Fig. 12). */
struct IoDeviceStats {
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> bytes_written{0};
    std::atomic<uint64_t> read_ops{0};
    std::atomic<uint64_t> write_ops{0};
};

/** Queue-pair device interface (contract in the file header). */
class IoBackend {
  public:
    static constexpr uint64_t kBlockSize = 4096;

    virtual ~IoBackend() = default;

    /** Submit a batch (the io_uring_submit analogue). */
    virtual Status submit(std::span<const IoRequest> batch) = 0;

    /** Submit a single request. */
    Status submit(const IoRequest &req) { return submit({&req, 1}); }

    /**
     * Drain up to @p max completions into @p out (appended).
     * @return number of completions reaped (may be 0).
     */
    virtual size_t pollCompletions(std::vector<IoCompletion> &out,
                                   size_t max) = 0;

    /**
     * Block until at least one completion is available or @p timeout_us
     * elapses, then drain like pollCompletions.
     */
    virtual size_t waitCompletions(std::vector<IoCompletion> &out,
                                   size_t max, uint64_t timeout_us) = 0;

    /** Synchronous read helper (blocking pread analogue). */
    virtual Status readSync(uint64_t offset, void *buf, uint32_t length) = 0;

    /** Synchronous write helper. */
    virtual Status writeSync(uint64_t offset, const void *src,
                             uint32_t length) = 0;

    /** Force completed writes down to the medium (fdatasync analogue). */
    virtual Status flush() { return Status::ok(); }

    virtual uint64_t capacity() const = 0;

    /** Number of submitted-but-not-reaped requests. */
    virtual uint64_t inflight() const = 0;

    /** True when the device has no in-flight requests (idle selection). */
    bool isIdle() const { return inflight() == 0; }

    /**
     * True when the device accepts writes. A dropout (setDropout or the
     * "ssd.<n>.dropout" fault site) fails every write with an I/O-error
     * completion until it ends; reads still succeed, like a drive whose
     * write path died but whose media is readable.
     */
    virtual bool healthy() const = 0;

    /** Force (or clear) a dropout. Fault payload = duration in ns. */
    virtual void setDropout(bool on) = 0;

    /** Process-wide device number (the <n> in sim.ssd.<n>.* metrics). */
    virtual int deviceNumber() const = 0;

    virtual IoDeviceStats &stats() = 0;

    /** Backend kind for logs and bench rows: "sim", "posix", "uring". */
    virtual std::string_view kind() const = 0;
};

/** Per-request injected-fault decision (see DeviceInstruments). */
struct IoFault {
    Status status;         ///< completion status (ok = no fault)
    uint32_t xfer = 0;     ///< bytes actually transferred
    uint64_t extra_ns = 0; ///< added service latency
};

/**
 * The shared observability kit every backend construction claims: a
 * process-wide device number, the registry counter families, per-device
 * series, the per-device fault sites, and the dropout state plus the
 * fault-decision pass that consults them. Factoring it here is what
 * keeps the stats, fault schedules and error budget working identically
 * on simulated and real devices.
 */
struct DeviceInstruments {
    /** @param channels published as the "sim.ssd.<n>.channels" gauge —
     *  the denominator of per-device utilization (`prism_cli top`). */
    explicit DeviceInstruments(int channels);

    DeviceInstruments(const DeviceInstruments &) = delete;
    DeviceInstruments &operator=(const DeviceInstruments &) = delete;

    int dev = 0;  ///< process-wide device number

    // Shared-by-name families: totals aggregate across devices.
    stats::Counter *bytes_read;
    stats::Counter *bytes_written;
    stats::Counter *read_ops;
    stats::Counter *write_ops;
    stats::Counter *io_errors;
    stats::Gauge *inflight;
    stats::LatencyStat *latency;

    // Per-device series ("sim.ssd.<n>.*"): two snapshots' deltas give
    // per-device bandwidth and utilization (busy ÷ window × channels).
    stats::Counter *dev_bytes_read;
    stats::Counter *dev_bytes_written;
    stats::Counter *dev_busy_ns;
    stats::Counter *dev_io_errors;

    // Per-device fault sites ("ssd.<n>.io_error" etc., common/fault.h);
    // ids interned once here. dropout_until is the monotonic-ns deadline
    // of an active dropout (0 = none, UINT64_MAX = until cleared).
    uint32_t fs_io_error = 0;
    uint32_t fs_torn_write = 0;
    uint32_t fs_latency = 0;
    uint32_t fs_dropout = 0;
    std::atomic<uint64_t> dropout_until{0};

    bool healthy() const;
    void setDropout(bool on);

    /** Count one errored request (family + per-device counters). */
    void countError();

    /**
     * Fault-decision pass over a batch. Cheap no-op (returns false,
     * leaves @p out empty) unless a fault site is armed or a dropout is
     * active. Each request may fail with an error completion (no
     * transfer), tear (prefix transferred, error completion — writes
     * only), or pick up extra service latency. Errors are counted here.
     */
    bool decideFaults(std::span<const IoRequest> batch,
                      std::vector<IoFault> &out);

    /** Fault check for the synchronous helpers (one request, no tear). */
    Status syncFaultCheck(bool is_write);

    /** Account one request's transfer into @p s and the registry. */
    void account(IoDeviceStats &s, const IoRequest &req, uint32_t xfer);
};

/** Selectable backend kinds (docs/IO_BACKENDS.md). */
enum class IoBackendKind {
    kSim,    ///< simulated SSD (sim::SsdDevice)
    kPosix,  ///< real file, pread/pwrite worker pool
    kUring,  ///< real file, raw io_uring
};

/**
 * Resolve a backend selector string to a kind. Accepts "sim", "posix",
 * "uring" and "auto" (uring when the kernel supports it, else posix).
 * An empty selector falls back to $PRISM_IO_BACKEND, then to "sim".
 * Unknown selectors abort with a diagnostic.
 */
IoBackendKind resolveBackendKind(std::string_view selector);

/**
 * Resolve a backing-file directory for the real-file backends. An empty
 * @p dir falls back to $PRISM_IO_DIR, then to "/tmp/prism-io".
 */
std::string resolveBackendDir(std::string_view dir);

const char *backendKindName(IoBackendKind kind);

/**
 * Runtime io_uring capability probe: one io_uring_setup syscall,
 * cached. False when the kernel lacks it or seccomp blocks it
 * (ENOSYS/EPERM) — callers fall back to the POSIX backend.
 */
bool uringAvailable();

/** Configuration for the file-backed backends. */
struct FileBackendOptions {
    std::string path;            ///< backing file (created if absent)
    uint64_t capacity_bytes = 0;
    int workers = 4;             ///< POSIX backend I/O threads
    bool sync_each_write = false;///< fdatasync inside every write
};

/**
 * Create a file-backed device of the given kind (kPosix or kUring;
 * kUring falls back to kPosix with a warning when the probe fails).
 */
std::shared_ptr<IoBackend> createFileBackend(IoBackendKind kind,
                                             const FileBackendOptions &opts);

/**
 * Convenience for fixtures: create @p count devices of @p kind backed
 * by files under @p dir (created if needed, names unique per process).
 */
std::vector<std::shared_ptr<IoBackend>>
createFileBackendSet(IoBackendKind kind, const std::string &dir, int count,
                     uint64_t capacity_bytes);

}  // namespace prism::io
