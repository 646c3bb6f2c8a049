/**
 * @file
 * Simulated NVMe flash SSD — the timing-modelled io::IoBackend.
 *
 * Substitutes for the Samsung 980 PRO drives behind Prism's Value Storage
 * and the baselines' data files. The queue-pair surface (submission
 * batches in, completions reaped out) is no longer defined here: it is
 * the io::IoBackend contract in io/io_backend.h, which this device
 * implements alongside the real-file backends (io::PosixFileBackend,
 * io::UringBackend). Code above this layer — ValueStorage, ChunkWriter,
 * GC, ReadBatcher, the async API — holds an IoBackend and never knows
 * which one it got.
 *
 * What this implementation adds over the contract is the *timing model*:
 * the device has `internal_parallelism` service units; a request occupies
 * the earliest-free unit for (media latency + size / per-unit share of
 * device bandwidth), and a device-wide token bucket caps aggregate
 * bandwidth. This reproduces the behaviours the paper's design reacts
 * to: batching raises throughput but queues grow and tail latency rises
 * (§4.2, Fig 11), and aggregate bandwidth scales with the number of
 * devices (Fig 13).
 *
 * The device starts no thread. Its "interrupt" is one timerfd
 * (CLOCK_MONOTONIC, absolute time) set for the due time of the earliest
 * pending request: submit() re-arms it only when a new request is due
 * before the armed time, and the reaper that calls waitCompletions()
 * sleeps in ppoll() on it, so the kernel timer wakes the reaper directly
 * (one hop, and a timerfd expiry has no timer slack). A request is
 * delivered — its latency stamped, the inflight count dropped — when a
 * reaper takes it from the due-ordered queue.
 *
 * Data is stored in sparse in-process pages, so a multi-gigabyte device
 * only consumes memory for blocks actually written. Completed writes
 * survive a simulated crash; queued-but-incomplete ones may be lost.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/token_bucket.h"
#include "io/io_backend.h"
#include "sim/device_profile.h"

namespace prism::sim {

// Historical names, kept for the simulator-era call sites; the structs
// themselves live in io/io_backend.h and are shared by every backend.
using SsdIoRequest = io::IoRequest;
using SsdCompletion = io::IoCompletion;
using SsdStats = io::IoDeviceStats;

/** A single simulated NVMe SSD. */
class SsdDevice : public io::IoBackend {
  public:
    /**
     * CPU cost charged to the submitting thread per submit() call —
     * the io_uring_submit syscall plus SQE preparation. Batching
     * amortizes it, which is the CPU-efficiency side of §5.3.
     */
    static constexpr uint64_t kSubmitOverheadNs = 1500;

    /**
     * @param capacity_bytes device capacity (rounded up to a block).
     * @param profile        timing profile (default Samsung 980 Pro).
     * @param model_timing   when false, a request is due as soon as it
     *                       is submitted (useful for unit tests).
     */
    explicit SsdDevice(uint64_t capacity_bytes,
                       const DeviceProfile &profile = kSamsung980ProProfile,
                       bool model_timing = true);
    ~SsdDevice() override;

    SsdDevice(const SsdDevice &) = delete;
    SsdDevice &operator=(const SsdDevice &) = delete;

    uint64_t capacity() const override { return capacity_; }
    const DeviceProfile &profile() const { return profile_; }

    using IoBackend::submit;

    /**
     * Submit a batch of requests (the io_uring_submit analogue).
     * Data is transferred atomically per request; the completion is
     * delivered to the first reaper that polls once the modelled device
     * time has elapsed.
     */
    Status submit(std::span<const SsdIoRequest> batch) override;

    size_t pollCompletions(std::vector<SsdCompletion> &out,
                           size_t max) override;
    size_t waitCompletions(std::vector<SsdCompletion> &out, size_t max,
                           uint64_t timeout_us) override;

    /** Synchronous read helper (modelled blocking pread). */
    Status readSync(uint64_t offset, void *buf, uint32_t length) override;

    /** Synchronous write helper. */
    Status writeSync(uint64_t offset, const void *src,
                     uint32_t length) override;

    uint64_t inflight() const override {
        return inflight_.load(std::memory_order_acquire);
    }

    /**
     * Simulated power failure: pending (incomplete) requests are dropped.
     * Written data from completed requests is retained, mirroring a real
     * device's durability contract at completion time.
     */
    void simulateCrash();

    /** Discard all device contents (mkfs analogue). */
    void eraseAll();

    /**
     * Copy the entire device image into @p out (crash-test harness).
     * Concurrent writers make the copy fuzzy at page granularity, so
     * call it quiesced or treat races as crash-equivalent noise.
     */
    void snapshotTo(std::vector<uint8_t> &out);

    /**
     * Replace the device contents with a previously captured image. Its
     * all-zero pages allocate no memory, so a mostly-empty image loads
     * sparse.
     */
    void loadFrom(const std::vector<uint8_t> &image);

    SsdStats &stats() override { return stats_; }
    void setModelTiming(bool on) { model_timing_ = on; }

    int deviceNumber() const override { return ins_.dev; }
    bool healthy() const override { return ins_.healthy(); }
    void setDropout(bool on) override { ins_.setDropout(on); }
    std::string_view kind() const override { return "sim"; }

  private:
    static constexpr uint64_t kPageSize = 256 * 1024;
    static constexpr uint64_t kDisarmed = UINT64_MAX;

    struct Pending {
        uint64_t due_ns;
        uint64_t submit_ns;
        uint64_t start_ns = 0;   ///< when a channel picked the request up
        uint32_t channel = 0;    ///< which channel served it
        uint64_t trace_id = 0;   ///< queue-wait pairing id; FIFO tiebreak
        SsdCompletion completion;

        bool operator>(const Pending &o) const
        {
            return due_ns != o.due_ns ? due_ns > o.due_ns
                                      : trace_id > o.trace_id;
        }
    };

    uint8_t *pageFor(uint64_t page_index, bool allocate);
    void copyIn(uint64_t offset, const void *src, uint32_t len);
    void copyOut(uint64_t offset, void *dst, uint32_t len);
    uint64_t serviceTimeNs(const SsdIoRequest &req, uint64_t now);
    /** Set the timer to fire at @p due_ns (kDisarmed stops it). Needs
     *  sq_mu_. Setting it also clears an expiry nobody has consumed. */
    void setTimer(uint64_t due_ns);

    uint64_t capacity_;
    DeviceProfile profile_;
    std::atomic<bool> model_timing_;

    // Sparse backing store.
    std::vector<std::atomic<uint8_t *>> pages_;
    std::mutex page_alloc_mu_;

    // Channel timing model (guarded by sq_mu_).
    std::mutex sq_mu_;
    std::vector<uint64_t> channel_free_at_;
    std::unique_ptr<TokenBucket> read_bw_;
    std::unique_ptr<TokenBucket> write_bw_;

    // Submitted, unreaped requests ordered by due time, and the timer
    // set for the head's due time (guarded by sq_mu_). The timerfd is
    // readable exactly when armed_ns_ has passed, i.e. while a request
    // is due and unreaped.
    std::priority_queue<Pending, std::vector<Pending>, std::greater<>>
        pending_;
    int timer_fd_ = -1;
    uint64_t armed_ns_ = kDisarmed;

    std::atomic<uint64_t> inflight_{0};

    SsdStats stats_;

    // Registry metrics, per-device series, fault sites and dropout
    // state — the observability kit shared by every backend (see
    // io::DeviceInstruments). busy_ns accumulates channel service time,
    // so utilization over a window is Δbusy ÷ (window × channels).
    io::DeviceInstruments ins_;

    // Tracing: one synthetic trace track per internal channel (service
    // spans are serialized per channel, so they render as
    // non-overlapping "X" events), and a sequence for pairing
    // queue-wait begin/end events.
    std::vector<uint16_t> trace_channel_tracks_;
    std::atomic<uint64_t> trace_req_seq_{0};
};

}  // namespace prism::sim
