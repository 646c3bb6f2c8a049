/**
 * @file
 * prism::telemetry — continuous windowed time-series sampling on top of
 * the stats registry, with per-subsystem resource attribution.
 *
 * PR 1's registry answers "what are the totals now" and PR 3's tracer
 * answers "what did this operation do"; neither answers "how did rates
 * evolve over the run" or "who was using the CPU and the devices during
 * that stall". This module does: a sampler (its own thread, or driven
 * manually by tests/CLI) periodically snapshots the registry and folds
 * each window into a fixed-capacity ring of *interval* records:
 *
 *  - every counter becomes a per-window delta (a rate series),
 *  - every gauge/occupancy (PWB ring fill, SVC bytes, SSD queue depth,
 *    bg-pool backlog) becomes a time series of instantaneous values,
 *  - every latency histogram becomes an interval summary (only the
 *    samples recorded inside the window, via Histogram::subtract),
 *  - tracer span self-time becomes per-layer busy-ns
 *    (core/pwb/svc/vs/ssd/bg — populated while tracing is enabled),
 *  - per-device `sim.ssd.<n>.*` counters become per-device read/write
 *    byte deltas and a utilization estimate
 *    (busy ÷ window × channels).
 *
 * The ring is bounded (`setCapacity`, default 600 windows ≈ 1 minute at
 * the 100 ms default interval) and sampling is entirely read-side: the
 * hot paths of the instrumented engines are untouched, so the sampler's
 * cost is one registry snapshot per interval regardless of op rate.
 *
 * Consumers: `ShardRouter::telemetry()` (started via
 * `PrismOptions::telemetry_interval_ms`), every bench's
 * `--telemetry=<file>` flag, `prism_cli top`, and
 * `scripts/telemetry_report.py` which renders the exported JSON
 * (`exportSeriesJson[ToFile]`) into a self-contained HTML report. See
 * docs/OBSERVABILITY.md, "Time series & resource attribution".
 */
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"

namespace prism::telemetry {

/** One counter's activity inside a window. */
struct CounterPoint {
    std::string name;
    uint64_t delta = 0;  ///< counter increase across the window
};

/** One gauge's value at the window's end. */
struct GaugePoint {
    std::string name;
    int64_t value = 0;
};

/** One latency histogram's interval summary (window samples only). */
struct HistPoint {
    std::string name;
    uint64_t count = 0;
    double mean = 0.0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;
};

/** One simulated device's activity inside a window. */
struct DevicePoint {
    std::string name;            ///< "ssd0", "ssd1", ...
    uint64_t read_bytes = 0;
    uint64_t written_bytes = 0;
    double util = 0.0;  ///< busy-ns ÷ (window × channels), may round >1
};

/** One sampling window: everything that happened between two ticks. */
struct TelemetrySample {
    uint64_t seq = 0;    ///< monotonic window number (survives wrap)
    uint64_t t0_ns = 0;  ///< window start (previous tick)
    uint64_t t1_ns = 0;  ///< window end (this tick)

    std::vector<CounterPoint> counters;  ///< registry order (sorted)
    std::vector<GaugePoint> gauges;
    std::vector<HistPoint> hists;

    /** Tracer self-time per layer inside this window (trace::Layer). */
    std::array<uint64_t, trace::kNumLayers> layer_busy_ns{};

    std::vector<DevicePoint> devices;

    double dtSeconds() const {
        return static_cast<double>(t1_ns - t0_ns) / 1e9;
    }

    /** Counter delta by exact name; 0 when absent. */
    uint64_t counterDelta(std::string_view name) const;

    /** Counter delta ÷ window length, per second; 0 for empty window. */
    double counterRate(std::string_view name) const;

    /** Gauge value by exact name; 0 when absent. */
    int64_t gauge(std::string_view name) const;
};

/**
 * The process-wide sampler + ring. All methods are thread-safe; the
 * sampler thread is off by default and costs nothing until start().
 */
class Telemetry {
  public:
    static Telemetry &global();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** Ring capacity in windows (min 2). Applies immediately; shrinking
     *  drops the oldest windows. */
    void setCapacity(size_t windows);
    size_t capacity() const;

    /**
     * Start the sampler thread at @p interval_ms (min 1). Idempotent:
     * returns false (and changes nothing) if already running. The
     * first tick primes the baseline; windows appear from the second
     * tick on.
     */
    bool start(uint64_t interval_ms);

    /** Stop and join the sampler thread. Idempotent. The recorded
     *  series is kept (export after stop is the normal pattern). */
    void stop();

    bool running() const { return running_.load(std::memory_order_acquire); }
    uint64_t intervalMs() const {
        return interval_ms_.load(std::memory_order_relaxed);
    }

    /**
     * Take one sample now on the calling thread (the sampler thread's
     * tick, also the manual-drive path for tests and `prism_cli top`).
     * The first call after clear()/construction only primes the
     * baseline and records nothing. Returns the number of windows
     * recorded so far.
     */
    uint64_t sampleNow();

    /** Drop the series and the baseline (capacity/probes survive). */
    void clear();

    /**
     * Register a hook invoked at the start of every sample tick —
     * the publish point for occupancy gauges that are derived rather
     * than maintained (ShardRouter uses this for PWB fill / SVC bytes).
     * Returns an id for removeProbe. The hook must not call back into
     * Telemetry.
     */
    int addProbe(std::function<void()> fn);

    /** Unregister a probe. Blocks until any in-flight tick is done, so
     *  on return the probe will never run again (safe-teardown). */
    void removeProbe(int id);

    /** Copy of the ring, oldest window first. */
    std::vector<TelemetrySample> series() const;

    /** Number of windows currently in the ring. */
    size_t sampleCount() const;

    /**
     * Columnar JSON export of the whole ring (schema
     * "prism.telemetry.v1"; see docs/OBSERVABILITY.md). Counter deltas
     * are exact integers; rates are delta ÷ dt_s client-side.
     */
    std::string exportSeriesJson() const;

    /** exportSeriesJson() to a file; returns false on I/O error. */
    bool exportSeriesJsonToFile(const std::string &path) const;

    /** Inject a deterministic clock (tests). nullptr restores nowNs. */
    void setClockForTest(uint64_t (*clock_fn)());

  private:
    Telemetry() = default;

    void samplerLoop();
    uint64_t now() const;

    /** Serializes whole sample ticks (manual vs sampler thread). */
    mutable std::mutex sample_mu_;
    /** Guards ring_, probes_, capacity_ (readers vs the tick). */
    mutable std::mutex mu_;

    std::deque<TelemetrySample> ring_;
    size_t capacity_ = 600;
    uint64_t next_seq_ = 0;

    // Baseline for the next window (sample_mu_).
    bool has_prev_ = false;
    uint64_t prev_t_ns_ = 0;
    stats::StatsSnapshot prev_;
    std::array<uint64_t, trace::kNumLayers> prev_layer_{};

    std::map<int, std::function<void()>> probes_;
    int next_probe_id_ = 1;

    std::atomic<uint64_t (*)()> clock_{nullptr};

    // Sampler thread lifecycle.
    std::mutex ctl_mu_;  ///< serializes start()/stop()
    std::thread sampler_;
    std::mutex run_mu_;
    std::condition_variable run_cv_;
    bool stop_requested_ = false;
    std::atomic<bool> running_{false};
    std::atomic<uint64_t> interval_ms_{0};
};

}  // namespace prism::telemetry
