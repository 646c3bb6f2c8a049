/**
 * @file
 * prism::trace — process-wide, lock-free operation tracing.
 *
 * Every instrumented thread owns a fixed-size binary ring of events;
 * recording an event when tracing is enabled is a handful of relaxed
 * atomic stores plus one release bump of the ring head, and a single
 * relaxed load + branch when disabled. Spans are scoped (RAII) and nest
 * via a per-thread depth counter; the exporter reconstructs the tree
 * from (timestamp, duration) containment, which is exactly the Chrome
 * trace-event "X" (complete event) model, so a dump opens directly in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing.
 *
 * Why rings of *words* and not structs: the exporter snapshots rings
 * that other threads may still be writing. Every slot word is a relaxed
 * std::atomic<uint64_t>, so a torn read yields a stale/garbled event —
 * which the exporter then drops via validation — never UB or a TSan
 * report. Event names are interned to small ids for the same reason: a
 * reader can never chase a dangling const char*.
 *
 * On top of the rings sits slow-op capture: ops (put/get/scan/...)
 * whose wall time exceeds a threshold get their span tree copied out of
 * the owner's ring into a bounded keep-worst buffer, giving always-on
 * tail-latency attribution with no steady-state cost beyond the ring
 * writes themselves.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/thread_util.h"

namespace prism::trace {

/** Event kinds; values appear packed into ring words. */
enum class EventType : uint8_t {
    kSpan = 1,         ///< Chrome "X": ts + dur
    kInstant = 2,      ///< Chrome "i"
    kAsyncBegin = 3,   ///< Chrome "b" (overlapping interval start)
    kAsyncEnd = 4,     ///< Chrome "e"
};

/**
 * Subsystem layers CPU time is attributed to. Every interned span name
 * is classified once (by prefix, at intern time); when tracing is on,
 * each closing span adds its *self* time — duration minus the time
 * spent in already-accounted child spans — to its layer's busy
 * counter. Self-time accounting is what makes the per-layer sums
 * comparable to wall-clock × threads: a nested pwb.chunk_write second
 * is pwb time, not additionally bg time.
 */
enum class Layer : uint8_t {
    kCore = 0,  ///< prism.* op paths + hsit.*
    kPwb,       ///< pwb.* (append/stall/reclaim/chunk writes)
    kSvc,       ///< svc.*
    kVs,        ///< vs.* (value storage + GC)
    kSsd,       ///< ssd.* (submit-side CPU; device time is separate)
    kBg,        ///< bg.* (pool dispatch overhead outside subsystem work)
    kOther,     ///< pmem.*, benches, anything unclassified
};

constexpr size_t kNumLayers = 7;

/** Stable lowercase layer name ("core", "pwb", ...). */
const char *layerName(size_t layer);

/** Classify a span name by prefix. */
Layer layerOfSpanName(std::string_view name);

/**
 * Cumulative self-time attributed to @p layer across all threads, in
 * ns. Monotonic; only grows while tracing is enabled. publishStats()
 * exports it as the prism.trace.busy_ns.<layer> gauges, whose deltas
 * `prism_cli top` shows as busy cores per layer.
 */
uint64_t layerBusyNs(size_t layer);

/** A decoded event (snapshot/export side only). */
struct Event {
    uint64_t ts_ns = 0;
    uint64_t dur_ns = 0;
    uint32_t name_id = 0;
    uint8_t depth = 0;
    EventType type = EventType::kSpan;
    /**
     * 0 = the emitting thread's own track. Non-zero places the event on
     * a synthetic track (e.g. per-SSD-channel service timelines whose
     * events are emitted by the thread that reaps the device but belong
     * on the channel's own row).
     */
    uint16_t track = 0;
    uint32_t arg1_name_id = 0;  ///< 0 = no arg
    uint32_t arg2_name_id = 0;
    uint64_t arg1 = 0;          ///< for async events: pairing id
    uint64_t arg2 = 0;
};

namespace detail {

/**
 * Words per ring slot (one cache line). Word 0 is a per-slot seqlock:
 * 0 while the owner is writing, event_index+1 once published, so a
 * concurrent snapshot can detect and drop mid-overwrite slots.
 */
constexpr size_t kSlotWords = 8;

/**
 * Global enable flags, checked (one relaxed load) by every macro.
 * Bit 0: ring recording on. Bit 1: slow-op capture on. Bit 2: layer
 * tracking on (spans maintain t_cur_layer/t_cur_leaf without emitting
 * events — armed by the CPU/lock profilers, prism::prof).
 */
extern std::atomic<uint32_t> g_flags;

constexpr uint32_t kFlagTracing = 1u;
constexpr uint32_t kFlagSlowOp = 2u;
constexpr uint32_t kFlagLayerTrack = 4u;

inline bool tracingEnabled() {
    return (g_flags.load(std::memory_order_relaxed) & kFlagTracing) != 0;
}
inline bool anythingEnabled() {
    return g_flags.load(std::memory_order_relaxed) != 0;
}

/** Per-thread span nesting depth (no atomicity needed). */
extern thread_local uint32_t t_depth;

/**
 * The calling thread's innermost open span (interned name id, 0 =
 * none) and its layer, maintained by Span/OpScope whenever layer
 * tracking is armed. Plain TLS words so the SIGPROF sampling handler
 * (prism::prof) can read them async-signal-safely to key CPU samples
 * by layer/span.
 */
extern thread_local uint32_t t_cur_leaf;
extern thread_local uint8_t t_cur_layer;

/** Layer of an interned name id (relaxed table lookup). */
Layer layerOfId(uint32_t name_id);

/**
 * Arm/disarm layer tracking (kFlagLayerTrack). Independent of
 * setEnabled(): the profilers key samples by layer without paying for
 * event recording.
 */
void setLayerTracking(bool on);

/**
 * Close-of-span bookkeeping for per-layer CPU attribution: charges
 * `dur - time already charged to children at depth` to the span's
 * layer and rolls `dur` up into the parent's child accumulator.
 */
void accountSpanSelf(uint32_t name_id, uint8_t depth, uint64_t dur_ns);

}  // namespace detail

/**
 * One thread's event ring. Single writer (the owning thread); any
 * thread may snapshot concurrently. Capacity is a power of two; the
 * head is a monotonic event count, so head > capacity means the ring
 * wrapped and the oldest (head - capacity) events were overwritten.
 */
class TraceRing {
  public:
    explicit TraceRing(size_t capacity_events);

    /** Owner-only. Encodes and publishes one event. */
    void emit(EventType type, uint32_t name_id, uint64_t ts_ns,
              uint64_t dur_ns, uint8_t depth, uint16_t track,
              uint32_t arg1_name, uint64_t arg1, uint32_t arg2_name,
              uint64_t arg2);

    /** Monotonic number of events ever emitted. */
    uint64_t head() const { return head_.load(std::memory_order_acquire); }

    size_t capacity() const { return capacity_; }

    /**
     * Copy out the newest events (up to the full ring), oldest first.
     * Safe against a concurrent writer: slots that may be mid-overwrite
     * are skipped via sequence validation.
     */
    void snapshot(std::vector<Event> &out) const;

  private:
    size_t capacity_;     ///< power of two, in events
    size_t mask_;
    std::unique_ptr<std::atomic<uint64_t>[]> words_;
    std::atomic<uint64_t> head_{0};
};

/** A captured slow operation: root span + its subtree of events. */
struct SlowOp {
    std::string op;          ///< root span name, e.g. "prism.put"
    int tid = 0;             ///< dense ThreadId of the emitting thread
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    bool truncated = false;  ///< subtree exceeded the copy bound
    std::vector<Event> events;  ///< root first, then children in ts order
};

/**
 * Process-wide tracer: owns the name-intern table, the per-thread
 * rings, thread/track names, and the slow-op buffer.
 */
class TraceRegistry {
  public:
    static TraceRegistry &global();

    TraceRegistry(const TraceRegistry &) = delete;
    TraceRegistry &operator=(const TraceRegistry &) = delete;

    /**
     * Turn ring recording on/off. Enabling is cheap and idempotent;
     * rings persist (and keep their events) across off/on cycles until
     * clear().
     */
    void setEnabled(bool on);
    bool enabled() const { return detail::tracingEnabled(); }

    /**
     * Slow-op capture threshold in microseconds; 0 disables capture.
     * Independent of setEnabled — capture needs the rings, so it
     * implies recording while an op is being watched.
     */
    void setSlowOpThresholdUs(uint64_t us);
    uint64_t slowOpThresholdUs() const {
        return slow_threshold_ns_.load(std::memory_order_relaxed) / 1000;
    }

    /** Keep at most this many worst ops (default 32). */
    void setSlowOpKeep(size_t keep);

    /** Events-per-thread ring capacity for rings created *after* this
     *  call (existing rings keep their size). Rounded up to a power of
     *  two; default 16384. */
    void setRingCapacity(size_t events);

    /** Intern @p name, returning a stable id (1-based; 0 = invalid). */
    uint32_t internName(const char *name);

    /** Reverse lookup; empty string for unknown ids. */
    std::string nameOf(uint32_t id) const;

    /** The calling thread's ring (created on first use). */
    TraceRing &ring();

    /**
     * Name the calling thread's track in exported output, e.g.
     * "bg-worker-3", and the thread itself for the OS (its first 15
     * bytes). Also safe to call before any event is emitted.
     */
    void setThreadName(const std::string &name);

    /**
     * Reserve a synthetic track id (for events that logically belong to
     * a hardware resource rather than a thread, e.g. one SSD channel).
     * Returned ids are process-unique and start above any dense
     * ThreadId. @p name shows as the track's thread_name in the export.
     */
    uint16_t registerTrack(const std::string &name);

    /** Drop all ring contents, slow ops, and per-run counters
     *  (thread registrations and interned names survive). */
    void clear();

    /**
     * Export everything recorded so far as a Chrome-trace JSON object
     * ({"traceEvents":[...]}). Timestamps are rebased to the earliest
     * event and emitted in microseconds (Chrome's unit).
     */
    std::string exportJson() const;

    /** exportJson() to a file; returns false on I/O error. */
    bool exportJsonToFile(const std::string &path) const;

    /** Decoded snapshot of every ring (tests, custom renderers). */
    std::vector<std::pair<int, std::vector<Event>>> snapshotAll() const;

    /** Copy of the current keep-worst slow-op buffer, worst first. */
    std::vector<SlowOp> slowOps() const;
    void clearSlowOps();

    /** Total slow ops ever captured (monotonic, survives eviction). */
    uint64_t slowOpsCaptured() const {
        return slow_captured_.load(std::memory_order_relaxed);
    }

    /**
     * Push prism.trace.* gauges/counters into the global stats
     * registry: events recorded/dropped, ring wraps, slow ops captured.
     */
    void publishStats() const;

    /** Internal: slow-op check done by OpScope's destructor. */
    void maybeCaptureSlowOp(uint32_t name_id, uint64_t start_ns,
                            uint64_t dur_ns, uint64_t head_before);

    uint64_t slowOpThresholdNs() const {
        return slow_threshold_ns_.load(std::memory_order_relaxed);
    }

  private:
    TraceRegistry();

    /** Synthetic track ids start here; dense tids stay below. */
    static constexpr uint16_t kFirstSyntheticTrack =
        static_cast<uint16_t>(ThreadId::kMaxThreads);

    /** Per-slow-op event copy bound (root + newest children). */
    static constexpr size_t kMaxSlowOpEvents = 512;

    /** Derive g_flags from user_enabled_ + slow threshold. */
    void recomputeFlags();

    mutable std::mutex mu_;  ///< interning, naming, slow ops, export
    std::vector<std::string> names_;           ///< id-1 -> name
    std::map<std::string, uint32_t> name_ids_;
    std::map<int, std::string> thread_names_;  ///< dense tid -> name
    std::vector<std::string> track_names_;     ///< synthetic tracks
    size_t ring_capacity_ = 16384;
    size_t slow_keep_ = 32;
    std::vector<SlowOp> slow_ops_;  ///< sorted worst (longest) first

    std::atomic<bool> user_enabled_{false};
    std::atomic<uint64_t> slow_threshold_ns_{0};
    std::atomic<uint64_t> slow_captured_{0};
    /** Events older than this are invisible to snapshots (clear()). */
    std::atomic<uint64_t> clear_floor_ns_{0};

    /** Rings indexed by dense ThreadId; never freed once created. */
    std::array<std::atomic<TraceRing *>, ThreadId::kMaxThreads> rings_{};
};

/**
 * RAII scoped span. Construct with an interned name id; the destructor
 * emits one "X" event covering the scope. Up to two integer args can be
 * attached before destruction. Inactive (zero-cost beyond the flag
 * check) when tracing is disabled at construction.
 */
class Span {
  public:
    explicit Span(uint32_t name_id)
    {
        const uint32_t f =
            detail::g_flags.load(std::memory_order_relaxed);
        if (f == 0)
            return;
        if ((f & detail::kFlagLayerTrack) != 0) {
            prev_leaf_ = detail::t_cur_leaf;
            prev_layer_ = detail::t_cur_layer;
            detail::t_cur_leaf = name_id;
            detail::t_cur_layer =
                static_cast<uint8_t>(detail::layerOfId(name_id));
            layer_active_ = true;
        }
        if ((f & detail::kFlagTracing) == 0)
            return;
        name_id_ = name_id;
        start_ns_ = nowNs();
        depth_ = static_cast<uint8_t>(detail::t_depth < 255
                                          ? detail::t_depth
                                          : 255);
        detail::t_depth++;
        active_ = true;
    }

    ~Span()
    {
        if (layer_active_) {
            detail::t_cur_leaf = prev_leaf_;
            detail::t_cur_layer = prev_layer_;
        }
        if (!active_)
            return;
        detail::t_depth--;
        const uint64_t dur = nowNs() - start_ns_;
        TraceRegistry::global().ring().emit(
            EventType::kSpan, name_id_, start_ns_, dur, depth_, 0,
            arg1_name_, arg1_, arg2_name_, arg2_);
        detail::accountSpanSelf(name_id_, depth_, dur);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    bool active() const { return active_; }

    /** Attach a named integer argument (max two; extras ignored). */
    void
    arg(uint32_t name_id, uint64_t value)
    {
        if (!active_)
            return;
        if (arg1_name_ == 0) {
            arg1_name_ = name_id;
            arg1_ = value;
        } else if (arg2_name_ == 0) {
            arg2_name_ = name_id;
            arg2_ = value;
        }
    }

  private:
    bool active_ = false;
    bool layer_active_ = false;
    uint8_t depth_ = 0;
    uint8_t prev_layer_ = 0;
    uint32_t prev_leaf_ = 0;
    uint32_t name_id_ = 0;
    uint32_t arg1_name_ = 0;
    uint32_t arg2_name_ = 0;
    uint64_t start_ns_ = 0;
    uint64_t arg1_ = 0;
    uint64_t arg2_ = 0;
};

/**
 * RAII root-op scope (PrismDb::put/get/...): a Span that additionally
 * remembers where the thread's ring stood at entry so a slow op's
 * subtree can be copied out on exit. Active when either tracing or
 * slow-op capture is on.
 */
class OpScope {
  public:
    explicit OpScope(uint32_t name_id)
    {
        const uint32_t f =
            detail::g_flags.load(std::memory_order_relaxed);
        if (f == 0)
            return;
        if ((f & detail::kFlagLayerTrack) != 0) {
            prev_leaf_ = detail::t_cur_leaf;
            prev_layer_ = detail::t_cur_layer;
            detail::t_cur_leaf = name_id;
            detail::t_cur_layer =
                static_cast<uint8_t>(detail::layerOfId(name_id));
            layer_active_ = true;
        }
        // Ring recording (and thus slow-op capture, which implies it
        // via recomputeFlags) needs the tracing bit specifically.
        if ((f & detail::kFlagTracing) == 0)
            return;
        name_id_ = name_id;
        start_ns_ = nowNs();
        head_before_ = TraceRegistry::global().ring().head();
        depth_ = static_cast<uint8_t>(detail::t_depth < 255
                                          ? detail::t_depth
                                          : 255);
        detail::t_depth++;
        active_ = true;
    }

    ~OpScope()
    {
        if (layer_active_) {
            detail::t_cur_leaf = prev_leaf_;
            detail::t_cur_layer = prev_layer_;
        }
        if (!active_)
            return;
        detail::t_depth--;
        const uint64_t dur = nowNs() - start_ns_;
        auto &reg = TraceRegistry::global();
        reg.ring().emit(EventType::kSpan, name_id_, start_ns_, dur,
                        depth_, 0, arg1_name_, arg1_, 0, 0);
        detail::accountSpanSelf(name_id_, depth_, dur);
        const uint64_t thr = reg.slowOpThresholdNs();
        if (thr != 0 && dur >= thr)
            reg.maybeCaptureSlowOp(name_id_, start_ns_, dur,
                                   head_before_);
    }

    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

    void
    arg(uint32_t name_id, uint64_t value)
    {
        if (!active_)
            return;
        arg1_name_ = name_id;
        arg1_ = value;
    }

  private:
    bool active_ = false;
    bool layer_active_ = false;
    uint8_t depth_ = 0;
    uint8_t prev_layer_ = 0;
    uint32_t prev_leaf_ = 0;
    uint32_t name_id_ = 0;
    uint32_t arg1_name_ = 0;
    uint64_t start_ns_ = 0;
    uint64_t arg1_ = 0;
    uint64_t head_before_ = 0;
};

/** Emit an instant event (no duration). */
inline void
instant(uint32_t name_id, uint32_t arg_name = 0, uint64_t arg = 0)
{
    if (!detail::tracingEnabled())
        return;
    TraceRegistry::global().ring().emit(
        EventType::kInstant, name_id, nowNs(), 0,
        static_cast<uint8_t>(detail::t_depth), 0, arg_name, arg, 0, 0);
}

/**
 * Emit a pre-timed span (start/duration measured by the caller, e.g.
 * reconstructed from device completion records). @p track 0 = caller's
 * own track.
 */
inline void
spanAt(uint32_t name_id, uint64_t ts_ns, uint64_t dur_ns,
       uint16_t track = 0, uint32_t arg1_name = 0, uint64_t arg1 = 0,
       uint32_t arg2_name = 0, uint64_t arg2 = 0)
{
    if (!detail::tracingEnabled())
        return;
    TraceRegistry::global().ring().emit(EventType::kSpan, name_id,
                                        ts_ns, dur_ns, 0, track,
                                        arg1_name, arg1, arg2_name,
                                        arg2);
}

/**
 * Async interval (Chrome "b"/"e"): may overlap other intervals with
 * the same name on the same track; @p id pairs begin with end.
 */
inline void
asyncBegin(uint32_t name_id, uint64_t ts_ns, uint64_t id)
{
    if (!detail::tracingEnabled())
        return;
    TraceRegistry::global().ring().emit(EventType::kAsyncBegin, name_id,
                                        ts_ns, 0, 0, 0, 0, id, 0, 0);
}

inline void
asyncEnd(uint32_t name_id, uint64_t ts_ns, uint64_t id)
{
    if (!detail::tracingEnabled())
        return;
    TraceRegistry::global().ring().emit(EventType::kAsyncEnd, name_id,
                                        ts_ns, 0, 0, 0, 0, id, 0, 0);
}

}  // namespace prism::trace

// ---------------------------------------------------------------------
// Macros. Each call site interns its (string-literal) name once via a
// function-local static; after the first hit the cost is one relaxed
// flag load + branch when disabled.
// ---------------------------------------------------------------------

/** Interned name id for a string literal, cached per call site. */
#define PRISM_TRACE_NID(lit)                                            \
    ([]() -> uint32_t {                                                 \
        static const uint32_t id =                                      \
            ::prism::trace::TraceRegistry::global().internName(lit);    \
        return id;                                                      \
    }())

#define PRISM_TRACE_CAT2(a, b) a##b
#define PRISM_TRACE_CAT(a, b) PRISM_TRACE_CAT2(a, b)

/** Scoped span covering the rest of the enclosing block. */
#define PRISM_TRACE_SPAN(name)                                          \
    ::prism::trace::Span PRISM_TRACE_CAT(_pts_, __COUNTER__)(           \
        PRISM_TRACE_NID(name))

/** Scoped span bound to a named variable (for .arg() calls). */
#define PRISM_TRACE_SPAN_VAR(var, name)                                 \
    ::prism::trace::Span var(PRISM_TRACE_NID(name))

/** Root op scope (slow-op capture eligible). */
#define PRISM_TRACE_OP(var, name)                                       \
    ::prism::trace::OpScope var(PRISM_TRACE_NID(name))

/** Instant event. */
#define PRISM_TRACE_INSTANT(name)                                       \
    ::prism::trace::instant(PRISM_TRACE_NID(name))
