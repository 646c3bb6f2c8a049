/**
 * @file
 * prism::prof — continuous in-process profiling (docs/OBSERVABILITY.md,
 * "Profiling").
 *
 * Two independent profilers share this module:
 *
 *  1. A sampling CPU profiler. Profiler::start(hz) arms one POSIX
 *     interval timer per registered thread (timer_create on the
 *     thread's CPU-time clock, SIGEV_THREAD_ID + SIGPROF), so each
 *     thread is sampled per CPU-second it actually burns — idle
 *     threads cost nothing. The async-signal-safe handler walks the
 *     frame-pointer chain out of the interrupted ucontext into a
 *     per-thread lock-free SampleRing (the trace.h per-slot-seqlock
 *     idiom: torn reads are dropped by validation, never UB).
 *     Symbolization (dladdr + __cxa_demangle) happens offline in
 *     collectFolded(), which aggregates samples into collapsed
 *     ("folded") stacks additionally keyed by the tracer's current
 *     layer and span, joining the existing attribution model.
 *     Default off: no timers exist and instrumented code pays one
 *     relaxed load per site.
 *
 *  2. A lock-contention profiler. Timed<M> wraps a Lockable with a
 *     named, interned site; when armed (setLockProfiling) every
 *     acquisition is counted, contended acquisitions record their
 *     wait in a histogram plus a per-site total, and the *holder's*
 *     current span/layer at contention time is attributed into a
 *     bounded per-site table (the poor man's holder stack — cheap
 *     enough to leave on). Disabled cost: one relaxed load per
 *     lock()/unlock(). Metrics surface as prism.lock.<site>.* in the
 *     stats registry, so /metrics, telemetry and `prism_cli top` see
 *     them for free.
 *
 * Thread lifecycle hooks live in ThreadId::self() (registration) and
 * its TLS destructor (timer teardown before the dense id is recycled),
 * so adopted ids never inherit a live timer aimed at a dead kernel tid.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/spinlock.h"
#include "common/stats.h"
#include "common/thread_util.h"
#include "common/trace.h"

namespace prism::prof {

namespace detail {

/** Deepest backtrace a sample keeps (leaf first). */
constexpr size_t kMaxFrames = 28;

/** Words per sample slot: seq, meta, kMaxFrames PCs, pad. */
constexpr size_t kSlotWords = 32;

/** Lock-contention arming flag; one relaxed load per lock site. */
extern std::atomic<bool> g_lock_prof;

inline bool
lockProfEnabled()
{
    return g_lock_prof.load(std::memory_order_relaxed);
}

/**
 * ThreadId lifecycle hooks (called from thread_util.cc). Registration
 * runs on the thread itself: it records the kernel tid and the stack
 * bounds the signal handler validates frame pointers against, and
 * self-arms a timer when profiling is already running. Exit deletes
 * the thread's timer *before* the dense id returns to the free list.
 */
void onThreadRegistered(int tid);
void onThreadExit(int tid);

}  // namespace detail

/**
 * One thread's stack-sample ring. Single writer — the owning thread's
 * SIGPROF handler — publishing via a per-slot seqlock of relaxed
 * atomics; any thread may snapshot concurrently. Never freed once
 * created (threads adopting a recycled dense id adopt the ring, whose
 * head keeps counting monotonically — compare head deltas, not
 * absolute values).
 */
class SampleRing {
  public:
    explicit SampleRing(size_t capacity_samples);

    struct Sample {
        uint8_t layer = 0;       ///< trace::Layer at capture time
        uint32_t leaf_id = 0;    ///< innermost open span name id (0 = none)
        uint32_t nframes = 0;
        std::array<uint64_t, detail::kMaxFrames> frames{};  ///< leaf first
    };

    /** Owner-signal-handler only; async-signal-safe. */
    void emit(uint8_t layer, uint32_t leaf_id, const uint64_t *frames,
              uint32_t nframes);

    /** Monotonic count of samples ever emitted. */
    uint64_t head() const { return head_.load(std::memory_order_acquire); }

    size_t capacity() const { return capacity_; }

    /**
     * Copy out samples with index >= @p since (clamped to what the ring
     * still holds), oldest first. Mid-overwrite slots are dropped via
     * sequence validation.
     */
    void snapshot(uint64_t since, std::vector<Sample> &out) const;

  private:
    size_t capacity_;  ///< power of two
    size_t mask_;
    std::unique_ptr<std::atomic<uint64_t>[]> words_;
    std::atomic<uint64_t> head_{0};
};

/**
 * Process-wide sampling CPU profiler. start()/stop() are idempotent
 * and thread-safe; while running, every registered thread (current and
 * future) carries a CPU-time interval timer firing SIGPROF at @p hz.
 */
class Profiler {
  public:
    static Profiler &global();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /**
     * Arm sampling at @p hz (clamped to [1, 1000]). Returns true when
     * this call transitioned the profiler off->on (the caller then
     * owns the matching stop()); false if it was already running or
     * hz <= 0. Also arms the tracer's layer tracking and the
     * lock-contention profiler.
     */
    bool start(int hz);

    /** Disarm every timer. Samples stay collectable. Idempotent. */
    void stop();

    bool running() const {
        return running_.load(std::memory_order_acquire);
    }

    /** Sampling rate while running, else 0. */
    int hz() const { return hz_.load(std::memory_order_relaxed); }

    /** Total samples ever captured across all threads. */
    uint64_t samplesTaken() const;

    /** Samples overwritten before any collection could see them. */
    uint64_t samplesDropped() const;

    /** Number of threads currently carrying an armed timer. */
    int threadsArmed() const;

    /** Per-thread ring head positions, for delta collection. */
    using Marks = std::array<uint64_t, ThreadId::kMaxThreads>;
    Marks mark() const;

    /**
     * Aggregate (and symbolize) every sample newer than @p since (all
     * samples when null) into collapsed-stack text: one line per
     * distinct stack, `layer;span:<name>;root;...;leaf COUNT`, plus
     * `#`-prefixed summary comments (samples, symbolized fraction).
     * Offline-only: allocates, takes locks, calls dladdr.
     */
    std::string collectFolded(const Marks *since = nullptr) const;

    /**
     * Blocking convenience for the ops endpoint / CLI: ensure sampling
     * at @p hz (starting if needed), sleep @p seconds, collect the
     * window's samples, and stop again if this call started it.
     */
    std::string profileForWindow(int hz, double seconds);

    /** Ring capacity (samples) for rings created after this call. */
    void setRingCapacity(size_t samples);

    /** Push prism.prof.* gauges into the global stats registry. */
    void publishStats() const;

  private:
    Profiler() = default;

    std::atomic<bool> running_{false};
    std::atomic<int> hz_{0};
};

/** The sampling rate $PRISM_PROF_HZ asks for; 0 when unset. */
int resolveHz();

// ---------------------------------------------------------------------
// Lock-contention profiler
// ---------------------------------------------------------------------

/**
 * One named lock site (e.g. "pwb.pass"); many lock instances may share
 * a site. Interned once; the stats live in the global registry as
 * prism.lock.<site>.{acquisitions,contended,wait_ns_total} counters
 * plus a prism.lock.<site>.wait_ns histogram.
 */
struct LockSite {
    static constexpr size_t kHolderBuckets = 16;

    struct HolderBucket {
        /** Packed holder context: leaf span id << 8 | layer; 0 = empty. */
        std::atomic<uint64_t> key{0};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> wait_ns{0};
    };

    std::string name;
    stats::Counter *acquisitions = nullptr;
    stats::Counter *contended = nullptr;
    stats::Counter *wait_ns_total = nullptr;
    stats::LatencyStat *wait_ns = nullptr;
    /** Who held the lock when waiters contended (bounded; overflow
     *  lands in a catch-all bucket keyed 1). */
    std::array<HolderBucket, kHolderBuckets> holders;

    /** Attribute @p wait_ns_delta to holder context @p key. */
    void noteHolder(uint64_t key, uint64_t wait_ns_delta);
};

/** Find-or-create the site named @p name (stable pointer, never freed). */
LockSite *internLockSite(const char *name);

/**
 * Arm/disarm contention recording at every Timed site (one process-wide
 * flag). Arming also enables the tracer's layer tracking so holder
 * contexts carry span/layer identity. Profiler::start()/stop() call
 * this; tests and the CLI may too.
 */
void setLockProfiling(bool on);
bool lockProfilingEnabled();

/**
 * Render the per-site holder-attribution tables as collapsed stacks
 * weighted by wait-microseconds: `lock:<site>;<holder> WAIT_US`, with
 * `#` summary comments per site (acquisitions, contended, total wait).
 * Feed to scripts/flamegraph.py like a CPU profile.
 */
std::string renderContentionFolded();

namespace detail {

/** Packed holder context of the calling thread: leaf span << 8 | layer. */
inline uint64_t
currentHolderCtx()
{
    return (static_cast<uint64_t>(trace::detail::t_cur_leaf) << 8) |
           static_cast<uint64_t>(trace::detail::t_cur_layer);
}

}  // namespace detail

/**
 * Lockable wrapper measuring contention at a named site. Fast path
 * when disarmed: one relaxed load, then the wrapped lock — no
 * counters, no clock reads. Armed: uncontended acquisitions (try_lock
 * wins) cost one sharded counter add; contended ones add two clock
 * reads, a histogram record, and holder attribution.
 *
 * M must be Lockable (lock/try_lock/unlock). Works with
 * std::unique_lock and std::condition_variable_any.
 */
template <class M>
class Timed {
  public:
    /** Site interned lazily on first armed use. */
    explicit Timed(const char *site_name) : site_name_(site_name) {}

    /** Pre-interned site (for function-local locks on hot paths). */
    explicit Timed(LockSite *site) : site_(site) {}

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    void
    lock()
    {
        if (!detail::lockProfEnabled()) {
            m_.lock();
            return;
        }
        lockProfiled();
    }

    bool
    try_lock()  // NOLINT: std Lockable spelling
    {
        if (!detail::lockProfEnabled())
            return m_.try_lock();
        if (m_.try_lock()) {
            site().acquisitions->inc();
            holder_.store(detail::currentHolderCtx(),
                          std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    void
    unlock()
    {
        if (detail::lockProfEnabled())
            holder_.store(0, std::memory_order_relaxed);
        m_.unlock();
    }

    /** The wrapped lock (tests; use sparingly). */
    M &underlying() { return m_; }

  private:
    void
    lockProfiled()
    {
        LockSite &s = site();
        if (m_.try_lock()) {
            s.acquisitions->inc();
            holder_.store(detail::currentHolderCtx(),
                          std::memory_order_relaxed);
            return;
        }
        // Contended: read who holds it *before* blocking, then charge
        // the wait to that holder context once we own the lock.
        const uint64_t holder = holder_.load(std::memory_order_relaxed);
        const uint64_t t0 = nowNs();
        m_.lock();
        const uint64_t wait = nowNs() - t0;
        s.acquisitions->inc();
        s.contended->inc();
        s.wait_ns_total->add(wait);
        s.wait_ns->record(wait);
        s.noteHolder(holder, wait);
        holder_.store(detail::currentHolderCtx(),
                      std::memory_order_relaxed);
    }

    LockSite &
    site()
    {
        LockSite *s = site_.load(std::memory_order_acquire);
        if (s == nullptr) {
            s = internLockSite(site_name_);
            site_.store(s, std::memory_order_release);
        }
        return *s;
    }

    std::atomic<LockSite *> site_{nullptr};
    const char *site_name_ = "";
    /** Holder context while locked and armed (0 = free/unknown). */
    std::atomic<uint64_t> holder_{0};
    M m_;
};

using TimedMutex = Timed<std::mutex>;
using TimedTicketLock = Timed<TicketLock>;

}  // namespace prism::prof
