#include "common/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "common/log.h"

// glibc spells the SIGEV_THREAD_ID target field through a union; musl
// exposes it directly. Normalize to the musl spelling.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif

namespace prism::prof {

namespace detail {

std::atomic<bool> g_lock_prof{false};

}  // namespace detail

namespace {

// ---------------------------------------------------------------------
// Per-thread sampler state
// ---------------------------------------------------------------------

/**
 * One slot per dense ThreadId. `ktid` is the live kernel tid (-1 =
 * no thread currently owns the id); `ring` is created on first arming
 * and never freed (an adopting thread inherits it). `stack_lo/hi` are
 * written by the owning thread before `ktid` publishes, and only read
 * by that thread's own signal handler, so plain fields suffice.
 */
struct ThreadSlot {
    std::atomic<int> ktid{-1};
    std::atomic<SampleRing *> ring{nullptr};
    std::atomic<bool> armed{false};
    timer_t timer{};
    uintptr_t stack_lo = 0;
    uintptr_t stack_hi = 0;
};

ThreadSlot g_slots[ThreadId::kMaxThreads];

/** Guards arming/disarming and slot bookkeeping (never the handler). */
std::mutex g_prof_mu;

std::atomic<bool> g_profiling{false};
std::atomic<int> g_hz{0};
size_t g_ring_capacity = 2048;

/** Sum of ring heads at the last stop(), for dropped accounting. */
std::atomic<uint64_t> g_timer_failures{0};

/** Linux per-thread CPU clock for an arbitrary kernel tid (the same
 *  encoding pthread_getcpuclockid uses): bits 0-2 = clock type
 *  (CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_FLAG = 6), rest = ~tid. */
clockid_t
threadCpuClock(int ktid)
{
    return static_cast<clockid_t>(
        (~static_cast<unsigned int>(ktid) << 3) | 6u);
}

// ---------------------------------------------------------------------
// Signal handler: frame-pointer unwind into the thread's ring
// ---------------------------------------------------------------------

/**
 * Walk the frame-pointer chain starting from the interrupted context.
 * Every dereference is bounds-checked against the thread's stack, so
 * a broken chain (leaf frames of FP-less library code) terminates the
 * walk instead of faulting. Sanitizers must not instrument this: the
 * loads are deliberately outside their shadow-tracked world.
 */
__attribute__((no_sanitize("address", "thread", "undefined")))
uint32_t
unwindFromContext(void *ucv, uint64_t *out, uint32_t max, uintptr_t lo,
                  uintptr_t hi)
{
    if (max == 0)
        return 0;
    auto *uc = static_cast<ucontext_t *>(ucv);
    uintptr_t pc = 0;
    uintptr_t fp = 0;
#if defined(__x86_64__)
    pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
    pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
    fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
    (void)uc;
#endif
    if (pc == 0)
        return 0;
    out[0] = pc;
    uint32_t n = 1;
    // Frame layout (x86_64 and aarch64 alike with frame pointers):
    // [fp] = caller's fp, [fp + 8] = return address. The chain must
    // stay word-aligned, inside the stack, and strictly grow upward.
    while (n < max) {
        if (fp < lo || fp + 2 * sizeof(uintptr_t) > hi ||
            (fp & (sizeof(uintptr_t) - 1)) != 0)
            break;
        const uintptr_t next_fp =
            *reinterpret_cast<const uintptr_t *>(fp);
        const uintptr_t ret =
            *reinterpret_cast<const uintptr_t *>(fp + sizeof(uintptr_t));
        if (ret < 4096)
            break;
        out[n++] = ret;
        if (next_fp <= fp)
            break;
        fp = next_fp;
    }
    return n;
}

void
samplerHandler(int /*sig*/, siginfo_t * /*info*/, void *uctx)
{
    // The timer only ever targets registered threads, so this TLS read
    // cannot take the registration slow path (no locks, no allocation).
    const int tid = ThreadId::self() %
                    static_cast<int>(ThreadId::kMaxThreads);
    ThreadSlot &slot = g_slots[static_cast<size_t>(tid)];
    SampleRing *ring = slot.ring.load(std::memory_order_acquire);
    if (ring == nullptr)
        return;
    uint64_t frames[detail::kMaxFrames];
    const uint32_t n =
        unwindFromContext(uctx, frames,
                          static_cast<uint32_t>(detail::kMaxFrames),
                          slot.stack_lo, slot.stack_hi);
    if (n == 0)
        return;
    ring->emit(trace::detail::t_cur_layer, trace::detail::t_cur_leaf,
               frames, n);
}

void
installSigprofHandler()
{
    struct sigaction sa {};
    sa.sa_sigaction = samplerHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGPROF, &sa, nullptr);
}

/** Requires g_prof_mu. Create + arm the slot's interval timer. */
void
armSlot(ThreadSlot &slot, int hz)
{
    if (slot.armed.load(std::memory_order_relaxed))
        return;
    const int ktid = slot.ktid.load(std::memory_order_acquire);
    if (ktid < 0)
        return;
    if (slot.ring.load(std::memory_order_relaxed) == nullptr) {
        slot.ring.store(new SampleRing(g_ring_capacity),  // never freed
                        std::memory_order_release);
    }
    struct sigevent sev {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = ktid;
    timer_t t;
    if (::timer_create(threadCpuClock(ktid), &sev, &t) != 0) {
        g_timer_failures.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const long period_ns = 1000000000L / hz;
    struct itimerspec its {};
    its.it_interval.tv_sec = period_ns / 1000000000L;
    its.it_interval.tv_nsec = period_ns % 1000000000L;
    its.it_value = its.it_interval;
    if (::timer_settime(t, 0, &its, nullptr) != 0) {
        ::timer_delete(t);
        g_timer_failures.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    slot.timer = t;
    slot.armed.store(true, std::memory_order_release);
}

/** Requires g_prof_mu. */
void
disarmSlot(ThreadSlot &slot)
{
    if (!slot.armed.load(std::memory_order_relaxed))
        return;
    ::timer_delete(slot.timer);
    slot.armed.store(false, std::memory_order_release);
}

/** Re-derive the tracer's layer tracking from both profilers. */
void
recomputeLayerTracking()
{
    trace::detail::setLayerTracking(
        g_profiling.load(std::memory_order_relaxed) ||
        detail::g_lock_prof.load(std::memory_order_relaxed));
}

}  // namespace

namespace detail {

void
onThreadRegistered(int tid)
{
    const int idx = tid % ThreadId::kMaxThreads;
    ThreadSlot &slot = g_slots[static_cast<size_t>(idx)];
    const int ktid = static_cast<int>(::syscall(SYS_gettid));

    // Stack bounds for the handler's frame-pointer validation. Written
    // before ktid publishes the slot, and only consulted by this
    // thread's own handler.
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void *base = nullptr;
        size_t size = 0;
        if (pthread_attr_getstack(&attr, &base, &size) == 0) {
            slot.stack_lo = reinterpret_cast<uintptr_t>(base);
            slot.stack_hi = slot.stack_lo + size;
        }
        pthread_attr_destroy(&attr);
    }

    std::lock_guard<std::mutex> lock(g_prof_mu);
    slot.ktid.store(ktid, std::memory_order_release);
    if (g_profiling.load(std::memory_order_relaxed))
        armSlot(slot, g_hz.load(std::memory_order_relaxed));
}

void
onThreadExit(int tid)
{
    const int idx = tid % ThreadId::kMaxThreads;
    ThreadSlot &slot = g_slots[static_cast<size_t>(idx)];
    std::lock_guard<std::mutex> lock(g_prof_mu);
    disarmSlot(slot);
    slot.ktid.store(-1, std::memory_order_release);
}

}  // namespace detail

// ---------------------------------------------------------------------
// SampleRing
// ---------------------------------------------------------------------

namespace {

size_t
roundUpPow2(size_t v)
{
    size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

}  // namespace

SampleRing::SampleRing(size_t capacity_samples)
    : capacity_(roundUpPow2(capacity_samples < 64 ? 64
                                                  : capacity_samples)),
      mask_(capacity_ - 1),
      words_(new std::atomic<uint64_t>[capacity_ * detail::kSlotWords])
{
    for (size_t i = 0; i < capacity_ * detail::kSlotWords; i++)
        words_[i].store(0, std::memory_order_relaxed);
}

void
SampleRing::emit(uint8_t layer, uint32_t leaf_id, const uint64_t *frames,
                 uint32_t nframes)
{
    if (nframes > detail::kMaxFrames)
        nframes = detail::kMaxFrames;
    const uint64_t idx = head_.load(std::memory_order_relaxed);
    std::atomic<uint64_t> *w =
        &words_[(idx & mask_) * detail::kSlotWords];
    // Slot layout: w0 seq (0 = writing, idx+1 = published),
    // w1 meta = leaf(32) | nframes(8) | layer(8), w2.. frames.
    w[0].store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    w[1].store((static_cast<uint64_t>(leaf_id) << 32) |
                   (static_cast<uint64_t>(nframes) << 8) |
                   static_cast<uint64_t>(layer),
               std::memory_order_relaxed);
    for (uint32_t i = 0; i < nframes; i++)
        w[2 + i].store(frames[i], std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    w[0].store(idx + 1, std::memory_order_relaxed);
    head_.store(idx + 1, std::memory_order_release);
}

void
SampleRing::snapshot(uint64_t since, std::vector<Sample> &out) const
{
    const uint64_t h = head_.load(std::memory_order_acquire);
    uint64_t lo = h > capacity_ ? h - capacity_ : 0;
    lo = std::max(lo, since);
    for (uint64_t idx = lo; idx < h; idx++) {
        const std::atomic<uint64_t> *w =
            &words_[(idx & mask_) * detail::kSlotWords];
        const uint64_t seq1 = w[0].load(std::memory_order_acquire);
        if (seq1 != idx + 1)
            continue;
        Sample s;
        const uint64_t meta = w[1].load(std::memory_order_relaxed);
        s.layer = static_cast<uint8_t>(meta);
        s.nframes = static_cast<uint32_t>((meta >> 8) & 0xff);
        s.leaf_id = static_cast<uint32_t>(meta >> 32);
        if (s.nframes == 0 || s.nframes > detail::kMaxFrames)
            continue;
        for (uint32_t i = 0; i < s.nframes; i++)
            s.frames[i] = w[2 + i].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (w[0].load(std::memory_order_relaxed) != idx + 1)
            continue;  // torn: overwritten mid-read
        out.push_back(s);
    }
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

Profiler &
Profiler::global()
{
    static Profiler *g = new Profiler();  // never destroyed
    return *g;
}

bool
Profiler::start(int hz)
{
    if (hz <= 0)
        return false;
    hz = std::min(hz, 1000);
    {
        std::lock_guard<std::mutex> lock(g_prof_mu);
        if (g_profiling.load(std::memory_order_relaxed))
            return false;
        installSigprofHandler();
        g_hz.store(hz, std::memory_order_relaxed);
        hz_.store(hz, std::memory_order_relaxed);
        g_profiling.store(true, std::memory_order_relaxed);
        running_.store(true, std::memory_order_release);
        recomputeLayerTracking();
        setLockProfiling(true);
        for (auto &slot : g_slots) {
            if (slot.ktid.load(std::memory_order_acquire) >= 0)
                armSlot(slot, hz);
        }
    }
    // Outside g_prof_mu: the logger's first use on a thread runs
    // ThreadId::self() -> onThreadRegistered, which takes g_prof_mu.
    PRISM_LOG_INFO("prof", "cpu sampler armed at %d Hz (%d threads)",
                   hz, threadsArmed());
    return true;
}

void
Profiler::stop()
{
    std::lock_guard<std::mutex> lock(g_prof_mu);
    if (!g_profiling.load(std::memory_order_relaxed))
        return;
    for (auto &slot : g_slots)
        disarmSlot(slot);
    g_profiling.store(false, std::memory_order_relaxed);
    g_hz.store(0, std::memory_order_relaxed);
    hz_.store(0, std::memory_order_relaxed);
    running_.store(false, std::memory_order_release);
    setLockProfiling(false);
    recomputeLayerTracking();
}

uint64_t
Profiler::samplesTaken() const
{
    uint64_t total = 0;
    for (const auto &slot : g_slots) {
        const SampleRing *r = slot.ring.load(std::memory_order_acquire);
        if (r != nullptr)
            total += r->head();
    }
    return total;
}

uint64_t
Profiler::samplesDropped() const
{
    uint64_t dropped = 0;
    for (const auto &slot : g_slots) {
        const SampleRing *r = slot.ring.load(std::memory_order_acquire);
        if (r != nullptr && r->head() > r->capacity())
            dropped += r->head() - r->capacity();
    }
    return dropped;
}

int
Profiler::threadsArmed() const
{
    int n = 0;
    for (const auto &slot : g_slots)
        if (slot.armed.load(std::memory_order_acquire))
            n++;
    return n;
}

Profiler::Marks
Profiler::mark() const
{
    Marks m{};
    for (size_t i = 0; i < m.size(); i++) {
        const SampleRing *r =
            g_slots[i].ring.load(std::memory_order_acquire);
        m[i] = r != nullptr ? r->head() : 0;
    }
    return m;
}

namespace {

/**
 * Best-effort symbol name for a PC. Call-site frames (index > 0) are
 * return addresses, so look up `addr - 1` to land inside the calling
 * function instead of whatever follows the call. Demangled names get
 * spaces and semicolons squeezed out so the folded format (frames
 * joined by ';', count after the last space) stays parseable.
 */
std::string
symbolize(uint64_t addr, bool is_leaf, bool *symbolized)
{
    Dl_info info{};
    const uintptr_t probe =
        static_cast<uintptr_t>(is_leaf ? addr : addr - 1);
    if (::dladdr(reinterpret_cast<void *>(probe), &info) != 0 &&
        info.dli_sname != nullptr) {
        *symbolized = true;
        int status = 0;
        char *dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                        &status);
        std::string out =
            (status == 0 && dem != nullptr) ? dem : info.dli_sname;
        std::free(dem);
        for (char &c : out) {
            if (c == ';')
                c = ',';
        }
        out.erase(std::remove(out.begin(), out.end(), ' '), out.end());
        return out;
    }
    // No symbol name (static function, stripped library): attribute
    // to the containing module + offset, which still groups frames
    // usefully ("libc.so.6+0x9a12"). Raw hex only when even the
    // module is unknown — checkers count those as unsymbolized.
    if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
        const char *base = std::strrchr(info.dli_fname, '/');
        base = base != nullptr ? base + 1 : info.dli_fname;
        char buf[192];
        std::snprintf(buf, sizeof(buf), "%s+0x%llx", base,
                      static_cast<unsigned long long>(
                          probe - reinterpret_cast<uintptr_t>(
                                      info.dli_fbase)));
        *symbolized = true;
        return buf;
    }
    *symbolized = false;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

}  // namespace

std::string
Profiler::collectFolded(const Marks *since) const
{
    // Aggregate raw samples first; symbolize each distinct PC once.
    // Key = layer, leaf span id, then frames leaf-first.
    std::map<std::vector<uint64_t>, uint64_t> agg;
    uint64_t total = 0;
    int threads_seen = 0;
    for (size_t i = 0; i < ThreadId::kMaxThreads; i++) {
        const SampleRing *r =
            g_slots[i].ring.load(std::memory_order_acquire);
        if (r == nullptr)
            continue;
        std::vector<SampleRing::Sample> samples;
        r->snapshot(since != nullptr ? (*since)[i] : 0, samples);
        if (samples.empty())
            continue;
        threads_seen++;
        for (const auto &s : samples) {
            std::vector<uint64_t> key;
            key.reserve(2 + s.nframes);
            key.push_back(s.layer);
            key.push_back(s.leaf_id);
            for (uint32_t f = 0; f < s.nframes; f++)
                key.push_back(s.frames[f]);
            agg[std::move(key)]++;
            total++;
        }
    }

    std::map<uint64_t, std::string> sym_leaf, sym_ret;
    uint64_t frames_total = 0, frames_symbolized = 0;
    auto lookup = [&](uint64_t addr, bool leaf) -> const std::string & {
        auto &cache = leaf ? sym_leaf : sym_ret;
        auto it = cache.find(addr);
        if (it == cache.end()) {
            bool ok = false;
            it = cache.emplace(addr, symbolize(addr, leaf, &ok)).first;
        }
        return it->second;
    };

    auto &treg = trace::TraceRegistry::global();
    // Distinct PCs can symbolize to the same frame name (inlined
    // copies, module+offset fallbacks), so re-merge after
    // symbolization to keep one folded line per rendered stack.
    std::map<std::string, uint64_t> merged;
    for (const auto &[key, count] : agg) {
        const auto layer = static_cast<size_t>(key[0]);
        const auto leaf_id = static_cast<uint32_t>(key[1]);
        std::string line = trace::layerName(layer);
        if (leaf_id != 0) {
            const std::string span = treg.nameOf(leaf_id);
            if (!span.empty()) {
                line += ";span:";
                line += span;
            }
        }
        // Frames are captured leaf-first; folded wants root-first.
        for (size_t f = key.size(); f > 2; f--) {
            const bool is_leaf = (f == 3);
            const std::string &name = lookup(key[f - 1], is_leaf);
            frames_total++;
            if (name.compare(0, 2, "0x") != 0)
                frames_symbolized++;
            line += ';';
            line += name;
        }
        merged[std::move(line)] += count;
    }

    std::string out;
    for (const auto &[line, count] : merged) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %llu\n",
                      static_cast<unsigned long long>(count));
        out += line;
        out += buf;
    }

    char head[192];
    std::snprintf(head, sizeof(head),
                  "# prism cpu profile: samples=%llu stacks=%zu "
                  "threads=%d hz=%d symbolized=%.3f\n",
                  static_cast<unsigned long long>(total), merged.size(),
                  threads_seen, hz(),
                  frames_total == 0
                      ? 0.0
                      : static_cast<double>(frames_symbolized) /
                            static_cast<double>(frames_total));
    return head + out;
}

std::string
Profiler::profileForWindow(int hz, double seconds)
{
    seconds = std::clamp(seconds, 0.1, 60.0);
    const bool started = start(hz > 0 ? hz : 99);
    const Marks marks = mark();
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int64_t>(seconds * 1000.0)));
    std::string folded = collectFolded(&marks);
    if (started)
        stop();
    return folded;
}

void
Profiler::setRingCapacity(size_t samples)
{
    std::lock_guard<std::mutex> lock(g_prof_mu);
    g_ring_capacity = roundUpPow2(samples < 64 ? 64 : samples);
}

void
Profiler::publishStats() const
{
    auto &reg = stats::StatsRegistry::global();
    reg.gauge("prism.prof.samples", "samples")
        .set(static_cast<int64_t>(samplesTaken()));
    reg.gauge("prism.prof.samples_dropped", "samples")
        .set(static_cast<int64_t>(samplesDropped()));
    reg.gauge("prism.prof.hz", "hz").set(hz());
    reg.gauge("prism.prof.threads_armed", "threads").set(threadsArmed());
    reg.gauge("prism.prof.timer_failures", "failures")
        .set(static_cast<int64_t>(
            g_timer_failures.load(std::memory_order_relaxed)));
}

int
resolveHz()
{
    if (const char *env = std::getenv("PRISM_PROF_HZ");
        env != nullptr && *env != '\0')
        return std::atoi(env);
    return 0;
}

// ---------------------------------------------------------------------
// Lock-contention profiler
// ---------------------------------------------------------------------

void
LockSite::noteHolder(uint64_t key, uint64_t wait_ns_delta)
{
    if (key == 0)
        key = 1;  // catch-all "unknown holder" bucket
    for (auto &b : holders) {
        uint64_t cur = b.key.load(std::memory_order_relaxed);
        if (cur == 0) {
            // Claim the empty bucket; a racing loser just probes on.
            if (!b.key.compare_exchange_strong(
                    cur, key, std::memory_order_relaxed))
                continue;
            cur = key;
        }
        if (cur == key) {
            b.count.fetch_add(1, std::memory_order_relaxed);
            b.wait_ns.fetch_add(wait_ns_delta,
                                std::memory_order_relaxed);
            return;
        }
    }
    // Table full: fold into the catch-all bucket (key 1 lives in some
    // slot by now or the table is saturated with distinct holders;
    // dropping attribution keeps the fast path bounded).
    for (auto &b : holders) {
        if (b.key.load(std::memory_order_relaxed) == 1) {
            b.count.fetch_add(1, std::memory_order_relaxed);
            b.wait_ns.fetch_add(wait_ns_delta,
                                std::memory_order_relaxed);
            return;
        }
    }
}

namespace {

std::mutex g_sites_mu;

std::map<std::string, LockSite *> &
siteMap()
{
    static auto *m = new std::map<std::string, LockSite *>();
    return *m;
}

}  // namespace

LockSite *
internLockSite(const char *name)
{
    std::lock_guard<std::mutex> lock(g_sites_mu);
    auto &m = siteMap();
    auto it = m.find(name);
    if (it != m.end())
        return it->second;
    auto *s = new LockSite();  // never freed
    s->name = name;
    auto &reg = stats::StatsRegistry::global();
    const std::string base = std::string("prism.lock.") + name;
    s->acquisitions = &reg.counter(base + ".acquisitions", "acqs");
    s->contended = &reg.counter(base + ".contended", "acqs");
    s->wait_ns_total = &reg.counter(base + ".wait_ns_total", "ns");
    s->wait_ns = &reg.histogram(base + ".wait_ns", "ns");
    m.emplace(name, s);
    return s;
}

void
setLockProfiling(bool on)
{
    detail::g_lock_prof.store(on, std::memory_order_relaxed);
    recomputeLayerTracking();
}

bool
lockProfilingEnabled()
{
    return detail::g_lock_prof.load(std::memory_order_relaxed);
}

std::string
renderContentionFolded()
{
    std::vector<std::pair<std::string, LockSite *>> sites;
    {
        std::lock_guard<std::mutex> lock(g_sites_mu);
        for (const auto &[name, site] : siteMap())
            sites.emplace_back(name, site);
    }
    auto &treg = trace::TraceRegistry::global();
    std::string out = "# prism lock contention profile "
                      "(weight = wait microseconds)\n";
    for (const auto &[name, site] : sites) {
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "# site %s: acquisitions=%llu contended=%llu "
            "wait_ms=%.3f\n",
            name.c_str(),
            static_cast<unsigned long long>(site->acquisitions->value()),
            static_cast<unsigned long long>(site->contended->value()),
            static_cast<double>(site->wait_ns_total->value()) / 1e6);
        out += buf;
        for (const auto &b : site->holders) {
            const uint64_t key = b.key.load(std::memory_order_relaxed);
            if (key == 0)
                continue;
            const uint64_t wait_us =
                b.wait_ns.load(std::memory_order_relaxed) / 1000;
            const uint64_t count =
                b.count.load(std::memory_order_relaxed);
            if (count == 0)
                continue;
            std::string holder;
            if (key == 1) {
                holder = "holder:unknown";
            } else {
                const auto leaf = static_cast<uint32_t>(key >> 8);
                const auto layer = static_cast<size_t>(key & 0xff);
                holder = std::string("holder:") +
                         trace::layerName(layer);
                const std::string span = treg.nameOf(leaf);
                if (!span.empty()) {
                    holder += ';';
                    holder += span;
                }
            }
            std::snprintf(buf, sizeof(buf), "lock:%s;%s %llu\n",
                          name.c_str(), holder.c_str(),
                          static_cast<unsigned long long>(
                              wait_us == 0 ? 1 : wait_us));
            out += buf;
        }
    }
    return out;
}

}  // namespace prism::prof
