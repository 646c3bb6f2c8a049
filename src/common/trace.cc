#include "common/trace.h"

#include <pthread.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/stats.h"

namespace prism::trace {

namespace detail {

std::atomic<uint32_t> g_flags{0};
thread_local uint32_t t_depth = 0;
thread_local uint32_t t_cur_leaf = 0;
thread_local uint8_t t_cur_layer =
    static_cast<uint8_t>(Layer::kOther);

namespace {

/** Layer-tracking request, preserved across recomputeFlags(). */
std::atomic<bool> g_layer_track{false};

}  // namespace

namespace {

/** Deepest nesting level self-time accounting tracks per thread. */
constexpr size_t kAcctDepth = 64;

/**
 * t_child_ns[d] = summed durations of already-closed child spans of
 * the span currently open at depth d on this thread. Read and reset by
 * that span's close; no span below kAcctDepth ever reads a stale cell
 * because each close zeroes its own depth.
 */
thread_local uint64_t t_child_ns[kAcctDepth];

/**
 * Layer classification per interned name id (id-1 indexed), written
 * once at intern time, read relaxed on every span close. Ids beyond
 * the table (pathological intern churn) fall back to kOther.
 */
constexpr size_t kMaxClassifiedNames = 4096;
std::atomic<uint8_t> g_layer_of[kMaxClassifiedNames];

/** Per-layer cumulative self-time; sharded counters (layerBusyNs). */
std::array<stats::Counter, kNumLayers> &
layerBusyCounters()
{
    static auto *c =
        new std::array<stats::Counter, kNumLayers>();  // never destroyed
    return *c;
}

}  // namespace

Layer
layerOfId(uint32_t name_id)
{
    if (name_id == 0 || name_id > kMaxClassifiedNames)
        return Layer::kOther;
    return static_cast<Layer>(
        g_layer_of[name_id - 1].load(std::memory_order_relaxed));
}

void
setLayerTracking(bool on)
{
    g_layer_track.store(on, std::memory_order_relaxed);
    if (on)
        g_flags.fetch_or(kFlagLayerTrack, std::memory_order_relaxed);
    else
        g_flags.fetch_and(~kFlagLayerTrack, std::memory_order_relaxed);
}

void
accountSpanSelf(uint32_t name_id, uint8_t depth, uint64_t dur_ns)
{
    uint64_t child = 0;
    if (depth < kAcctDepth) {
        child = t_child_ns[depth];
        t_child_ns[depth] = 0;
    }
    if (depth > 0 && depth - 1u < kAcctDepth)
        t_child_ns[depth - 1] += dur_ns;
    const uint64_t self = dur_ns > child ? dur_ns - child : 0;
    layerBusyCounters()[static_cast<size_t>(layerOfId(name_id))].add(
        self);
}

void
classifyName(uint32_t name_id, std::string_view name)
{
    if (name_id == 0 || name_id > kMaxClassifiedNames)
        return;
    g_layer_of[name_id - 1].store(
        static_cast<uint8_t>(layerOfSpanName(name)),
        std::memory_order_relaxed);
}

}  // namespace detail

const char *
layerName(size_t layer)
{
    static const char *const kNames[kNumLayers] = {
        "core", "pwb", "svc", "vs", "ssd", "bg", "other"};
    return layer < kNumLayers ? kNames[layer] : "?";
}

Layer
layerOfSpanName(std::string_view name)
{
    auto has = [&](std::string_view prefix) {
        return name.substr(0, prefix.size()) == prefix;
    };
    if (has("prism.") || has("hsit."))
        return Layer::kCore;
    if (has("pwb."))
        return Layer::kPwb;
    if (has("svc."))
        return Layer::kSvc;
    if (has("vs."))
        return Layer::kVs;
    if (has("ssd."))
        return Layer::kSsd;
    if (has("bg."))
        return Layer::kBg;
    return Layer::kOther;
}

uint64_t
layerBusyNs(size_t layer)
{
    if (layer >= kNumLayers)
        return 0;
    return detail::layerBusyCounters()[layer].value();
}

// ---------------------------------------------------------------------
// TraceRing
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

// Slot layout (8 u64 words):
//   w0  seq: 0 = being written, event_index + 1 = published
//   w1  ts_ns
//   w2  dur_ns
//   w3  name_id(32) | depth(8) | type(8) | track(16)
//   w4  arg1_name_id(32) | arg2_name_id(32)
//   w5  arg1
//   w6  arg2
//   w7  unused (pads the slot to one cache line)
uint64_t
packMeta(uint32_t name_id, uint8_t depth, EventType type, uint16_t track)
{
    return (static_cast<uint64_t>(name_id) << 32) |
           (static_cast<uint64_t>(depth) << 24) |
           (static_cast<uint64_t>(type) << 16) |
           static_cast<uint64_t>(track);
}

}  // namespace

TraceRing::TraceRing(size_t capacity_events)
    : capacity_(roundUpPow2(capacity_events < 64 ? 64 : capacity_events)),
      mask_(capacity_ - 1),
      words_(new std::atomic<uint64_t>[capacity_ * detail::kSlotWords])
{
    for (size_t i = 0; i < capacity_ * detail::kSlotWords; i++)
        words_[i].store(0, std::memory_order_relaxed);
}

void
TraceRing::emit(EventType type, uint32_t name_id, uint64_t ts_ns,
                uint64_t dur_ns, uint8_t depth, uint16_t track,
                uint32_t arg1_name, uint64_t arg1, uint32_t arg2_name,
                uint64_t arg2)
{
    const uint64_t idx = head_.load(std::memory_order_relaxed);
    std::atomic<uint64_t> *w =
        &words_[(idx & mask_) * detail::kSlotWords];
    // Per-slot seqlock: invalidate, write payload, publish. All words
    // are atomics, so a racing snapshot sees at worst a stale value it
    // then discards — never UB.
    w[0].store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    w[1].store(ts_ns, std::memory_order_relaxed);
    w[2].store(dur_ns, std::memory_order_relaxed);
    w[3].store(packMeta(name_id, depth, type, track),
               std::memory_order_relaxed);
    w[4].store((static_cast<uint64_t>(arg1_name) << 32) | arg2_name,
               std::memory_order_relaxed);
    w[5].store(arg1, std::memory_order_relaxed);
    w[6].store(arg2, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    w[0].store(idx + 1, std::memory_order_relaxed);
    head_.store(idx + 1, std::memory_order_release);
}

void
TraceRing::snapshot(std::vector<Event> &out) const
{
    const uint64_t h = head_.load(std::memory_order_acquire);
    const uint64_t lo = h > capacity_ ? h - capacity_ : 0;
    for (uint64_t idx = lo; idx < h; idx++) {
        const std::atomic<uint64_t> *w =
            &words_[(idx & mask_) * detail::kSlotWords];
        const uint64_t seq1 = w[0].load(std::memory_order_acquire);
        if (seq1 != idx + 1)
            continue;  // never published or already overwritten
        Event e;
        e.ts_ns = w[1].load(std::memory_order_relaxed);
        e.dur_ns = w[2].load(std::memory_order_relaxed);
        const uint64_t meta = w[3].load(std::memory_order_relaxed);
        const uint64_t argn = w[4].load(std::memory_order_relaxed);
        e.arg1 = w[5].load(std::memory_order_relaxed);
        e.arg2 = w[6].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        const uint64_t seq2 = w[0].load(std::memory_order_relaxed);
        if (seq2 != idx + 1)
            continue;  // torn: overwritten mid-read
        e.name_id = static_cast<uint32_t>(meta >> 32);
        e.depth = static_cast<uint8_t>(meta >> 24);
        const uint8_t ty = static_cast<uint8_t>(meta >> 16);
        if (ty < 1 || ty > 4 || e.name_id == 0)
            continue;
        e.type = static_cast<EventType>(ty);
        e.track = static_cast<uint16_t>(meta);
        e.arg1_name_id = static_cast<uint32_t>(argn >> 32);
        e.arg2_name_id = static_cast<uint32_t>(argn);
        out.push_back(e);
    }
}

// ---------------------------------------------------------------------
// TraceRegistry
// ---------------------------------------------------------------------

TraceRegistry::TraceRegistry() = default;

TraceRegistry &
TraceRegistry::global()
{
    static TraceRegistry *g = new TraceRegistry();  // never destroyed
    return *g;
}

void
TraceRegistry::recomputeFlags()
{
    uint32_t f = 0;
    if (user_enabled_.load(std::memory_order_relaxed))
        f |= detail::kFlagTracing;
    if (slow_threshold_ns_.load(std::memory_order_relaxed) != 0)
        f |= detail::kFlagTracing | detail::kFlagSlowOp;
    if (detail::g_layer_track.load(std::memory_order_relaxed))
        f |= detail::kFlagLayerTrack;
    detail::g_flags.store(f, std::memory_order_relaxed);
}

void
TraceRegistry::setEnabled(bool on)
{
    user_enabled_.store(on, std::memory_order_relaxed);
    recomputeFlags();
}

void
TraceRegistry::setSlowOpThresholdUs(uint64_t us)
{
    slow_threshold_ns_.store(us * 1000, std::memory_order_relaxed);
    recomputeFlags();
}

void
TraceRegistry::setSlowOpKeep(size_t keep)
{
    std::lock_guard<std::mutex> lock(mu_);
    slow_keep_ = keep < 1 ? 1 : keep;
    if (slow_ops_.size() > slow_keep_)
        slow_ops_.resize(slow_keep_);
}

void
TraceRegistry::setRingCapacity(size_t events)
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_capacity_ = roundUpPow2(events < 64 ? 64 : events);
}

uint32_t
TraceRegistry::internName(const char *name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = name_ids_.find(name);
    if (it != name_ids_.end())
        return it->second;
    names_.emplace_back(name);
    const uint32_t id = static_cast<uint32_t>(names_.size());
    name_ids_.emplace(name, id);
    detail::classifyName(id, name);
    return id;
}

std::string
TraceRegistry::nameOf(uint32_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0 || id > names_.size())
        return std::string();
    return names_[id - 1];
}

TraceRing &
TraceRegistry::ring()
{
    const int tid = ThreadId::self() %
                    static_cast<int>(ThreadId::kMaxThreads);
    TraceRing *r = rings_[static_cast<size_t>(tid)].load(
        std::memory_order_acquire);
    if (r != nullptr)
        return *r;
    std::lock_guard<std::mutex> lock(mu_);
    r = rings_[static_cast<size_t>(tid)].load(std::memory_order_acquire);
    if (r == nullptr) {
        r = new TraceRing(ring_capacity_);  // lives forever
        rings_[static_cast<size_t>(tid)].store(
            r, std::memory_order_release);
    }
    return *r;
}

void
TraceRegistry::setThreadName(const std::string &name)
{
    // The OS name (top -H, ps -L, /proc/<pid>/task/*/comm) holds at
    // most 15 bytes.
    pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
    const int tid = ThreadId::self() %
                    static_cast<int>(ThreadId::kMaxThreads);
    std::lock_guard<std::mutex> lock(mu_);
    thread_names_[tid] = name;
}

uint16_t
TraceRegistry::registerTrack(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    const size_t next = track_names_.size();
    if (kFirstSyntheticTrack + next >= UINT16_MAX)
        return UINT16_MAX;  // out of tracks; events fall on the emitter
    track_names_.push_back(name);
    return static_cast<uint16_t>(kFirstSyntheticTrack + next);
}

void
TraceRegistry::clear()
{
    // Rings are single-writer, so a foreign thread cannot rewind them;
    // instead remember "now" and filter older events out of snapshots.
    clear_floor_ns_.store(nowNs(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    slow_ops_.clear();
}

std::vector<std::pair<int, std::vector<Event>>>
TraceRegistry::snapshotAll() const
{
    const uint64_t floor_ns =
        clear_floor_ns_.load(std::memory_order_relaxed);
    size_t names_sz;
    {
        std::lock_guard<std::mutex> lock(mu_);
        names_sz = names_.size();
    }
    std::vector<std::pair<int, std::vector<Event>>> all;
    for (int tid = 0; tid < ThreadId::kMaxThreads; tid++) {
        const TraceRing *r = rings_[static_cast<size_t>(tid)].load(
            std::memory_order_acquire);
        if (r == nullptr)
            continue;
        std::vector<Event> evs;
        r->snapshot(evs);
        std::vector<Event> kept;
        kept.reserve(evs.size());
        for (const Event &e : evs) {
            if (e.ts_ns < floor_ns || e.name_id > names_sz)
                continue;
            if (e.arg1_name_id > names_sz || e.arg2_name_id > names_sz)
                continue;  // torn slot that slipped past the seqlock
            kept.push_back(e);
        }
        if (!kept.empty())
            all.emplace_back(tid, std::move(kept));
    }
    return all;
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendMeta(std::string &out, int tid, const std::string &name,
           bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    char buf[64];
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%d", tid);
    out += buf;
    out += ",\"args\":{\"name\":\"";
    appendEscaped(out, name);
    out += "\"}}";
}

}  // namespace

std::string
TraceRegistry::exportJson() const
{
    auto all = snapshotAll();

    // Route synthetic-track events onto their own tid rows.
    std::map<int, std::vector<Event>> by_tid;
    for (auto &[tid, evs] : all) {
        for (const Event &e : evs) {
            const int row = e.track != 0 ? static_cast<int>(e.track)
                                         : tid;
            by_tid[row].push_back(e);
        }
    }

    uint64_t min_ts = UINT64_MAX;
    for (auto &[tid, evs] : by_tid)
        for (const Event &e : evs)
            min_ts = std::min(min_ts, e.ts_ns);
    if (min_ts == UINT64_MAX)
        min_ts = 0;

    // Copy naming state once under the lock.
    std::vector<std::string> names;
    std::map<int, std::string> tnames;
    std::vector<std::string> tracks;
    {
        std::lock_guard<std::mutex> lock(mu_);
        names = names_;
        tnames = thread_names_;
        tracks = track_names_;
    }
    auto nameFor = [&](uint32_t id) -> const std::string & {
        static const std::string unknown = "?";
        if (id == 0 || id > names.size())
            return unknown;
        return names[id - 1];
    };

    std::string out;
    out.reserve(1 << 16);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
           "\"args\":{\"name\":\"prism\"}}";
    first = false;
    for (auto &[tid, name] : tnames)
        appendMeta(out, tid, name, first);
    for (size_t i = 0; i < tracks.size(); i++) {
        appendMeta(out, static_cast<int>(kFirstSyntheticTrack + i),
                   tracks[i], first);
    }

    char buf[256];
    for (auto &[tid, evs] : by_tid) {
        std::vector<Event> sorted = evs;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Event &a, const Event &b) {
                      if (a.ts_ns != b.ts_ns)
                          return a.ts_ns < b.ts_ns;
                      return a.dur_ns > b.dur_ns;  // parents first
                  });
        for (const Event &e : sorted) {
            out += ",\n{\"name\":\"";
            appendEscaped(out, nameFor(e.name_id));
            out += "\",\"pid\":1,\"tid\":";
            std::snprintf(buf, sizeof(buf), "%d", tid);
            out += buf;
            const double ts_us =
                static_cast<double>(e.ts_ns - min_ts) / 1000.0;
            switch (e.type) {
            case EventType::kSpan:
                std::snprintf(buf, sizeof(buf),
                              ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                              ts_us,
                              static_cast<double>(e.dur_ns) / 1000.0);
                out += buf;
                if (e.arg1_name_id != 0) {
                    out += ",\"args\":{\"";
                    appendEscaped(out, nameFor(e.arg1_name_id));
                    std::snprintf(buf, sizeof(buf), "\":%" PRIu64,
                                  e.arg1);
                    out += buf;
                    if (e.arg2_name_id != 0) {
                        out += ",\"";
                        appendEscaped(out, nameFor(e.arg2_name_id));
                        std::snprintf(buf, sizeof(buf), "\":%" PRIu64,
                                      e.arg2);
                        out += buf;
                    }
                    out += "}";
                }
                break;
            case EventType::kInstant:
                std::snprintf(buf, sizeof(buf),
                              ",\"ph\":\"i\",\"ts\":%.3f,\"s\":\"t\"",
                              ts_us);
                out += buf;
                if (e.arg1_name_id != 0) {
                    out += ",\"args\":{\"";
                    appendEscaped(out, nameFor(e.arg1_name_id));
                    std::snprintf(buf, sizeof(buf), "\":%" PRIu64 "}",
                                  e.arg1);
                    out += buf;
                }
                break;
            case EventType::kAsyncBegin:
            case EventType::kAsyncEnd:
                std::snprintf(
                    buf, sizeof(buf),
                    ",\"ph\":\"%s\",\"cat\":\"prism\",\"id\":\"0x%"
                    PRIx64 "\",\"ts\":%.3f",
                    e.type == EventType::kAsyncBegin ? "b" : "e",
                    e.arg1, ts_us);
                out += buf;
                break;
            }
            out += "}";
        }
    }
    out += "\n]}\n";
    return out;
}

bool
TraceRegistry::exportJsonToFile(const std::string &path) const
{
    const std::string json = exportJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const size_t n = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = (n == json.size()) && std::fclose(f) == 0;
    if (n != json.size())
        std::fclose(f);
    return ok;
}

void
TraceRegistry::maybeCaptureSlowOp(uint32_t name_id, uint64_t start_ns,
                                  uint64_t dur_ns, uint64_t head_before)
{
    slow_captured_.fetch_add(1, std::memory_order_relaxed);
    const int tid = ThreadId::self() %
                    static_cast<int>(ThreadId::kMaxThreads);
    const TraceRing *r = rings_[static_cast<size_t>(tid)].load(
        std::memory_order_acquire);

    SlowOp op;
    op.op = nameOf(name_id);
    op.tid = tid;
    op.start_ns = start_ns;
    op.dur_ns = dur_ns;
    if (r != nullptr) {
        // The op's subtree is every event this thread emitted since the
        // scope opened; if the ring wrapped past head_before in the
        // meantime, the oldest children are gone.
        op.truncated = r->head() - head_before > r->capacity();
        std::vector<Event> evs;
        r->snapshot(evs);
        for (const Event &e : evs) {
            if (e.ts_ns >= start_ns && e.ts_ns <= start_ns + dur_ns)
                op.events.push_back(e);
        }
        std::sort(op.events.begin(), op.events.end(),
                  [](const Event &a, const Event &b) {
                      if (a.ts_ns != b.ts_ns)
                          return a.ts_ns < b.ts_ns;
                      return a.dur_ns > b.dur_ns;  // root first
                  });
        if (op.events.size() > kMaxSlowOpEvents) {
            // Keep the root and the newest children.
            Event root = op.events.front();
            op.events.erase(
                op.events.begin(),
                op.events.end() -
                    static_cast<long>(kMaxSlowOpEvents - 1));
            op.events.insert(op.events.begin(), root);
            op.truncated = true;
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    if (slow_ops_.size() >= slow_keep_ &&
        dur_ns <= slow_ops_.back().dur_ns) {
        return;  // not among the worst we already keep
    }
    auto it = std::upper_bound(
        slow_ops_.begin(), slow_ops_.end(), dur_ns,
        [](uint64_t d, const SlowOp &s) { return d > s.dur_ns; });
    slow_ops_.insert(it, std::move(op));
    if (slow_ops_.size() > slow_keep_)
        slow_ops_.pop_back();
}

std::vector<SlowOp>
TraceRegistry::slowOps() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slow_ops_;
}

void
TraceRegistry::clearSlowOps()
{
    std::lock_guard<std::mutex> lock(mu_);
    slow_ops_.clear();
}

void
TraceRegistry::publishStats() const
{
    uint64_t recorded = 0, dropped = 0, wraps = 0;
    for (int tid = 0; tid < ThreadId::kMaxThreads; tid++) {
        const TraceRing *r = rings_[static_cast<size_t>(tid)].load(
            std::memory_order_acquire);
        if (r == nullptr)
            continue;
        const uint64_t h = r->head();
        recorded += h;
        if (h > r->capacity())
            dropped += h - r->capacity();
        wraps += h / r->capacity();
    }
    auto &reg = stats::StatsRegistry::global();
    reg.gauge("prism.trace.events_recorded", "events")
        .set(static_cast<int64_t>(recorded));
    reg.gauge("prism.trace.events_dropped", "events")
        .set(static_cast<int64_t>(dropped));
    reg.gauge("prism.trace.ring_wraps", "wraps")
        .set(static_cast<int64_t>(wraps));
    reg.gauge("prism.trace.slow_ops_captured", "ops")
        .set(static_cast<int64_t>(
            slow_captured_.load(std::memory_order_relaxed)));
    for (size_t l = 0; l < kNumLayers; l++) {
        reg.gauge(std::string("prism.trace.busy_ns.") + layerName(l),
                  "ns")
            .set(static_cast<int64_t>(layerBusyNs(l)));
    }
}

}  // namespace prism::trace
