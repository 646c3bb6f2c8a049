/**
 * @file
 * Tests for prism::trace (src/common/trace.h): ring wraparound, torn-
 * read safety under concurrent emit + export (run under TSan in CI),
 * Chrome-trace JSON export structure and span nesting, and slow-op
 * capture thresholds / memory bounds.
 *
 * TraceRegistry::global() is process-wide, so every test that records
 * events does so from a *fresh* thread (fresh dense ThreadId => fresh
 * ring) and uses clear() to hide earlier tests' events.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"

using namespace prism;
using namespace prism::trace;

// ---------------------------------------------------------------------
// A minimal JSON parser, just enough to validate exported traces.
// ---------------------------------------------------------------------

namespace {

struct JsonValue {
    enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
        kNull;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    const JsonValue *find(const std::string &key) const {
        const auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }
};

class JsonParser {
  public:
    explicit JsonParser(const std::string &s) : s_(s) {}

    bool parse(JsonValue *out) {
        const bool ok = value(out);
        skipWs();
        return ok && pos_ == s_.size();
    }

  private:
    void skipWs() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            pos_++;
    }

    bool value(JsonValue *out) {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out->kind = JsonValue::kString;
            return string(&out->str);
        }
        if (c == 't' || c == 'f') {
            out->kind = JsonValue::kBool;
            out->b = c == 't';
            pos_ += c == 't' ? 4 : 5;
            return pos_ <= s_.size();
        }
        if (c == 'n') {
            out->kind = JsonValue::kNull;
            pos_ += 4;
            return pos_ <= s_.size();
        }
        return number(out);
    }

    bool object(JsonValue *out) {
        out->kind = JsonValue::kObject;
        pos_++;  // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            pos_++;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!string(&key))
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return false;
            pos_++;  // ':'
            JsonValue v;
            if (!value(&v))
                return false;
            out->obj.emplace(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (s_[pos_] == '}') {
                pos_++;
                return true;
            }
            return false;
        }
    }

    bool array(JsonValue *out) {
        out->kind = JsonValue::kArray;
        pos_++;  // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            pos_++;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!value(&v))
                return false;
            out->arr.push_back(std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (s_[pos_] == ']') {
                pos_++;
                return true;
            }
            return false;
        }
    }

    bool string(std::string *out) {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        pos_++;
        out->clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
                pos_++;
                switch (s_[pos_]) {
                case 'n': out->push_back('\n'); break;
                case 't': out->push_back('\t'); break;
                case 'u': pos_ += 4; out->push_back('?'); break;
                default: out->push_back(s_[pos_]);
                }
            } else {
                out->push_back(s_[pos_]);
            }
            pos_++;
        }
        if (pos_ >= s_.size())
            return false;
        pos_++;  // closing quote
        return true;
    }

    bool number(JsonValue *out) {
        const size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            pos_++;
        if (pos_ == start)
            return false;
        out->kind = JsonValue::kNumber;
        out->num = std::stod(s_.substr(start, pos_ - start));
        return true;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

/** Run @p fn on a brand-new thread (fresh ThreadId => fresh ring). */
void
onFreshThread(const std::function<void()> &fn)
{
    std::thread t(fn);
    t.join();
}

}  // namespace

// ---------------------------------------------------------------------
// Ring behaviour.
// ---------------------------------------------------------------------

TEST(TraceRingTest, WraparoundKeepsNewestEvents)
{
    auto &reg = TraceRegistry::global();
    reg.clear();
    reg.setRingCapacity(64);
    reg.setEnabled(true);
    const uint32_t name = reg.internName("test.wrap");
    const uint32_t argn = reg.internName("i");

    onFreshThread([&] {
        constexpr uint64_t kEvents = 200;
        for (uint64_t i = 0; i < kEvents; i++)
            instant(name, argn, i);
        TraceRing &ring = reg.ring();
        EXPECT_EQ(ring.head(), kEvents);
        EXPECT_EQ(ring.capacity(), 64u);

        std::vector<Event> evs;
        ring.snapshot(evs);
        ASSERT_LE(evs.size(), 64u);
        ASSERT_GE(evs.size(), 1u);
        // Oldest first, newest last, and only the newest survive.
        EXPECT_EQ(evs.back().arg1, kEvents - 1);
        for (size_t i = 0; i < evs.size(); i++) {
            EXPECT_GE(evs[i].arg1, kEvents - 64);
            if (i > 0) {
                EXPECT_GT(evs[i].arg1, evs[i - 1].arg1);
            }
        }
    });
    reg.setEnabled(false);
}

TEST(TraceRingTest, DisabledTracerRecordsNothing)
{
    auto &reg = TraceRegistry::global();
    reg.setEnabled(false);
    reg.setSlowOpThresholdUs(0);
    const uint32_t name = reg.internName("test.disabled");
    onFreshThread([&] {
        // Dense thread ids (and therefore rings) are recycled, so the
        // ring may hold an earlier owner's events; only the delta
        // matters.
        const uint64_t before = reg.ring().head();
        {
            Span s(name);
            EXPECT_FALSE(s.active());
        }
        instant(name);
        EXPECT_EQ(reg.ring().head(), before);
    });
}

// ---------------------------------------------------------------------
// Concurrent emit + export (the TSan target).
// ---------------------------------------------------------------------

TEST(TraceConcurrencyTest, EightWritersOneExporter)
{
    auto &reg = TraceRegistry::global();
    reg.clear();
    reg.setRingCapacity(1024);
    reg.setEnabled(true);
    const uint32_t name = reg.internName("test.concurrent");
    const uint32_t argn = reg.internName("i");

    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::atomic<bool> stop{false};

    // Exporter hammers snapshots while writers emit.
    std::thread exporter([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto all = reg.snapshotAll();
            for (const auto &[tid, evs] : all) {
                for (const Event &e : evs) {
                    // Validated decode: never a torn half-event.
                    EXPECT_NE(e.name_id, 0u);
                    EXPECT_LE(static_cast<int>(e.type), 4);
                }
            }
            const std::string json = reg.exportJson();
            EXPECT_FALSE(json.empty());
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; t++) {
        writers.emplace_back([&] {
            const uint64_t before = reg.ring().head();
            for (uint64_t i = 0; i < kPerThread; i++) {
                Span s(name);
                s.arg(argn, i);
            }
            EXPECT_EQ(reg.ring().head(), before + kPerThread);
        });
    }
    for (auto &t : writers)
        t.join();
    stop.store(true, std::memory_order_release);
    exporter.join();
    reg.setEnabled(false);
}

// ---------------------------------------------------------------------
// Export format.
// ---------------------------------------------------------------------

TEST(TraceExportTest, ThreadNameIsVisibleToTheOs)
{
    onFreshThread([] {
        TraceRegistry::global().setThreadName("vs-completion-12");
        std::ifstream comm("/proc/thread-self/comm");
        std::string os_name;
        std::getline(comm, os_name);
        EXPECT_EQ(os_name, "vs-completion-1");  // truncated to 15 bytes
    });
}

TEST(TraceExportTest, JsonParsesAndSpansNest)
{
    auto &reg = TraceRegistry::global();
    reg.clear();
    reg.setRingCapacity(4096);
    reg.setEnabled(true);
    const uint32_t outer_id = reg.internName("test.outer");
    const uint32_t inner_id = reg.internName("test.inner");
    const uint32_t argn = reg.internName("step");

    onFreshThread([&] {
        reg.setThreadName("trace-test-emitter");
        {
            Span outer(outer_id);
            for (int i = 0; i < 3; i++) {
                Span inner(inner_id);
                inner.arg(argn, static_cast<uint64_t>(i));
            }
        }
        instant(reg.internName("test.marker"));
    });
    reg.setEnabled(false);

    const std::string json = reg.exportJson();
    JsonValue root;
    ASSERT_TRUE(JsonParser(json).parse(&root)) << json;
    ASSERT_EQ(root.kind, JsonValue::kObject);

    const JsonValue *unit = root.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->str, "ms");

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::kArray);

    double outer_ts = -1, outer_end = -1;
    int inner_seen = 0;
    bool named_thread_meta = false, marker_seen = false;
    for (const JsonValue &e : events->arr) {
        const JsonValue *ph = e.find("ph");
        const JsonValue *name = e.find("name");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(name, nullptr);
        if (ph->str == "M" && name->str == "thread_name") {
            const JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            if (args->find("name") != nullptr &&
                args->find("name")->str == "trace-test-emitter")
                named_thread_meta = true;
        }
        if (ph->str == "X" && name->str == "test.outer") {
            outer_ts = e.find("ts")->num;
            outer_end = outer_ts + e.find("dur")->num;
        }
        if (ph->str == "i" && name->str == "test.marker") {
            marker_seen = true;
            EXPECT_EQ(e.find("s")->str, "t");
        }
    }
    ASSERT_GE(outer_ts, 0.0);
    EXPECT_TRUE(named_thread_meta);
    EXPECT_TRUE(marker_seen);

    // Second pass now that the outer interval is known: every inner
    // span must be contained within it (the Perfetto nesting rule).
    for (const JsonValue &e : events->arr) {
        if (e.find("ph")->str != "X" ||
            e.find("name")->str != "test.inner")
            continue;
        inner_seen++;
        const double ts = e.find("ts")->num;
        const double end = ts + e.find("dur")->num;
        EXPECT_GE(ts, outer_ts);
        EXPECT_LE(end, outer_end + 2e-3);  // %.3f rounding slack
        const JsonValue *args = e.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->find("step"), nullptr);
    }
    EXPECT_EQ(inner_seen, 3);
}

// ---------------------------------------------------------------------
// Slow-op capture.
// ---------------------------------------------------------------------

TEST(SlowOpTest, CaptureTriggersAtThresholdAndKeepsWorst)
{
    auto &reg = TraceRegistry::global();
    reg.clear();
    reg.setRingCapacity(4096);
    reg.setSlowOpKeep(4);
    reg.setSlowOpThresholdUs(5000);  // 5 ms
    // Threshold alone must arm recording (no setEnabled call).
    EXPECT_TRUE(reg.enabled());

    const uint32_t op_id = reg.internName("test.slow_op");
    const uint32_t child_id = reg.internName("test.slow_child");
    const uint64_t captured_before = reg.slowOpsCaptured();

    onFreshThread([&] {
        // Fast op: below threshold, not captured.
        {
            OpScope op(op_id);
        }
        // Slow ops with increasing duration.
        for (int i = 1; i <= 6; i++) {
            OpScope op(op_id);
            Span child(child_id);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5 + i * 2));
        }
    });

    EXPECT_EQ(reg.slowOpsCaptured() - captured_before, 6u);
    const auto ops = reg.slowOps();
    ASSERT_EQ(ops.size(), 4u);  // keep-worst bound
    for (size_t i = 0; i < ops.size(); i++) {
        EXPECT_EQ(ops[i].op, "test.slow_op");
        EXPECT_GE(ops[i].dur_ns, 5000ull * 1000);
        if (i > 0) {
            EXPECT_LE(ops[i].dur_ns, ops[i - 1].dur_ns);  // worst first
        }
        // The subtree holds the root span plus its child.
        ASSERT_GE(ops[i].events.size(), 2u);
        EXPECT_EQ(ops[i].events[0].name_id, op_id);
        bool has_child = false;
        for (const Event &e : ops[i].events)
            has_child |= e.name_id == child_id;
        EXPECT_TRUE(has_child);
    }

    reg.setSlowOpThresholdUs(0);
    EXPECT_FALSE(reg.enabled());
    reg.clearSlowOps();
    EXPECT_TRUE(reg.slowOps().empty());
}

TEST(SlowOpTest, SubtreeCopyIsBounded)
{
    auto &reg = TraceRegistry::global();
    reg.clear();
    reg.setRingCapacity(8192);
    reg.setSlowOpKeep(2);
    reg.setSlowOpThresholdUs(1000);  // 1 ms

    const uint32_t op_id = reg.internName("test.big_op");
    const uint32_t child_id = reg.internName("test.big_child");

    onFreshThread([&] {
        OpScope op(op_id);
        for (int i = 0; i < 2000; i++) {
            Span child(child_id);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
    });

    const auto ops = reg.slowOps();
    ASSERT_GE(ops.size(), 1u);
    const auto &big = ops[0];
    EXPECT_EQ(big.op, "test.big_op");
    EXPECT_TRUE(big.truncated);
    EXPECT_LE(big.events.size(), 512u);  // kMaxSlowOpEvents
    EXPECT_EQ(big.events[0].name_id, op_id);

    reg.setSlowOpThresholdUs(0);
    reg.clearSlowOps();
}

// ---------------------------------------------------------------------
// Metrics + clear semantics.
// ---------------------------------------------------------------------

TEST(TraceStatsTest, PublishStatsExportsTraceMetricFamily)
{
    auto &reg = TraceRegistry::global();
    reg.clear();
    reg.setRingCapacity(64);
    reg.setEnabled(true);
    const uint32_t name = reg.internName("test.metrics");
    onFreshThread([&] {
        for (int i = 0; i < 200; i++)  // forces ring wraps
            instant(name);
    });
    reg.setEnabled(false);
    reg.publishStats();

    const auto snap = stats::StatsRegistry::global().snapshot();
    EXPECT_GT(snap.gauge("prism.trace.events_recorded"), 0);
    EXPECT_GE(snap.gauge("prism.trace.events_dropped"), 200 - 64);
    EXPECT_GE(snap.gauge("prism.trace.ring_wraps"), 1);
    EXPECT_GE(snap.gauge("prism.trace.slow_ops_captured"), 0);
}

TEST(TraceClearTest, ClearHidesOlderEvents)
{
    auto &reg = TraceRegistry::global();
    reg.setEnabled(true);
    const uint32_t before_id = reg.internName("test.before_clear");
    const uint32_t after_id = reg.internName("test.after_clear");

    onFreshThread([&] {
        instant(before_id);
        // The clear floor is a timestamp; make sure the clock has
        // advanced past the event above before taking it.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        reg.clear();
        instant(after_id);
    });
    reg.setEnabled(false);

    bool saw_before = false, saw_after = false;
    for (const auto &[tid, evs] : reg.snapshotAll()) {
        for (const Event &e : evs) {
            saw_before |= e.name_id == before_id;
            saw_after |= e.name_id == after_id;
        }
    }
    EXPECT_FALSE(saw_before);
    EXPECT_TRUE(saw_after);
}
