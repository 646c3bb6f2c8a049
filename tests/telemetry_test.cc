/**
 * @file
 * Tests for prism::telemetry: ring capacity/wraparound, exact window
 * deltas and rates under an injected clock, histogram interval
 * summaries, per-layer CPU attribution bounds, sampler lifecycle,
 * JSON export, ThreadId-recycling ring adoption, and a fig17-style
 * integration run asserting GC/reclaim phases show up as rate changes
 * in several layers at once.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/options.h"
#include "ycsb/stores.h"

namespace prism::telemetry {
namespace {

std::atomic<uint64_t> g_fake_ns{0};

uint64_t
fakeClock()
{
    return g_fake_ns.load(std::memory_order_relaxed);
}

/** Reset the shared global sampler to a known state for one test. */
class TelemetryTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        auto &tel = Telemetry::global();
        tel.stop();
        tel.setClockForTest(nullptr);
        tel.clear();
        tel.setCapacity(600);
    }

    void TearDown() override
    {
        auto &tel = Telemetry::global();
        tel.stop();
        tel.setClockForTest(nullptr);
        tel.clear();
        trace::TraceRegistry::global().setEnabled(false);
    }
};

TEST_F(TelemetryTest, FirstSamplePrimesAndRecordsNothing)
{
    auto &tel = Telemetry::global();
    EXPECT_EQ(tel.sampleNow(), 0u);
    EXPECT_EQ(tel.sampleCount(), 0u);
    EXPECT_EQ(tel.sampleNow(), 1u);  // second tick closes a window
    EXPECT_EQ(tel.sampleCount(), 1u);
}

TEST_F(TelemetryTest, RingWrapsKeepingNewestWithMonotonicSeq)
{
    auto &tel = Telemetry::global();
    g_fake_ns.store(1'000'000'000);
    tel.setClockForTest(&fakeClock);
    tel.setCapacity(4);

    tel.sampleNow();  // prime
    for (int i = 0; i < 10; i++) {
        g_fake_ns.fetch_add(100'000'000);
        tel.sampleNow();
    }
    const auto series = tel.series();
    ASSERT_EQ(series.size(), 4u);
    // 10 windows were recorded (seq 0..9); the ring keeps the last 4.
    EXPECT_EQ(series.front().seq, 6u);
    EXPECT_EQ(series.back().seq, 9u);
    for (size_t i = 1; i < series.size(); i++) {
        EXPECT_EQ(series[i].seq, series[i - 1].seq + 1);
        EXPECT_EQ(series[i].t0_ns, series[i - 1].t1_ns);
    }
    tel.setCapacity(2);  // shrinking drops the oldest immediately
    EXPECT_EQ(tel.sampleCount(), 2u);
    EXPECT_EQ(tel.series().front().seq, 8u);
}

TEST_F(TelemetryTest, WindowDeltasAndRatesAreExactUnderFakeClock)
{
    auto &tel = Telemetry::global();
    auto &reg = stats::StatsRegistry::global();
    stats::Counter &c = reg.counter("test.tel.rate.counter", "ops");
    stats::Gauge &g = reg.gauge("test.tel.rate.gauge", "bytes");
    stats::LatencyStat &lat = reg.histogram("test.tel.rate.lat", "ns");

    g_fake_ns.store(5'000'000'000);
    tel.setClockForTest(&fakeClock);
    tel.sampleNow();  // prime

    c.add(500);
    g.set(1234);
    lat.record(5);  // values < 32 land in exact buckets
    lat.record(7);
    g_fake_ns.fetch_add(1'000'000'000);  // exactly one second
    tel.sampleNow();

    c.add(250);
    g.set(-9);
    g_fake_ns.fetch_add(2'000'000'000);  // two seconds
    tel.sampleNow();

    const auto series = tel.series();
    ASSERT_EQ(series.size(), 2u);
    const TelemetrySample &w1 = series[0], &w2 = series[1];

    EXPECT_DOUBLE_EQ(w1.dtSeconds(), 1.0);
    EXPECT_EQ(w1.counterDelta("test.tel.rate.counter"), 500u);
    EXPECT_DOUBLE_EQ(w1.counterRate("test.tel.rate.counter"), 500.0);
    EXPECT_EQ(w1.gauge("test.tel.rate.gauge"), 1234);

    EXPECT_DOUBLE_EQ(w2.dtSeconds(), 2.0);
    EXPECT_EQ(w2.counterDelta("test.tel.rate.counter"), 250u);
    EXPECT_DOUBLE_EQ(w2.counterRate("test.tel.rate.counter"), 125.0);
    EXPECT_EQ(w2.gauge("test.tel.rate.gauge"), -9);

    // Absent names are zero, never an error.
    EXPECT_EQ(w1.counterDelta("no.such.counter"), 0u);
    EXPECT_EQ(w1.gauge("no.such.gauge"), 0);

    // The histogram interval summary covers only window-1 samples.
    const HistPoint *hp = nullptr;
    for (const auto &h : w1.hists)
        if (h.name == "test.tel.rate.lat")
            hp = &h;
    ASSERT_NE(hp, nullptr);
    EXPECT_EQ(hp->count, 2u);
    EXPECT_DOUBLE_EQ(hp->mean, 6.0);
    for (const auto &h : w2.hists) {
        if (h.name == "test.tel.rate.lat") {
            EXPECT_EQ(h.count, 0u);  // nothing recorded in window 2
        }
    }
}

TEST_F(TelemetryTest, StartStopIsIdempotent)
{
    auto &tel = Telemetry::global();
    EXPECT_FALSE(tel.running());
    EXPECT_TRUE(tel.start(5));
    EXPECT_TRUE(tel.running());
    EXPECT_EQ(tel.intervalMs(), 5u);
    EXPECT_FALSE(tel.start(50));  // already running: no-op
    EXPECT_EQ(tel.intervalMs(), 5u);

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    tel.stop();
    EXPECT_FALSE(tel.running());
    tel.stop();  // second stop is a no-op
    EXPECT_FALSE(tel.running());

    // The sampler primed, ticked, and closed its final window; the
    // series survives stop() for export.
    EXPECT_GE(tel.sampleCount(), 1u);
    const size_t after_stop = tel.sampleCount();
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    EXPECT_EQ(tel.sampleCount(), after_stop);  // really stopped
}

TEST_F(TelemetryTest, ProbeRunsEveryTickAndRemoveIsABarrier)
{
    auto &tel = Telemetry::global();
    std::atomic<int> runs{0};
    const int id = tel.addProbe([&runs] { runs.fetch_add(1); });
    tel.sampleNow();
    tel.sampleNow();
    EXPECT_EQ(runs.load(), 2);
    tel.removeProbe(id);
    tel.sampleNow();
    EXPECT_EQ(runs.load(), 2);  // removed probes never run again
}

TEST_F(TelemetryTest, LayerAttributionIsBoundedByWallClockTimesThreads)
{
    auto &tel = Telemetry::global();
    auto &tracer = trace::TraceRegistry::global();
    tracer.setEnabled(true);

    tel.sampleNow();  // prime
    constexpr int kThreads = 4;
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; t++) {
        pool.emplace_back([] {
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(30);
            while (std::chrono::steady_clock::now() < deadline) {
                PRISM_TRACE_SPAN("prism.test_outer");
                {
                    PRISM_TRACE_SPAN("pwb.test_inner");
                    volatile uint64_t sink = 0;
                    for (int i = 0; i < 2000; i++)
                        sink = sink + i;
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    const uint64_t wall_ns =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() -
                                  wall_start)
                                  .count());
    tel.sampleNow();

    const auto series = tel.series();
    ASSERT_EQ(series.size(), 1u);
    const auto &w = series[0];
    uint64_t total = 0;
    for (size_t l = 0; l < trace::kNumLayers; l++)
        total += w.layer_busy_ns[l];
    // Self-time accounting: per-layer sums can never exceed
    // wall-clock × concurrency (small slack for timer quantization).
    EXPECT_GT(total, 0u);
    EXPECT_LE(total, wall_ns * kThreads * 11 / 10);
    // Both the outer (core) and nested (pwb) layers were busy, and the
    // nested span's time was charged to pwb, not double-charged.
    using trace::Layer;
    EXPECT_GT(w.layer_busy_ns[static_cast<size_t>(Layer::kCore)], 0u);
    EXPECT_GT(w.layer_busy_ns[static_cast<size_t>(Layer::kPwb)], 0u);
}

TEST_F(TelemetryTest, ExportedJsonRoundTrips)
{
    auto &tel = Telemetry::global();
    auto &reg = stats::StatsRegistry::global();
    stats::Counter &c = reg.counter("test.tel.json.counter", "ops");

    g_fake_ns.store(1'000'000'000);
    tel.setClockForTest(&fakeClock);
    tel.sampleNow();  // prime
    c.add(111);
    g_fake_ns.fetch_add(1'000'000'000);
    tel.sampleNow();
    c.add(222);
    g_fake_ns.fetch_add(1'000'000'000);
    tel.sampleNow();

    const std::string json = tel.exportSeriesJson();
    EXPECT_NE(json.find("\"schema\":\"prism.telemetry.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"samples\":2"), std::string::npos);
    EXPECT_NE(json.find("\"test.tel.json.counter\":[111,222]"),
              std::string::npos);
    EXPECT_NE(json.find("\"layers_busy_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"core\":["), std::string::npos);
    EXPECT_NE(json.find("\"dt_s\":[1,1]"), std::string::npos);

    const std::string path =
        ::testing::TempDir() + "/telemetry_roundtrip.json";
    ASSERT_TRUE(tel.exportSeriesJsonToFile(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string back(json.size() + 16, '\0');
    back.resize(std::fread(back.data(), 1, back.size(), f));
    std::fclose(f);
    EXPECT_EQ(back, json);
}

TEST_F(TelemetryTest, RecycledThreadIdAdoptsRingWithoutResettingIt)
{
    auto &tracer = trace::TraceRegistry::global();
    tracer.setEnabled(true);

    // Sequential spawn/join: the second thread picks the first's dense
    // id off the free list (see thread_util.cc) and with it the first
    // thread's trace ring.
    int tid_a = -1;
    uint64_t head_after_a = 0;
    std::thread([&] {
        tid_a = ThreadId::self();
        {
            PRISM_TRACE_SPAN("prism.recycle_a");
        }
        head_after_a = tracer.ring().head();
    }).join();

    int tid_b = -1;
    uint64_t head_before_b = 0, head_after_b = 0;
    std::thread([&] {
        tid_b = ThreadId::self();
        head_before_b = tracer.ring().head();
        {
            PRISM_TRACE_SPAN("prism.recycle_b");
        }
        head_after_b = tracer.ring().head();
    }).join();

    ASSERT_EQ(tid_a, tid_b);  // the id really was recycled
    // The adopted ring keeps its history: the head is monotonic, so a
    // test (or the wraparound math head - capacity) must never assume
    // a fresh thread starts at head 0. See docs/OBSERVABILITY.md.
    EXPECT_GE(head_before_b, head_after_a);
    EXPECT_GT(head_after_b, head_before_b);

    // Both threads' events live in the one per-id ring.
    bool saw_a = false, saw_b = false;
    for (const auto &[tid, events] : tracer.snapshotAll()) {
        if (tid != tid_a)
            continue;
        for (const auto &ev : events) {
            const std::string name = tracer.nameOf(ev.name_id);
            saw_a |= name == "prism.recycle_a";
            saw_b |= name == "prism.recycle_b";
        }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
}

/**
 * Fig17-style acceptance: an update-heavy run with reclaim/GC, bracketed
 * by idle phases, must show up as rate *changes* in at least three
 * layers' counter families at once — that is what makes the exported
 * series a usable phase diagram.
 */
TEST_F(TelemetryTest, Fig17PhasesAppearAsRateChangesInThreeLayers)
{
    auto &tel = Telemetry::global();
    trace::TraceRegistry::global().setEnabled(true);

    ycsb::FixtureOptions fx;
    fx.num_ssds = 2;
    fx.dataset_bytes = 8ull << 20;
    fx.ssd_bytes = 256ull << 20;
    fx.model_timing = false;
    fx.expected_threads = 2;

    core::PrismOptions opts;
    opts.telemetry_interval_ms = 5;  // exercise the router's wiring
    opts.telemetry_windows = 512;

    {
        ycsb::PrismStore store(fx, opts);
        EXPECT_TRUE(tel.running());  // started by the options knob

        // Phase 1: idle.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));

        // Phase 2: update-heavy burst over a small keyspace, then a
        // forced flush + GC so the PWB-reclaim and value-storage paths
        // all run.
        std::string value(1024, 'v');
        const auto burst_end = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(80);
        uint64_t key = 0;
        while (std::chrono::steady_clock::now() < burst_end)
            store.put(key++ % 4096, value);
        store.flushAll();
        store.router().forceGc();

        // Phase 3: idle again.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }  // store close stops the sampler it started

    EXPECT_FALSE(tel.running());
    const auto series = tel.series();
    ASSERT_GE(series.size(), 6u);

    // A family is "phased" when its per-window delta is high in some
    // window and zero/low in another — constant-rate or dead families
    // don't count.
    const auto phased = [&](std::initializer_list<const char *> names) {
        uint64_t lo = UINT64_MAX, hi = 0;
        for (const auto &w : series) {
            uint64_t d = 0;
            for (const char *n : names)
                d += w.counterDelta(n);
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
        return hi > 0 && lo < hi / 2;
    };

    int layers_with_phases = 0;
    layers_with_phases += phased({"prism.puts"});               // core
    layers_with_phases += phased({"prism.pwb.append_bytes",
                                  "prism.pwb.reclaimed_values"});  // pwb
    layers_with_phases += phased({"prism.svc.admissions",
                                  "prism.svc.evictions"});      // svc
    layers_with_phases += phased({"sim.ssd.bytes_written",
                                  "sim.ssd.bytes_read"});       // ssd
    layers_with_phases += phased({"prism.bg.tasks"});           // bg
    EXPECT_GE(layers_with_phases, 3);

    // The router's occupancy probe published its gauges into samples.
    bool saw_svc_capacity = false;
    for (const auto &w : series)
        saw_svc_capacity |= w.gauge("prism.svc.capacity_bytes") > 0;
    EXPECT_TRUE(saw_svc_capacity);

    // And the whole thing exports as a series document.
    const std::string json = tel.exportSeriesJson();
    EXPECT_NE(json.find("\"schema\":\"prism.telemetry.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"prism.puts\""), std::string::npos);
    EXPECT_NE(json.find("\"devices\""), std::string::npos);
}

}  // namespace
}  // namespace prism::telemetry
