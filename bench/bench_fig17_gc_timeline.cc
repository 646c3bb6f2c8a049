/**
 * @file
 * Figure 17: YCSB-A throughput over time as Value Storage garbage
 * collection kicks in. The Value Storage is sized so sustained updates
 * push it past the GC watermark mid-run; Prism's non-blocking HSIT
 * access should keep the curve flat.
 *
 * Unlike the other figure benches this one is driven from the tracer:
 * the run executes with prism::trace enabled, and the GC / PWB-reclaim
 * activity overlaid on each 250 ms throughput bucket is reconstructed
 * from the recorded `vs.gc_pass` and `pwb.reclaim_pass` spans rather
 * than from counters — the same data a Perfetto view of the dump shows.
 */
#include <algorithm>
#include <cstring>
#include <set>

#include "bench_util.h"
#include "common/trace.h"

using namespace prism;
using namespace prism::bench;

namespace {

constexpr uint64_t kBucketNs = 250ull * 1000 * 1000;

/** Per-bucket background-work overlay accumulated from trace spans. */
struct Bucket {
    double busy_gc_ms = 0;       ///< vs.gc_pass time overlapping bucket
    double busy_reclaim_ms = 0;  ///< pwb.reclaim_pass time overlapping
    uint64_t gc_passes = 0;      ///< passes *starting* in this bucket
    uint64_t reclaim_passes = 0;
};

void
overlay(std::vector<Bucket> &buckets, uint64_t t0, uint64_t ts,
        uint64_t dur, bool is_gc)
{
    if (ts < t0)
        ts = t0;  // span started during load; clip to the run window
    const uint64_t rel = ts - t0;
    const size_t first = static_cast<size_t>(rel / kBucketNs);
    if (first < buckets.size()) {
        if (is_gc)
            buckets[first].gc_passes++;
        else
            buckets[first].reclaim_passes++;
    }
    for (size_t b = first; b < buckets.size(); b++) {
        const uint64_t bs = static_cast<uint64_t>(b) * kBucketNs;
        const uint64_t be = bs + kBucketNs;
        const uint64_t s = std::max(rel, bs);
        const uint64_t e = std::min(rel + dur, be);
        if (e <= s)
            break;
        const double ms = static_cast<double>(e - s) / 1e6;
        if (is_gc)
            buckets[b].busy_gc_ms += ms;
        else
            buckets[b].busy_reclaim_ms += ms;
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    maybeTelemetryToFileAtExit(argc, argv);
    BenchScale s;
    s.ops = envOr("PRISM_BENCH_OPS", 40000) * 8;  // long sustained run
    printScale(s);
    std::printf("== Figure 17: throughput timeline with GC (YCSB-A) ==\n");

    auto &tracer = trace::TraceRegistry::global();
    // Background rings must hold every GC/reclaim span of the run; the
    // default 16k is plenty for those threads, but client rings churn,
    // so give everyone headroom before any ring exists.
    tracer.setRingCapacity(1 << 16);
    tracer.setEnabled(true);

    FixtureOptions fx = fixtureFor(s);
    // Tight Value Storage: ~1.6x the dataset per run forces GC.
    fx.ssd_bytes = std::max<uint64_t>(
        s.records * s.value_bytes * 16 / 10 / fx.num_ssds, 64 << 20);
    ycsb::PrismStore store(fx, core::PrismOptions{});
    const auto opened = store.router().stats();
    loadDataset(store, s);

    WorkloadSpec run = WorkloadSpec::forMix(Mix::kA, s.records, s.ops);
    run.value_bytes = s.value_bytes;
    const uint64_t t0 = nowNs();
    const RunResult r =
        ycsb::runPhase(store, run, s.threads, /*timeline ms=*/250);

    // Reconstruct the background-work overlay from the rings.
    const uint32_t gc_id = tracer.internName("vs.gc_pass");
    const uint32_t reclaim_id = tracer.internName("pwb.reclaim_pass");
    std::vector<Bucket> buckets(
        static_cast<size_t>(r.duration_ns / kBucketNs) + 1);
    uint64_t gc_spans = 0, reclaim_spans = 0;
    std::set<std::string> span_names;
    for (const auto &[tid, events] : tracer.snapshotAll()) {
        for (const auto &ev : events) {
            if (ev.type != trace::EventType::kSpan)
                continue;
            span_names.insert(tracer.nameOf(ev.name_id));
            if (ev.name_id != gc_id && ev.name_id != reclaim_id)
                continue;
            if (ev.ts_ns + ev.dur_ns <= t0)
                continue;  // load-phase activity
            const bool is_gc = ev.name_id == gc_id;
            (is_gc ? gc_spans : reclaim_spans)++;
            overlay(buckets, t0, ev.ts_ns, ev.dur_ns, is_gc);
        }
    }

    const uint64_t gc_counter =
        store.router().stats().counterDelta(opened, "prism.vs.gc_passes");
    std::printf("# total: %.1f Kops/s over %.1fs, %llu GC passes "
                "(%llu gc spans, %llu reclaim spans traced)\n",
                r.throughput() / 1e3,
                static_cast<double>(r.duration_ns) / 1e9,
                static_cast<unsigned long long>(gc_counter),
                static_cast<unsigned long long>(gc_spans),
                static_cast<unsigned long long>(reclaim_spans));

    for (const auto &[t, tput] : r.timeline) {
        const size_t b = static_cast<size_t>(
            t * 1e9 / static_cast<double>(kBucketNs));
        const Bucket bk = b < buckets.size() ? buckets[b] : Bucket{};
        std::printf("t=%6.2fs  %9.1f Kops/s  gc=%6.1fms reclaim=%6.1fms"
                    "  (%llu gc, %llu reclaim passes)\n",
                    t, tput / 1e3, bk.busy_gc_ms, bk.busy_reclaim_ms,
                    static_cast<unsigned long long>(bk.gc_passes),
                    static_cast<unsigned long long>(bk.reclaim_passes));
        char row[256];
        std::snprintf(row, sizeof(row),
                      "{\"figure\":\"fig17\",\"t_s\":%.2f,"
                      "\"kops\":%.1f,\"gc_ms\":%.1f,\"reclaim_ms\":%.1f,"
                      "\"gc_passes\":%llu,\"reclaim_passes\":%llu}",
                      t, tput / 1e3, bk.busy_gc_ms, bk.busy_reclaim_ms,
                      static_cast<unsigned long long>(bk.gc_passes),
                      static_cast<unsigned long long>(bk.reclaim_passes));
        benchJsonRow(row);
    }

    char summary[256];
    std::snprintf(summary, sizeof(summary),
                  "{\"figure\":\"fig17\",\"row\":\"summary\","
                  "\"kops\":%.1f,\"gc_passes\":%llu,"
                  "\"gc_spans_traced\":%llu,"
                  "\"reclaim_spans_traced\":%llu}",
                  r.throughput() / 1e3,
                  static_cast<unsigned long long>(gc_counter),
                  static_cast<unsigned long long>(gc_spans),
                  static_cast<unsigned long long>(reclaim_spans));
    benchJsonRow(summary);

    // Layer-coverage check (the PR 3 acceptance row): a traced YCSB-A
    // run must record spans from the core op path, the PWB/chunk path,
    // the SVC, and the simulated SSDs.
    const auto has = [&](const char *prefix) {
        for (const auto &n : span_names)
            if (n.rfind(prefix, 0) == 0)
                return 1;
        return 0;
    };
    const int core = has("prism.");
    const int pwb = has("pwb.");
    const int svc = has("svc.");
    const int ssd = has("ssd.");
    const int layers = core + pwb + svc + ssd;
    std::printf("# trace layers covered: %d/4 (core=%d pwb=%d svc=%d "
                "ssd=%d, %zu distinct span names)\n",
                layers, core, pwb, svc, ssd, span_names.size());
    char cov[256];
    std::snprintf(cov, sizeof(cov),
                  "{\"figure\":\"fig17\",\"row\":\"trace_layers\","
                  "\"core\":%d,\"pwb\":%d,\"svc\":%d,\"ssd\":%d,"
                  "\"layers\":%d,\"span_names\":%zu}",
                  core, pwb, svc, ssd, layers, span_names.size());
    benchJsonRow(cov);
    return layers >= 4 ? 0 : 1;
}
