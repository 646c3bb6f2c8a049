/**
 * @file
 * prism_perfbench — the repository benchmark (see ../README.md).
 *
 *   prism_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Builds a one-shard Prism store on simulated devices in this process,
 * drives one workload against it, checks every reply, and prints one
 * "report" line (every metric with its sample count) followed by the
 * result line: {"correct","attempted","failed","metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * store and its devices are wrapped in the timing decorators and the
 * metrics are the per-layer ones.
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/shard_router.h"
#include "decorators.h"
#include "inputs.h"
#include "net/resp_server.h"
#include "pmem/pmem_region.h"
#include "sim/nvm_device.h"
#include "sim/ssd_device.h"
#include "wire_client.h"

namespace perfbench {
namespace {

constexpr size_t kValueBytes = 1024;  // the paper's value size
constexpr double kLimitUs = 1000;     // SLO: p99 of all ops
constexpr double kLagBoundUs = 500;   // generator validity bound (p99)
constexpr double kLedgerTolerance = 0.05;  // traced run: gap and unlinked
constexpr int kPhaseAttempts = 5;  // wire: runs of a phase the generator may spoil
// GC starts at half of each device in use, not 80%: the free half is
// over a second of writes, room for a GC that falls behind for a while
// on a busy host (the engine aborts when the last free chunk goes).
constexpr double kGcWatermark = 0.5;
// Percentiles and throughput are medians over windows of at least this
// length of the per-window figure: the steady state, which a stall that
// spoils a few windows (a shared 4-vCPU VM sees several a minute, and
// slow spells when its host is busy) leaves alone. The whole-phase wire
// tail is reported beside it as op_phase_p99_us.
constexpr double kWindowS = 0.1;
constexpr uint64_t kMB = 1ull << 20;

/** One named workload: sizes, mix and load shape. */
struct Workload {
    const char *name;
    bool wire;
    uint64_t keys;
    double theta;  ///< Zipfian skew; 0 = uniform
    double put_frac, scan_frac;
    uint64_t svc_bytes, pwb_bytes;
    int ssds;
    uint64_t ssd_bytes;
    double nominal_ops;  ///< wire: offered rate of the measured phase
    int conns;           ///< wire connections
    int threads;         ///< embedded client threads
    uint64_t warm_ops;   ///< embedded: mixed ops run during set-up
};

const Workload kWorkloads[] = {
    // Dataset 16 MB inside a 32 MB SVC, warmed: device idle.
    {"wire-hot-read", true, 16384, 0.99, 0.0, 0.0, 32 * kMB, 4 * kMB, 2,
     128 * kMB, 50000, 1, 0, 0},
    // Dataset 64 MB, 8x the 8 MB SVC, uniform: most GETs read the SSD.
    {"wire-ssd-read", true, 65536, 0.0, 0.05, 0.0, 8 * kMB, 4 * kMB, 2,
     256 * kMB, 10000, 4, 0, 0},
    // Dataset 64 MB, 8x the 4 x 2 MB PWB budget; Nutanix mix (§7.5).
    // Reclamation writes about 180 MB/s here. With 2 x 128 MB and GC
    // starting at the default 80% use, about one run in thirty saw GC
    // fall behind until reclamation took the last free chunk, and the
    // engine aborts then; see kGcWatermark.
    {"embedded-mixed", false, 65536, 0.99, 0.57, 0.02, 16 * kMB, 2 * kMB, 2,
     256 * kMB, 0, 0, 4, 200000},
};

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".bench_build/spans";
};

/** One metric as printed: value, unit and the samples behind it. */
struct Metric {
    double value = 0;
    std::string unit;
    uint64_t n = 0;
};
using Metrics = std::map<std::string, Metric>;

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// The store under test

/** KvStore over the router (the Prism fixture's forwards, our devices). */
class RouterStore : public prism::ycsb::KvStore {
  public:
    explicit RouterStore(prism::core::ShardRouter &r) : r_(r) {}
    std::string name() const override { return "Prism"; }
    prism::Status put(uint64_t k, std::string_view v) override {
        return r_.put(k, v);
    }
    prism::Status get(uint64_t k, std::string *v) override {
        return r_.get(k, v);
    }
    prism::Status del(uint64_t k) override { return r_.del(k); }
    prism::Status
    scan(uint64_t k, size_t n,
         std::vector<std::pair<uint64_t, std::string>> *out) override
    {
        return r_.scan(k, n, out);
    }
    prism::core::OpFuture
    asyncPut(uint64_t k, std::string_view v,
             prism::core::AsyncCallback cb) override
    {
        return r_.asyncPut(k, v, std::move(cb));
    }
    prism::core::OpFuture
    asyncGet(uint64_t k, prism::core::AsyncCallback cb) override
    {
        return r_.asyncGet(k, std::move(cb));
    }
    prism::core::OpFuture
    asyncDel(uint64_t k, prism::core::AsyncCallback cb) override
    {
        return r_.asyncDel(k, std::move(cb));
    }
    prism::core::OpFuture
    asyncScan(uint64_t k, size_t n, prism::core::AsyncCallback cb) override
    {
        return r_.asyncScan(k, n, std::move(cb));
    }
    void flushAll() override { r_.flushAll(); }
    uint64_t ssdBytesWritten() const override { return r_.ssdBytesWritten(); }

  private:
    prism::core::ShardRouter &r_;
};

/** One shard on a simulated NVM region and simulated SSDs. */
struct Engine {
    std::vector<std::shared_ptr<TimedDevice>> timed;  ///< traced runs only
    std::unique_ptr<prism::core::ShardRouter> router;
    std::unique_ptr<RouterStore> raw;
    std::unique_ptr<TimedStore> traced;

    Engine(const Workload &w, bool trace)
    {
        prism::core::PrismOptions o;
        o.shards = 1;
        o.pwb_size_bytes = w.pwb_bytes;
        o.svc_capacity_bytes = w.svc_bytes;
        o.hsit_capacity = w.keys * 2;
        o.vs_gc_watermark = kGcWatermark;
        std::vector<std::shared_ptr<prism::io::IoBackend>> devs;
        for (int i = 0; i < w.ssds; i++) {
            std::shared_ptr<prism::io::IoBackend> d =
                std::make_shared<prism::sim::SsdDevice>(w.ssd_bytes);
            if (trace) {
                timed.push_back(std::make_shared<TimedDevice>(d));
                d = timed.back();
            }
            devs.push_back(std::move(d));
        }
        // PWBs for the client threads plus the preload and server
        // threads, the HSIT, and room for the key index.
        const uint64_t nvm_bytes =
            w.pwb_bytes * static_cast<uint64_t>(w.threads + 4) +
            o.hsit_capacity * 32 + 48 * kMB;
        auto nvm = std::make_shared<prism::sim::NvmDevice>(nvm_bytes);
        auto region = std::make_shared<prism::pmem::PmemRegion>(nvm, true);
        std::vector<prism::core::ShardBackends> shards;
        shards.push_back({region, devs});
        router = prism::core::ShardRouter::open(o, std::move(shards));
        raw = std::make_unique<RouterStore>(*router);
        if (trace)
            traced = std::make_unique<TimedStore>(*raw);
    }

    /** What the workload talks to: the decorator when tracing. */
    prism::ycsb::KvStore &store()
    {
        return traced ? static_cast<prism::ycsb::KvStore &>(*traced) : *raw;
    }

    /** Forget every span recorded so far. */
    void dropSpans()
    {
        if (traced)
            traced->takeSpans();
        for (auto &d : timed) {
            d->takeRequestSpans();
            d->takeSubmitSpans();
        }
    }

    void setRecording(bool on)
    {
        if (traced)
            traced->setRecording(on);
        for (auto &d : timed)
            d->setRecording(on);
    }
};

/** Failures found while checking replies, across the whole run. */
struct Tally {
    std::atomic<uint64_t> attempted{0};
    std::atomic<uint64_t> failed{0};
};

// ---------------------------------------------------------------------------
// Embedded closed loop

struct MixedResult {
    std::vector<float> get_us, put_us, scan_us;
    /// By completion time, kWindowS each (puts in set_us); timed runs only.
    std::vector<WireWindow> windows;
    uint64_t ops = 0;
    double wall_s = 0;
    uint64_t proc_cpu_ns = 0;
};

/** The window an op completing at @p t belongs to, if any. */
WireWindow *
windowAt(MixedResult &r, uint64_t t0, uint64_t window_ns, uint64_t t)
{
    const size_t i = (t - t0) / window_ns;
    return i < r.windows.size() ? &r.windows[i] : nullptr;
}

/**
 * Run the Nutanix mix from @p threads closed-loop clients until
 * @p seconds pass or, when @p op_budget > 0, that many ops complete.
 */
MixedResult
runMixed(const Workload &w, prism::ycsb::KvStore &store, KeyVersions &kv,
         uint64_t seed, double seconds, uint64_t op_budget, Tally &tally)
{
    const Zipf zipf(w.keys, w.theta);
    std::atomic<uint64_t> done_ops{0};
    std::atomic<bool> stop{false};
    std::vector<MixedResult> per(static_cast<size_t>(w.threads));
    const uint64_t proc0 = clockNs(CLOCK_PROCESS_CPUTIME_ID);
    const uint64_t t0 = nowNs();
    const auto deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
    const size_t n_windows =
        op_budget > 0 ? 0 : static_cast<size_t>(seconds / kWindowS);
    const auto window_ns = static_cast<uint64_t>(kWindowS * 1e9);
    std::vector<std::thread> threads;
    for (int t = 0; t < w.threads; t++) {
        threads.emplace_back([&, t] {
            Rng rng(mix64(seed) ^ static_cast<uint64_t>(t + 1) * 0x9e37ull);
            MixedResult &r = per[static_cast<size_t>(t)];
            std::string val;
            std::vector<std::pair<uint64_t, std::string>> rows;
            r.windows.resize(n_windows);
            uint64_t local = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const double p = rng.unit();
                const uint64_t key = zipf.key(rng);
                bool ok = true;
                uint64_t t1 = nowNs(), t2;
                if (p < w.put_frac) {
                    const KeyVersions::Write wr = kv.beginWrite(key);
                    ValueCodec::encode(key, wr.version, kValueBytes, &val);
                    t1 = nowNs();
                    ok = store.put(key, val).isOk();
                    t2 = nowNs();
                    kv.endWrite(key, wr, ok);
                    r.put_us.push_back(static_cast<float>((t2 - t1) / 1e3));
                    if (WireWindow *win = windowAt(r, t0, window_ns, t2))
                        win->set_us.push_back(r.put_us.back());
                } else if (p < 1.0 - w.scan_frac) {
                    const uint64_t lo = kv.floor(key);
                    t1 = nowNs();
                    const prism::Status st = store.get(key, &val);
                    t2 = nowNs();
                    const uint64_t v =
                        st.isOk() ? ValueCodec::decode(key, val, kValueBytes)
                                  : 0;
                    ok = kv.readOk(key, lo, v);
                    if (!ok)
                        std::fprintf(stderr,
                                     "get key %llu: %s, version %llu, "
                                     "floor %llu\n",
                                     static_cast<unsigned long long>(key),
                                     st.toString().c_str(),
                                     static_cast<unsigned long long>(v),
                                     static_cast<unsigned long long>(lo));
                    r.get_us.push_back(static_cast<float>((t2 - t1) / 1e3));
                    if (WireWindow *win = windowAt(r, t0, window_ns, t2))
                        win->get_us.push_back(r.get_us.back());
                } else {
                    const uint64_t len = 1 + rng.below(99);
                    rows.clear();
                    t1 = nowNs();
                    ok = store.scan(key, len, &rows).isOk();
                    t2 = nowNs();
                    // Keys are dense, so the rows are exactly the next
                    // min(len, keys - key) keys, each with a valid value.
                    ok = ok && rows.size() == std::min(len, w.keys - key);
                    for (size_t i = 0; ok && i < rows.size(); i++) {
                        const uint64_t k = rows[i].first;
                        const uint64_t v = ValueCodec::decode(
                            k, rows[i].second, kValueBytes);
                        ok = k == key + i && kv.readOk(k, 1, v);
                    }
                    r.scan_us.push_back(static_cast<float>((t2 - t1) / 1e3));
                }
                if (WireWindow *win = windowAt(r, t0, window_ns, t2))
                    win->op_us.push_back(static_cast<float>((t2 - t1) / 1e3));
                if (!ok && tally.failed.fetch_add(1) < 5)
                    std::fprintf(stderr, "check failed: %s key %llu\n",
                                 p < w.put_frac           ? "put"
                                 : p < 1.0 - w.scan_frac ? "get"
                                                         : "scan",
                                 static_cast<unsigned long long>(key));
                local++;
                if ((local & 63) == 0) {
                    const uint64_t total = done_ops.fetch_add(64) + 64;
                    if ((op_budget > 0 && total >= op_budget) ||
                        nowNs() >= deadline)
                        stop.store(true);
                }
            }
            r.ops = local;
        });
    }
    for (auto &t : threads)
        t.join();
    MixedResult all;
    all.wall_s = static_cast<double>(nowNs() - t0) / 1e9;
    all.proc_cpu_ns = clockNs(CLOCK_PROCESS_CPUTIME_ID) - proc0;
    all.windows.resize(n_windows);
    for (auto &r : per) {
        for (size_t i = 0; i < n_windows; i++) {
            auto &dst = all.windows[i];
            const auto &src = r.windows[i];
            dst.get_us.insert(dst.get_us.end(), src.get_us.begin(),
                              src.get_us.end());
            dst.set_us.insert(dst.set_us.end(), src.set_us.begin(),
                              src.set_us.end());
            dst.op_us.insert(dst.op_us.end(), src.op_us.begin(),
                             src.op_us.end());
        }
        all.ops += r.ops;
        all.get_us.insert(all.get_us.end(), r.get_us.begin(), r.get_us.end());
        all.put_us.insert(all.put_us.end(), r.put_us.begin(), r.put_us.end());
        all.scan_us.insert(all.scan_us.end(), r.scan_us.begin(),
                           r.scan_us.end());
    }
    tally.attempted.fetch_add(all.ops);
    return all;
}

// ---------------------------------------------------------------------------
// Set-up

/** Fill every key with version 1, flush, and warm the caches. */
void
preload(const Workload &w, Engine &e, Tally &tally)
{
    std::string val;
    for (uint64_t k = 0; k < w.keys; k++) {
        ValueCodec::encode(k, 1, kValueBytes, &val);
        if (!e.router->put(k, val).isOk())
            throw std::runtime_error("preload put failed");
    }
    e.router->flushAll();
    if (!w.wire || w.theta == 0)
        return;
    // Warm the SVC until the hot set is resident. The SSD-bound set is
    // left to the wire warm-up phase, which fills the SVC with the
    // workload's own reads.
    for (int p = 0; p < 2; p++)
        for (uint64_t k = 0; k < w.keys; k++) {
            if (!e.router->get(k, &val).isOk() ||
                ValueCodec::decode(k, val, kValueBytes) != 1)
                tally.failed.fetch_add(1);
        }
}

// ---------------------------------------------------------------------------
// Metrics

void
latencyMetrics(Metrics &m, const std::string &prefix,
               const std::vector<float> &us)
{
    m[prefix + "_p50_us"] = {percentile(us, 0.50), "us", us.size()};
    m[prefix + "_p99_us"] = {percentile(us, 0.99), "us", us.size()};
}

struct Counters {
    prism::stats::StatsSnapshot before, after;
    double d(const char *name) const {
        return static_cast<double>(after.counterDelta(before, name));
    }
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/** Per-layer metrics from the decorators' spans and counter deltas. */
void
layerMetrics(Metrics &m, Engine &e, const Counters &c, uint64_t ops,
             const WireResult *wire, double client_mean_us,
             double untraced_get_p50_us, double traced_get_p50_us,
             const std::string &span_file)
{
    std::vector<StoreSpan> ss = e.traced->takeSpans();
    std::vector<DeviceSpan> ds;
    std::vector<SubmitSpan> subs;
    for (auto &d : e.timed) {
        auto a = d->takeRequestSpans();
        auto b = d->takeSubmitSpans();
        ds.insert(ds.end(), a.begin(), a.end());
        subs.insert(subs.end(), b.begin(), b.end());
    }
    const double gets = c.d("prism.gets");
    const double puts = c.d("prism.puts");
    const double kops = static_cast<double>(ops) / 1000.0;

    // Store layer.
    std::vector<float> get, hit, miss, put, scan;
    double block_us = 0;
    for (const auto &s : ss) {
        block_us += static_cast<double>(s.return_ns - s.start_ns) / 1e3;
        const auto us = static_cast<float>((s.end_ns - s.start_ns) / 1e3);
        if (s.op == OpKind::kGet) {
            get.push_back(us);
            // Only an async call shows whether it finished in its
            // synchronous prefix (SVC/PWB) or waited for the device.
            if (!s.blocking)
                (s.inline_done ? hit : miss).push_back(us);
        }
        else if (s.op == OpKind::kPut)
            put.push_back(us);
        else if (s.op == OpKind::kScan)
            scan.push_back(us);
    }
    latencyMetrics(m, "store.get", get);
    latencyMetrics(m, "store.get_hit", hit);
    latencyMetrics(m, "store.get_miss", miss);
    latencyMetrics(m, "store.put", put);
    latencyMetrics(m, "store.scan", scan);

    // Device layer.
    std::vector<float> rd, wr;
    double read_bytes = 0;
    for (const auto &d : ds) {
        const auto us = static_cast<float>((d.reap_ns - d.submit_ns) / 1e3);
        if (d.is_read) {
            rd.push_back(us);
            read_bytes += d.bytes;
        } else {
            wr.push_back(us);
        }
    }
    double read_submits = 0, reqs = 0, submit_us = 0, depth = 0;
    for (const auto &s : subs) {
        read_submits += s.reads > 0;
        reqs += s.reads + s.writes;
        submit_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        depth += static_cast<double>(s.depth);
    }
    const auto nsub = static_cast<double>(subs.size());
    m["dev.read_submits_per_kget"] = {ratio(read_submits * 1000, gets),
                                      "1/kop", subs.size()};
    m["dev.reqs_per_submit"] = {ratio(reqs, nsub), "ratio", subs.size()};
    m["dev.submit_us"] = {ratio(submit_us, nsub), "us", subs.size()};
    latencyMetrics(m, "dev.read_lat", rd);
    m["dev.write_lat_p99_us"] = {percentile(wr, 0.99), "us", wr.size()};
    m["dev.queue_depth_mean"] = {ratio(depth, nsub), "reqs", subs.size()};
    m["dev.read_bytes_per_get"] = {ratio(read_bytes, gets), "B", rd.size()};
    m["store.miss_overhead_us"] = {
        miss.empty() || rd.empty() ? 0 : mean(miss) - mean(rd), "us",
        miss.size()};

    // Engine counters.
    const auto n = [&](const char *name) {
        return static_cast<uint64_t>(c.d(name));
    };
    m["svc.hit_ratio"] = {
        ratio(c.d("prism.svc.hits"),
              c.d("prism.svc.hits") + c.d("prism.svc.misses")),
        "ratio", n("prism.svc.hits") + n("prism.svc.misses")};
    m["svc.evictions_per_kop"] = {ratio(c.d("prism.svc.evictions"), kops),
                                  "1/kop", n("prism.svc.evictions")};
    m["tcq.combine_ratio"] = {
        ratio(c.d("prism.tcq.requests"), c.d("prism.tcq.batches")), "ratio",
        n("prism.tcq.batches")};
    m["pwb.stall_frac"] = {ratio(c.d("prism.pwb.stalls"), puts), "ratio",
                           n("prism.puts")};
    const double reclaimed = c.d("prism.pwb.reclaimed_values");
    const double stale = c.d("prism.pwb.reclaim_skipped_stale");
    m["pwb.stale_skip_ratio"] = {ratio(stale, reclaimed + stale), "ratio",
                                 static_cast<uint64_t>(reclaimed + stale)};
    m["hsit.cas_retries_per_kput"] = {
        ratio(c.d("prism.hsit.cas_retries") * 1000, puts), "1/kop",
        n("prism.puts")};
    m["bg.reclaim_passes_per_kput"] = {
        ratio(c.d("prism.pwb.reclaim_passes") * 1000, puts), "1/kop",
        n("prism.pwb.reclaim_passes")};
    m["bg.gc_passes"] = {c.d("prism.vs.gc_passes"), "count",
                         n("prism.vs.gc_passes")};
    m["bg.gc_moved_bytes_per_user_byte"] = {
        ratio(c.d("prism.vs.gc_moved_bytes"),
              c.d("prism.user_bytes_written")),
        "ratio", n("prism.vs.gc_passes")};

    // Network layer and the client, wire workloads only.
    std::vector<float> net_self;
    uint64_t linked = 0, requests = 0;
    double e2e = 0, lag_sum = 0, net_sum = 0, store_sum = 0;
    if (wire != nullptr) {
        // RESP carries no request id: link the k-th request for a key to
        // the k-th store call for that key (per-key order is kept).
        std::vector<const StoreSpan *> order;
        for (const auto &s : ss)
            order.push_back(&s);
        std::sort(order.begin(), order.end(), [](auto *a, auto *b) {
            return a->start_ns < b->start_ns;
        });
        std::unordered_map<uint64_t, std::vector<const StoreSpan *>> by_key;
        for (auto *s : order)
            by_key[s->key].push_back(s);
        std::unordered_map<uint64_t, size_t> next;
        std::vector<ClientSpan> cs = wire->spans;
        std::sort(cs.begin(), cs.end(), [](const auto &a, const auto &b) {
            return a.send_ns < b.send_ns ||
                   (a.send_ns == b.send_ns && a.sched_ns < b.sched_ns);
        });
        for (const auto &c2 : cs) {
            e2e += static_cast<double>(c2.recv_ns - c2.sched_ns) / 1e3;
            auto &v = by_key[c2.key];
            size_t &i = next[c2.key];
            if (i >= v.size())
                continue;
            const StoreSpan *s = v[i++];
            // Both sides read one clock: the store call of a right link
            // lies inside its request's send..reply. A link that does not
            // is a wrong one, and the request stays unaccounted.
            if (s->start_ns < c2.send_ns || s->end_ns > c2.recv_ns)
                continue;
            const double st = static_cast<double>(s->end_ns - s->start_ns);
            const double wire_ns = static_cast<double>(c2.recv_ns - c2.send_ns);
            net_self.push_back(static_cast<float>((wire_ns - st) / 1e3));
            linked++;
            lag_sum += static_cast<double>(c2.send_ns - c2.sched_ns) / 1e3;
            net_sum += (wire_ns - st) / 1e3;
            store_sum += st / 1e3;
        }
        requests = cs.size();
    } else {
        // Embedded: the client times each blocking call around the
        // decorator, so client time = store span + the decorator's and
        // the call's own overhead; every client op should have a span.
        linked = ss.size();
        requests = ops;
        e2e = client_mean_us * static_cast<double>(ops);
        for (const auto &s : ss)
            store_sum += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
    latencyMetrics(m, "net.self", net_self);
    m["net.loop_block_us_per_op"] = {
        wire ? ratio(block_us, static_cast<double>(ops)) : 0, "us",
        wire ? ss.size() : 0};
    m["net.backpressure_per_kop"] = {
        ratio(c.d("prism.server.backpressure"), kops), "1/kop",
        n("prism.server.backpressure")};
    // The generator's own figures; the wire caller fills them in.
    m["client.send_lag_p99_us"] = {0, "us", 0};
    m["client.cpu_us_per_op"] = {0, "us", 0};
    m["client.late_phases"] = {0, "count", 0};
    // Ledger: end-to-end mean over every request = generator lag + net
    // self + store span, each part summed over the requests linked to
    // their store call and divided by all requests. A request left
    // unlinked leaves its whole time in the gap.
    const double rn = static_cast<double>(requests);
    m["ledger.e2e_mean_us"] = {ratio(e2e, rn), "us", requests};
    m["ledger.lag_mean_us"] = {ratio(lag_sum, rn), "us", linked};
    m["ledger.net_self_mean_us"] = {ratio(net_sum, rn), "us", linked};
    m["ledger.store_mean_us"] = {ratio(store_sum, rn), "us", linked};
    m["ledger.linked_frac"] = {ratio(static_cast<double>(linked), rn),
                               "ratio", requests};
    m["ledger.gap_frac"] = {
        ratio(std::fabs(e2e - lag_sum - net_sum - store_sum), e2e), "ratio",
        requests};
    // Tracing cost: GET p50 with recording on minus with it off.
    m["trace.overhead_us"] = {traced_get_p50_us - untraced_get_p50_us, "us",
                              ops};

    // Spans go to disk only now, after every timed phase: the first
    // kSpanRows of each layer, in completion order. For client rows the
    // three times are scheduled send, send and reply.
    constexpr size_t kSpanRows = 200000;
    std::ofstream f(span_file);
    f << "layer,op,key,start_ns,return_ns,end_ns,inline\n";
    if (wire != nullptr)
        for (size_t i = 0; i < wire->spans.size() && i < kSpanRows; i++) {
            const ClientSpan &c2 = wire->spans[i];
            f << "client," << (c2.is_set ? "set" : "get") << ',' << c2.key
              << ',' << c2.sched_ns << ',' << c2.send_ns << ','
              << c2.recv_ns << ",0\n";
        }
    static const char *kOps[] = {"get", "put", "del", "scan"};
    for (size_t i = 0; i < ss.size() && i < kSpanRows; i++) {
        const StoreSpan &s = ss[i];
        f << "store," << kOps[static_cast<int>(s.op)] << ',' << s.key << ','
          << s.start_ns << ',' << s.return_ns << ',' << s.end_ns << ','
          << s.inline_done << '\n';
    }
    for (size_t i = 0; i < ds.size() && i < kSpanRows; i++) {
        const DeviceSpan &d = ds[i];
        f << "dev," << (d.is_read ? "read" : "write") << ",0,"
          << d.submit_ns << ',' << d.submit_ns << ',' << d.reap_ns << ",0\n";
    }
}

// ---------------------------------------------------------------------------
// Wire workloads

/** The workload's request stream, drawn from the benchmark's own RNG. */
std::function<WireOp()>
wireStream(const Workload &w, Rng &rng, const Zipf *zipf)
{
    return [&w, &rng, zipf] {
        WireOp op;
        op.is_set = rng.unit() < w.put_frac;
        op.key = zipf ? zipf->key(rng) : rng.below(w.keys);
        return op;
    };
}

/** Window length at @p rate: kWindowS, or long enough for 2000 ops. */
double
windowFor(double rate)
{
    return std::max(kWindowS, 2000.0 / rate);
}

/** True when a phase meets the SLO (see sloLadder). */
bool
meetsSlo(const WireResult &r)
{
    return !r.backlogged && r.failed == 0 &&
           windowMedian(r.windows, &WireWindow::op_us, 0.99) <= kLimitUs &&
           r.achievedOps() >= 0.99 * r.offered_ops &&
           windowMedian(r.windows, &WireWindow::lag_us, 0.99) <= kLagBoundUs;
}

/**
 * The fixed ladder: nominal x 1.05^k for k in [-14, 48], about 0.5x to
 * 10x nominal in 5% steps. A rung passes when a phase at it completes at
 * least 99% of the offered rate with no failure and no growing backlog,
 * and the median over its windows of the per-window p99 of all ops is
 * within kLimitUs (the generator's lag p99 within kLagBoundUs); a
 * rung is given two phases before it fails.
 * @p nominal is the nominal phase, which decides the nominal rung;
 * bisection probes the rest. @return the achieved rate (ops/s) of the
 * highest passing rung, 0 if none passes.
 */
double
sloLadder(const Workload &w, WireClient &client,
          const std::function<WireOp()> &next, const WireResult &nominal,
          double probe_s, Tally &tally, std::string &log)
{
    constexpr int kLow = -14, kHigh = 48;
    int lo = -1, hi = kHigh - kLow + 1;
    double best = 0;
    if (meetsSlo(nominal)) {
        lo = -kLow;
        best = nominal.achievedOps();
    } else {
        hi = -kLow;
    }
    int attempt = 0;
    while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        const double rate = w.nominal_ops * std::pow(1.05, mid + kLow);
        WireResult r = client.run(rate, probe_s, windowFor(rate), next, true,
                                  false);
        tally.attempted += r.attempted;
        tally.failed += r.failed;
        const bool pass = meetsSlo(r);
        char line[200];
        std::snprintf(line, sizeof(line),
                      "%s{\"offered\":%.0f,\"achieved\":%.0f,\"p99_us\":%.1f,"
                      "\"lag_p99_us\":%.1f,\"backlog\":%d,\"pass\":%d}",
                      log.empty() ? "" : ",", r.offered_ops, r.achievedOps(),
                      windowMedian(r.windows, &WireWindow::op_us, 0.99),
                      windowMedian(r.windows, &WireWindow::lag_us, 0.99),
                      r.backlogged, pass);
        log += line;
        if (pass) {
            lo = mid;
            best = r.achievedOps();
            attempt = 0;
        } else if (r.failed == 0 && ++attempt < 2) {
            // A shared VM has multi-second slow spells; a rung fails
            // only when a second probe of it fails too.
            continue;
        } else {
            hi = mid;
            attempt = 0;
        }
    }
    return best;
}

/**
 * End-to-end figures of a nominal-rate phase. Percentiles are medians
 * over the phase's windows of the per-window percentile.
 */
void
nominalMetrics(Metrics &m, const WireResult &r)
{
    const auto wm = [&](const char *name, std::vector<float> WireWindow::*f,
                        double q) {
        m[name] = {windowMedian(r.windows, f, q), "us", r.all(f).size()};
    };
    wm("get_p50_us", &WireWindow::get_us, 0.50);
    wm("get_p90_us", &WireWindow::get_us, 0.90);
    wm("get_p99_us", &WireWindow::get_us, 0.99);
    wm("put_p50_us", &WireWindow::set_us, 0.50);
    wm("put_p99_us", &WireWindow::set_us, 0.99);
    wm("op_p99_us", &WireWindow::op_us, 0.99);
    wm("client.send_lag_p99_us", &WireWindow::lag_us, 0.99);
    const std::vector<float> ops = r.all(&WireWindow::op_us);
    m["op_phase_p99_us"] = {percentile(ops, 0.99), "us", ops.size()};
    m["cpu_us_per_op"] = {
        ratio(static_cast<double>(r.proc_cpu_ns - r.gen_cpu_ns) / 1e3,
              static_cast<double>(r.completed)),
        "us", r.completed};
    m["client.cpu_us_per_op"] = {
        ratio(static_cast<double>(r.gen_cpu_ns) / 1e3,
              static_cast<double>(r.completed)),
        "us", r.completed};
}

}  // namespace
}  // namespace perfbench

using namespace perfbench;

namespace {

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.out_dir = v;
        else
            throw std::runtime_error("unknown argument " + k);
    }
    return a;
}

std::string
json(double v)
{
    char b[64];
    std::snprintf(b, sizeof(b), "%.9g", v);
    return b;
}

void
printMetrics(const Metrics &m, bool with_n)
{
    std::string s = "{";
    bool first = true;
    for (const auto &[name, x] : m) {
        s += first ? "" : ",";
        first = false;
        s += "\"" + name + "\":{\"value\":" + json(x.value) + ",\"unit\":\"" +
             x.unit + "\"";
        if (with_n)
            s += ",\"n\":" + std::to_string(x.n);
        s += "}";
    }
    s += "}";
    std::printf("%s", s.c_str());
}

// The end-to-end metrics the result line carries (BENCHMARK.json);
// everything else appears in the report line only.
const char *const kEndToEnd[] = {"setup_s", "get_p50_us", "kops",
                                 "cpu_us_per_op", "peak_rss_mb"};
const char *const kPerLayer[] = {
    "client.send_lag_p99_us", "client.cpu_us_per_op", "client.late_phases",
    "net.self_p50_us",
    "net.self_p99_us", "net.loop_block_us_per_op", "net.backpressure_per_kop",
    "store.get_p50_us", "store.get_p99_us", "store.get_hit_p50_us",
    "store.get_hit_p99_us", "store.get_miss_p50_us",
    "store.get_miss_p99_us", "store.miss_overhead_us", "store.put_p50_us",
    "store.put_p99_us", "store.scan_p50_us", "store.scan_p99_us",
    "svc.hit_ratio", "svc.evictions_per_kop", "tcq.combine_ratio",
    "pwb.stall_frac", "pwb.stale_skip_ratio", "hsit.cas_retries_per_kput",
    "bg.reclaim_passes_per_kput", "bg.gc_passes",
    "bg.gc_moved_bytes_per_user_byte", "dev.read_submits_per_kget",
    "dev.reqs_per_submit", "dev.submit_us", "dev.read_lat_p50_us",
    "dev.read_lat_p99_us", "dev.write_lat_p99_us", "dev.queue_depth_mean",
    "dev.read_bytes_per_get", "ledger.e2e_mean_us", "ledger.lag_mean_us",
    "ledger.net_self_mean_us", "ledger.store_mean_us", "ledger.linked_frac",
    "ledger.gap_frac", "trace.overhead_us"};

int
run(const Args &a)
{
    const Workload *w = nullptr;
    for (const auto &x : kWorkloads)
        if (a.workload == x.name)
            w = &x;
    if (w == nullptr)
        throw std::runtime_error("unknown workload " + a.workload);
    std::filesystem::create_directories(a.out_dir);

    Tally tally;
    Metrics m;

    // Set-up, warm-up included, several times; the median is reported
    // and the last store is the one measured.
    std::vector<double> setups;
    std::unique_ptr<Engine> e;
    std::unique_ptr<KeyVersions> kv;
    const int n_setups = a.trace ? 1 : 3;
    for (int i = 0; i < n_setups; i++) {
        e.reset();
        const uint64_t t0 = nowNs();
        e = std::make_unique<Engine>(*w, a.trace);
        kv = std::make_unique<KeyVersions>(w->keys);
        preload(*w, *e, tally);
        // Embedded: a fixed number of mixed ops, so reclamation and GC
        // reach their steady state before timing.
        if (!w->wire)
            runMixed(*w, e->store(), *kv, a.seed ^ 0x5eed, 1e9, w->warm_ops,
                     tally);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    m["setup_s"] = {percentile(setups, 0.5), "s", setups.size()};

    Counters c;
    uint64_t phase_ops = 0;
    double untraced_p50 = 0, traced_p50 = 0;
    const std::string span_file =
        a.out_dir + "/spans-" + std::string(w->name) + ".csv";

    if (w->wire) {
        prism::net::RespServer server(e->store());
        std::string err;
        if (!server.start({}, &err))
            throw std::runtime_error("server start: " + err);
        Rng rng(mix64(a.seed) ^ 0x77697265ull);
        std::unique_ptr<Zipf> zipf;
        if (w->theta > 0)
            zipf = std::make_unique<Zipf>(w->keys, w->theta);
        const auto next = wireStream(*w, rng, zipf.get());
        {
            WireClient client(server.port(), w->conns, kValueBytes, *kv);
            const auto account = [&](const WireResult &r) {
                tally.attempted += r.attempted;
                tally.failed += r.failed;
            };
            // Warm the connections, the loop and (SSD-bound) the SVC;
            // not measured.
            account(client.run(w->nominal_ops, 0.5, 0.5, next, false,
                               false));
            // A phase in which the generator ran late measures the
            // generator: it is counted, discarded and run again, at most
            // kPhaseAttempts times in all. A shared VM has slow spells of
            // tens of seconds.
            int late_phases = 0;
            const auto onTime = [&](const std::function<WireResult()> &phase) {
                for (;;) {
                    WireResult r = phase();
                    account(r);
                    if (windowMedian(r.windows, &WireWindow::lag_us, 0.99) <=
                            kLagBoundUs ||
                        ++late_phases == kPhaseAttempts)
                        return r;
                }
            };
            const double phase_s = 0.45 * a.seconds;
            if (!a.trace) {
                uint64_t ssd0 = 0;
                WireResult r = onTime([&] {
                    ssd0 = e->router->ssdBytesWritten();
                    c.before = e->router->stats();
                    WireResult x = client.run(w->nominal_ops, phase_s,
                                              windowFor(w->nominal_ops), next,
                                              false, false);
                    c.after = e->router->stats();
                    return x;
                });
                nominalMetrics(m, r);
                // Before the ladder: its overload probes buffer requests
                // in the generator and the server.
                m["peak_rss_mb"] = {peakRssMb(), "MB", 1};

                m["ssd_write_amp"] = {
                    ratio(static_cast<double>(e->router->ssdBytesWritten() -
                                              ssd0),
                          c.d("prism.user_bytes_written")),
                    "ratio", m["put_p50_us"].n};
                std::string log;
                const double slo = sloLadder(*w, client, next, r,
                                             0.04 * a.seconds, tally, log);
                m["slo_kops"] = {slo / 1000.0, "kops/s", 0};
                m["kops"] = {r.achievedOps() / 1000.0, "kops/s", r.completed};
                std::printf("ladder [%s]\n", log.c_str());
            } else {
                // Traced phases are shorter: every span stays in memory.
                WireResult off = client.run(w->nominal_ops, 0.2 * a.seconds,
                                            windowFor(w->nominal_ops), next,
                                            false, false);
                account(off);
                WireResult on = onTime([&] {
                    e->dropSpans();
                    e->setRecording(true);
                    c.before = e->router->stats();
                    WireResult x = client.run(w->nominal_ops, 0.2 * a.seconds,
                                              windowFor(w->nominal_ops), next,
                                              false, true);
                    c.after = e->router->stats();
                    e->setRecording(false);
                    return x;
                });
                phase_ops = on.completed;
                untraced_p50 = windowMedian(off.windows, &WireWindow::get_us, 0.5);
                traced_p50 = windowMedian(on.windows, &WireWindow::get_us, 0.5);
                layerMetrics(m, *e, c, phase_ops, &on, 0, untraced_p50,
                             traced_p50, span_file);
                // The generator's own figures from the traced phase.
                Metrics gen;
                nominalMetrics(gen, on);
                m["client.send_lag_p99_us"] = gen["client.send_lag_p99_us"];
                m["client.cpu_us_per_op"] = gen["client.cpu_us_per_op"];
            }
            m["client.late_phases"] = {static_cast<double>(late_phases),
                                       "count",
                                       static_cast<uint64_t>(late_phases)};
        }
        server.stop();
    } else {
        const uint64_t ssd0 = e->router->ssdBytesWritten();
        if (!a.trace) {
            c.before = e->router->stats();
            MixedResult r = runMixed(*w, e->store(), *kv, a.seed,
                                     0.5 * a.seconds, 0, tally);
            c.after = e->router->stats();
            // Like the wire figures, medians over kWindowS windows;
            // scans (2%) are too few per window and use the whole phase.
            const auto wm = [&](const char *name,
                                std::vector<float> WireWindow::*f, double q,
                                size_t n) {
                m[name] = {windowMedian(r.windows, f, q), "us", n};
            };
            wm("get_p50_us", &WireWindow::get_us, 0.50, r.get_us.size());
            wm("get_p90_us", &WireWindow::get_us, 0.90, r.get_us.size());
            wm("get_p99_us", &WireWindow::get_us, 0.99, r.get_us.size());
            wm("put_p50_us", &WireWindow::set_us, 0.50, r.put_us.size());
            wm("put_p99_us", &WireWindow::set_us, 0.99, r.put_us.size());
            wm("op_p99_us", &WireWindow::op_us, 0.99, r.ops);
            latencyMetrics(m, "scan", r.scan_us);
            std::vector<float> per_window;
            for (const auto &win : r.windows)
                per_window.push_back(
                    static_cast<float>(win.op_us.size() / kWindowS / 1000.0));
            m["kops"] = {percentile(per_window, 0.5), "kops/s", r.ops};
            // The client threads are the generator and also run the
            // store's code, so nothing is subtracted here.
            m["cpu_us_per_op"] = {
                ratio(static_cast<double>(r.proc_cpu_ns) / 1e3,
                      static_cast<double>(r.ops)),
                "us", r.ops};
            m["ssd_write_amp"] = {
                ratio(static_cast<double>(e->router->ssdBytesWritten() - ssd0),
                      c.d("prism.user_bytes_written")),
                "ratio", r.put_us.size()};
        } else {
            MixedResult off = runMixed(*w, e->store(), *kv, a.seed,
                                       0.2 * a.seconds, 0, tally);
            e->setRecording(true);
            c.before = e->router->stats();
            MixedResult on = runMixed(*w, e->store(), *kv, a.seed + 1,
                                      0.2 * a.seconds, 0, tally);
            c.after = e->router->stats();
            e->setRecording(false);
            phase_ops = on.ops;
            std::vector<float> all = on.get_us;
            all.insert(all.end(), on.put_us.begin(), on.put_us.end());
            all.insert(all.end(), on.scan_us.begin(), on.scan_us.end());
            layerMetrics(m, *e, c, phase_ops, nullptr, mean(all),
                         percentile(off.get_us, 0.5),
                         percentile(on.get_us, 0.5), span_file);
        }
    }

    const uint64_t attempted = tally.attempted.load();
    const uint64_t failed = tally.failed.load();
    m["error_frac"] = {ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
                       "ratio", attempted};
    m["nvm_bytes_per_key"] = {
        ratio(static_cast<double>(e->router->nvmIndexBytes()),
              static_cast<double>(e->router->size())),
        "B", e->router->size()};
    if (!m.count("peak_rss_mb"))
        m["peak_rss_mb"] = {peakRssMb(), "MB", 1};
    e.reset();

    std::printf("report ");
    printMetrics(m, true);
    std::printf("\n");
    std::fflush(stdout);
    // An invalid run prints no result: a late generator makes the
    // latencies its own, and a ledger that does not close means the
    // layer figures do not describe the requests.
    if (w->wire && m["client.send_lag_p99_us"].value > kLagBoundUs) {
        std::fprintf(stderr,
                     "invalid: generator send lag p99 %.1f us is over its "
                     "%.0f us bound; the latencies measure the generator\n",
                     m["client.send_lag_p99_us"].value, kLagBoundUs);
        return 3;
    }
    if (a.trace && (m["ledger.gap_frac"].value > kLedgerTolerance ||
                    m["ledger.linked_frac"].value < 1 - kLedgerTolerance)) {
        std::fprintf(stderr,
                     "invalid: the ledger does not close (gap %.4f, linked "
                     "%.4f; tolerance %.2f)\n",
                     m["ledger.gap_frac"].value,
                     m["ledger.linked_frac"].value, kLedgerTolerance);
        return 3;
    }

    Metrics out;
    if (a.trace) {
        for (const char *k : kPerLayer)
            out[k] = m[k];
    } else {
        for (const char *k : kEndToEnd)
            out[k] = m[k];
    }
    const bool correct = failed == 0 && attempted > 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
                static_cast<unsigned long long>(failed));
    printMetrics(out, false);
    std::printf("}\n");
    std::fflush(stdout);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "prism_perfbench: %s\n", ex.what());
        return 1;
    }
}
