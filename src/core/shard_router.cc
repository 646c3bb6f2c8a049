#include "core/shard_router.h"

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/logging.h"
#include "common/numa.h"
#include "common/obs_server.h"
#include "common/prof.h"
#include "common/rand.h"
#include "common/trace.h"

namespace prism::core {

namespace {

bool
isPow2(int n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

}  // namespace

int
ShardRouter::resolveShardCount(int opt_shards)
{
    int n = opt_shards;
    if (n == 0) {
        if (const char *env = std::getenv("PRISM_SHARDS");
            env != nullptr && env[0] != '\0')
            n = std::atoi(env);
        if (n == 0)
            n = 1;
    }
    if (!isPow2(n) || n > 256)
        fatal("shards must be a power of two in [1,256], got %d", n);
    return n;
}

size_t
ShardRouter::shardOf(uint64_t key, size_t shard_count)
{
    // splitmix64 finalizer: the same scrambling the YCSB generators
    // use, so dense sequential key spaces still spread evenly.
    return static_cast<size_t>(hash64(key)) & (shard_count - 1);
}

ShardRouter::ShardRouter(const PrismOptions &opts,
                         std::vector<ShardBackends> backends, bool format)
    : opts_(opts)
{
    const size_t n = backends.size();
    PRISM_CHECK(n >= 1 && isPow2(static_cast<int>(n)));
    const uint64_t t0 = nowNs();

    // Process-wide wiring that shard construction (recovery) may
    // already exercise. Options only ever raise process-wide state: a
    // second store opened with defaults must not silently disarm a
    // schedule, or disable a trace the CLI or another store turned on.
    // Both fault schedules are no-ops when empty, so the disabled path
    // stays a single relaxed load at every fault site (docs/FAULTS.md).
    fault::FaultRegistry::global().armFromEnv();
    if (!opts_.fault_spec.empty()) {
        std::string err;
        if (!fault::FaultRegistry::global().armSchedule(opts_.fault_spec,
                                                        &err))
            fatal("PrismOptions::fault_spec: %s", err.c_str());
    }
    if (opts_.trace_enabled)
        trace::TraceRegistry::global().setEnabled(true);
    // Crash black-box (common/obs_server.h) when the environment asks
    // for postmortems. Harnesses that want them unconditionally
    // (prism_torture) call obs::installCrashHandlers directly.
    if (const char *pm = std::getenv("PRISM_POSTMORTEM_DIR");
        pm != nullptr && pm[0] != '\0')
        obs::installCrashHandlers(pm);

    pool_ = std::make_shared<BgPool>(opts_.bg_workers);

    auto &reg = stats::StatsRegistry::global();
    reg_pwb_used_ = &reg.gauge("prism.pwb.used_bytes", "bytes");
    reg_pwb_cap_ = &reg.gauge("prism.pwb.capacity_bytes", "bytes");
    reg_svc_used_ = &reg.gauge("prism.svc.used_bytes", "bytes");
    reg_svc_cap_ = &reg.gauge("prism.svc.capacity_bytes", "bytes");
    reg_vs_chunks_ = &reg.gauge("prism.vs.chunks_in_use", "chunks");
    reg_shard_ops_.resize(n);
    reg_shard_keys_.resize(n);
    shards_.reserve(n);
    for (size_t i = 0; i < n; i++) {
        const std::string p = "prism.shard." + std::to_string(i);
        reg_shard_ops_[i] = &reg.counter(p + ".ops", "ops");
        reg_shard_keys_[i] = &reg.gauge(p + ".keys", "keys");

        // Router-level placement beats the (usually unset) per-instance
        // preference; an explicit user numa_node wins for all shards.
        PrismOptions so = opts_;
        if (so.numa_node < 0)
            so.numa_node = numa::nodeForShard(i, n);
        reg.gauge(p + ".node", "node")
            .set(static_cast<uint64_t>(std::max(so.numa_node, 0)));
        shards_.push_back(std::make_unique<PrismDb>(
            so, backends[i].region, backends[i].devices, format, pool_));
    }
    recovery_ns_ = nowNs() - t0;

    // $PRISM_PROF_HZ arms the profiler; unset (the default) keeps it
    // entirely off — no timers, no rings.
    if (const int hz = prof::resolveHz(); hz > 0)
        prof_started_ = prof::Profiler::global().start(hz);

    // HTTP ops endpoint: one listener for all shards, with health
    // summed over every shard's device slice.
    const int obs_port = obs::resolveObsPort(opts_.obs_port);
    if (obs_port >= 0) {
        obs_ = std::make_unique<obs::ObsServer>(
            [this] { return healthReport(); }, [this] { publishGauges(); });
        std::string err;
        if (!obs_->start(obs_port, &err)) {
            PRISM_LOG_WARN("obs.server", "ops endpoint disabled: %s",
                           err.c_str());
            obs_.reset();
        }
    }
}

ShardRouter::~ShardRouter()
{
    // Ops server first: its handlers fan out over shards_.
    obs_.reset();
    // Router-level async scans hold `this`; wait them out first.
    while (async_scan_inflight_.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    if (prof_started_)
        prof::Profiler::global().stop();
    // Shards first (each quiesces its own pool tasks), then the shared
    // pool they all reference.
    shards_.clear();
    pool_->shutdown();
}

void
ShardRouter::publishOccupancy()
{
    uint64_t pwb_used = 0, pwb_cap = 0, svc_used = 0, svc_cap = 0;
    uint64_t vs_chunks = 0;
    for (size_t i = 0; i < shards_.size(); i++) {
        PrismDb &s = *shards_[i];
        reg_shard_keys_[i]->set(s.size());
        pwb_used += s.pwbUsedBytes();
        pwb_cap += s.pwbCapacityBytes();
        svc_used += s.svc().usedBytes();
        svc_cap += s.svc().capacityBytes();
        for (size_t v = 0; v < s.valueStorageCount(); v++) {
            const ValueStorage &vs = s.valueStorage(v);
            vs_chunks += vs.totalChunks() - vs.freeChunks();
        }
    }
    reg_pwb_used_->set(pwb_used);
    reg_pwb_cap_->set(pwb_cap);
    reg_svc_used_->set(svc_used);
    reg_svc_cap_->set(svc_cap);
    reg_vs_chunks_->set(vs_chunks);
}

void
ShardRouter::publishGauges()
{
    publishOccupancy();
    trace::TraceRegistry::global().publishStats();
    prof::Profiler::global().publishStats();
}

ErrorBudget
ShardRouter::errorBudget() const
{
    auto &reg = stats::StatsRegistry::global();
    ErrorBudget b;
    b.faults_fired = reg.counter("prism.fault.fired").value();
    b.ssd_io_errors = reg.counter("sim.ssd.io_errors").value();
    b.pwb_retries = reg.counter("prism.pwb.retries").value();
    b.pwb_write_failures =
        reg.counter("prism.pwb.chunk_write_failures").value();
    b.pwb_requeued_values =
        reg.counter("prism.pwb.requeued_values").value();
    b.vs_retries = reg.counter("prism.vs.retries").value();
    b.vs_degraded = reg.counter("prism.vs.degraded").value();
    b.bg_task_faults = reg.counter("prism.bg.task_faults").value();
    for (const auto &s : shards_)
        for (size_t i = 0; i < s->valueStorageCount(); i++)
            if (!s->valueStorage(i).device().healthy())
                b.degraded_devices++;
    return b;
}

obs::HealthReport
ShardRouter::healthReport() const
{
    const ErrorBudget b = errorBudget();
    obs::HealthReport r;
    r.healthy = !b.degraded();
    r.ready = r.healthy;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"status\":\"%s\",\"ready\":%s,\"shards\":%zu,"
        "\"degraded_devices\":%llu,\"devices\":%zu,"
        "\"faults_fired\":%llu,\"ssd_io_errors\":%llu,"
        "\"pwb_write_failures\":%llu,\"vs_degraded\":%llu,"
        "\"bg_task_faults\":%llu,\"recovery_ns\":%llu,"
        "\"prof_hz\":%d}",
        r.healthy ? "ok" : "degraded", r.ready ? "true" : "false",
        shards_.size(),
        static_cast<unsigned long long>(b.degraded_devices),
        valueStorageCount(),
        static_cast<unsigned long long>(b.faults_fired),
        static_cast<unsigned long long>(b.ssd_io_errors),
        static_cast<unsigned long long>(b.pwb_write_failures),
        static_cast<unsigned long long>(b.vs_degraded),
        static_cast<unsigned long long>(b.bg_task_faults),
        static_cast<unsigned long long>(recovery_ns_),
        prof::Profiler::global().running()
            ? prof::Profiler::global().hz() : 0);
    r.json = buf;
    // A RESP front-end in this process (net::RespServer) keeps its
    // listener state in the registry; its port gauge is non-zero only
    // while it listens. `prism_cli top` reads the same values.
    auto &reg = stats::StatsRegistry::global();
    if (const int64_t port = reg.gauge("prism.server.port").value()) {
        std::string l = ",\"listener\":{\"proto\":\"resp\",\"port\":" +
                        std::to_string(port);
        const auto add = [&](const char *field, auto v) {
            l += std::string(",\"") + field + "\":" + std::to_string(v);
        };
        for (const char *f : {"connections", "inflight", "tenants"})
            add(f, reg.gauge(std::string("prism.server.") + f).value());
        for (const char *f : {"accepted", "commands", "throttled"})
            add(f, reg.counter(std::string("prism.server.") + f).value());
        r.json.pop_back();
        r.json += l + "}}";
    }
    return r;
}

int
ShardRouter::obsPort() const
{
    return obs_ != nullptr ? obs_->port() : 0;
}

Status
ShardRouter::put(uint64_t key, std::string_view value)
{
    const size_t s =
        shards_.size() == 1 ? 0 : shardOf(key, shards_.size());
    reg_shard_ops_[s]->inc();
    return shards_[s]->put(key, value);
}

Status
ShardRouter::get(uint64_t key, std::string *value)
{
    const size_t s =
        shards_.size() == 1 ? 0 : shardOf(key, shards_.size());
    reg_shard_ops_[s]->inc();
    return shards_[s]->get(key, value);
}

Status
ShardRouter::del(uint64_t key)
{
    const size_t s =
        shards_.size() == 1 ? 0 : shardOf(key, shards_.size());
    reg_shard_ops_[s]->inc();
    return shards_[s]->del(key);
}

Status
ShardRouter::scan(uint64_t start_key, size_t count,
                  std::vector<std::pair<uint64_t, std::string>> *out)
{
    out->clear();
    if (shards_.size() == 1) {
        reg_shard_ops_[0]->inc();
        return shards_[0]->scan(start_key, count, out);
    }
    if (count == 0)
        return Status::ok();

    // Streaming k-way merge. Every shard's m-smallest keys >= start
    // form a superset of that shard's contribution to the global
    // count-smallest, and hash partitioning spreads any key range
    // ~uniformly, so each shard contributes ~count/n rows. The first
    // round fetches that expectation plus slack shard-parallel on the
    // shared pool; a shard whose run drains before the merge finishes
    // refetches a further batch inline, continuing past its last
    // returned key. This keeps total fetched rows near count instead
    // of the n*count a fetch-everything fan-out reads — the difference
    // is an order of magnitude of SSD traffic on scan-heavy mixes.
    const size_t n = shards_.size();
    struct Run {
        std::vector<std::pair<uint64_t, std::string>> rows;
        size_t cursor = 0;
        uint64_t next_start = 0;
        bool exhausted = false;  ///< shard has no keys past next_start
    };
    std::vector<Run> runs(n);
    std::vector<Status> sts(n);
    auto fetch = [&](size_t i, size_t batch) {
        Run &r = runs[i];
        r.rows.clear();
        r.cursor = 0;
        reg_shard_ops_[i]->inc();
        sts[i] = shards_[i]->scan(r.next_start, batch, &r.rows);
        if (!sts[i].isOk())
            return;
        if (r.rows.size() < batch)
            r.exhausted = true;
        if (!r.rows.empty()) {
            const uint64_t last = r.rows.back().first;
            if (last == UINT64_MAX)
                r.exhausted = true;
            else
                r.next_start = last + 1;
        }
    };
    const size_t first_batch = std::min(
        count, count / n + std::max<size_t>(4, count / (8 * n)));
    for (size_t i = 0; i < n; i++)
        runs[i].next_start = start_key;
    pool_->parallelFor(n, [&](size_t i) { fetch(i, first_batch); });
    for (const Status &st : sts)
        if (!st.isOk())
            return st;

    // (key, shard) min-heap. Keys are unique across shards (a key
    // lives in exactly one), so ties cannot occur.
    using HeapItem = std::pair<uint64_t, size_t>;
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        heap;
    for (size_t i = 0; i < n; i++)
        if (!runs[i].rows.empty())
            heap.emplace(runs[i].rows[0].first, i);
    out->reserve(std::min(count, static_cast<size_t>(64)));
    while (!heap.empty() && out->size() < count) {
        const auto [key, i] = heap.top();
        heap.pop();
        Run &r = runs[i];
        out->push_back(std::move(r.rows[r.cursor]));
        ++r.cursor;
        if (r.cursor == r.rows.size() && !r.exhausted &&
            out->size() < count) {
            // Run drained mid-merge: pull the next batch from this
            // shard before deciding the next global row.
            fetch(i, std::min(count - out->size(), first_batch));
            if (!sts[i].isOk())
                return sts[i];
        }
        if (r.cursor < r.rows.size())
            heap.emplace(r.rows[r.cursor].first, i);
    }
    return Status::ok();
}

Status
ShardRouter::multiGet(const std::vector<uint64_t> &keys,
                      std::vector<std::optional<std::string>> *out)
{
    if (shards_.size() == 1) {
        reg_shard_ops_[0]->inc();
        return shards_[0]->multiGet(keys, out);
    }
    out->assign(keys.size(), std::nullopt);
    if (keys.empty())
        return Status::ok();

    // Bucket keys per shard, remembering each key's caller position so
    // the fan-out can scatter results straight back into caller order.
    const size_t n = shards_.size();
    std::vector<std::vector<uint64_t>> shard_keys(n);
    std::vector<std::vector<size_t>> shard_pos(n);
    for (size_t i = 0; i < keys.size(); i++) {
        const size_t s = shardOf(keys[i], n);
        shard_keys[s].push_back(keys[i]);
        shard_pos[s].push_back(i);
    }
    std::vector<size_t> involved;
    for (size_t i = 0; i < n; i++)
        if (!shard_keys[i].empty())
            involved.push_back(i);

    std::vector<Status> sts(involved.size());
    // Scatter targets are disjoint; the mutex exists for TSan. The
    // site is interned once — the lock itself is function-local.
    static prof::LockSite *scatter_site =
        prof::internLockSite("shard.scatter");
    prof::TimedMutex out_mu{scatter_site};
    pool_->parallelFor(involved.size(), [&](size_t idx) {
        const size_t s = involved[idx];
        reg_shard_ops_[s]->inc();
        std::vector<std::optional<std::string>> vals;
        sts[idx] = shards_[s]->multiGet(shard_keys[s], &vals);
        if (!sts[idx].isOk())
            return;
        std::lock_guard<prof::TimedMutex> lock(out_mu);
        for (size_t k = 0; k < vals.size(); k++)
            (*out)[shard_pos[s][k]] = std::move(vals[k]);
    });
    for (const Status &st : sts)
        if (!st.isOk())
            return st;
    return Status::ok();
}

OpFuture
ShardRouter::asyncPut(uint64_t key, std::string_view value,
                      AsyncCallback cb)
{
    const size_t s =
        shards_.size() == 1 ? 0 : shardOf(key, shards_.size());
    reg_shard_ops_[s]->inc();
    return shards_[s]->asyncPut(key, value, std::move(cb));
}

OpFuture
ShardRouter::asyncGet(uint64_t key, AsyncCallback cb)
{
    const size_t s =
        shards_.size() == 1 ? 0 : shardOf(key, shards_.size());
    reg_shard_ops_[s]->inc();
    return shards_[s]->asyncGet(key, std::move(cb));
}

OpFuture
ShardRouter::asyncDel(uint64_t key, AsyncCallback cb)
{
    const size_t s =
        shards_.size() == 1 ? 0 : shardOf(key, shards_.size());
    reg_shard_ops_[s]->inc();
    return shards_[s]->asyncDel(key, std::move(cb));
}

OpFuture
ShardRouter::asyncScan(uint64_t start_key, size_t count, AsyncCallback cb)
{
    if (shards_.size() == 1) {
        reg_shard_ops_[0]->inc();
        return shards_[0]->asyncScan(start_key, count, std::move(cb));
    }
    // Cross-shard: run the *merged* scan as one router-level task (a
    // shard's asyncScan would only see its own keys); the destructor
    // drains async_scan_inflight_. The merged scan counts its own
    // per-shard fetches.
    auto st = std::make_shared<AsyncOpState>();
    st->callback = std::move(cb);
    OpFuture f(st);
    // The merged scan's parallelFor is caller-helping, so running it
    // inside one pool task cannot deadlock even with a single worker.
    async_scan_inflight_.fetch_add(1, std::memory_order_acq_rel);
    pool_->submit([this, st, start_key, count] {
        st->complete(scan(start_key, count, &st->rows));
        async_scan_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    });
    return f;
}

uint64_t
ShardRouter::asyncInflight() const
{
    uint64_t total =
        async_scan_inflight_.load(std::memory_order_acquire);
    for (const auto &s : shards_)
        total += s->asyncInflight();
    return total;
}

void
ShardRouter::flushAll()
{
    for (auto &s : shards_)
        s->flushAll();
}

void
ShardRouter::forceGc()
{
    for (auto &s : shards_)
        s->forceGc();
}

size_t
ShardRouter::size() const
{
    size_t total = 0;
    for (const auto &s : shards_)
        total += s->size();
    return total;
}

uint64_t
ShardRouter::ssdBytesWritten() const
{
    uint64_t total = 0;
    for (const auto &s : shards_)
        total += s->ssdBytesWritten();
    return total;
}

uint64_t
ShardRouter::nvmIndexBytes() const
{
    uint64_t total = 0;
    for (const auto &s : shards_)
        total += s->nvmIndexBytes();
    return total;
}

size_t
ShardRouter::valueStorageCount() const
{
    size_t total = 0;
    for (const auto &s : shards_)
        total += s->valueStorageCount();
    return total;
}

ValueStorage &
ShardRouter::valueStorage(size_t global_idx)
{
    for (auto &s : shards_) {
        if (global_idx < s->valueStorageCount())
            return s->valueStorage(global_idx);
        global_idx -= s->valueStorageCount();
    }
    fatal("valueStorage index %zu out of range", global_idx);
    __builtin_unreachable();
}

}  // namespace prism::core
