#include "net/resp_server.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/event_loop.h"
#include "common/log.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/token_bucket.h"

namespace prism::net {

namespace {

/** Per-connection unsent-reply high-water mark (backpressure). */
constexpr size_t kOutHwmBytes = 4u << 20;

/** Strict decimal uint64 (wire keys, cursors, counts). */
bool
parseU64(std::string_view s, uint64_t *out)
{
    if (s.empty() || s.size() > 20)
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t d = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

std::string
upperAscii(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return out;
}

/** Metric-name-safe tenant slug: [a-zA-Z0-9_-], capped at 32 chars. */
std::string
sanitizeTenant(std::string_view name)
{
    std::string out;
    out.reserve(std::min<size_t>(name.size(), 32));
    for (char c : name) {
        if (out.size() >= 32)
            break;
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("_") : out;
}

/** Everything one tenant namespace owns. Server-thread-only. */
struct TenantState {
    uint16_t id = 0;
    std::string name;
    stats::Counter *ops = nullptr;
    stats::Counter *reads = nullptr;
    stats::Counter *writes = nullptr;
    stats::Counter *scans = nullptr;
    stats::Counter *errors = nullptr;
    stats::Counter *throttled = nullptr;
    std::unique_ptr<TokenBucket> quota;  ///< null = unlimited
};

/** One queued command awaiting its reply slot in request order. */
struct Pending {
    enum class Kind { kInline, kPut, kGet, kDel, kMget, kScan };
    Kind kind = Kind::kInline;
    std::string reply;               ///< pre-rendered for kInline
    core::OpFuture future;           ///< put / get / scan
    std::vector<core::OpFuture> futures;  ///< del / mget fan-out
    TenantState *tenant = nullptr;
    size_t scan_count = 0;           ///< requested COUNT (kScan)

    bool
    ready() const
    {
        switch (kind) {
          case Kind::kInline:
            return true;
          case Kind::kPut:
          case Kind::kGet:
          case Kind::kScan:
            return future.valid() && future.ready();
          case Kind::kDel:
          case Kind::kMget:
            for (const auto &f : futures)
                if (!f.valid() || !f.ready())
                    return false;
            return true;
        }
        return true;
    }
};

/** One client; its `close` is set by QUIT or a protocol error. */
struct Conn final : EventLoop::Conn {
    RespParser parser;
    std::deque<std::unique_ptr<Pending>> pipeline;
    TenantState *tenant = nullptr;  ///< AUTH-selected namespace
    bool paused = false;            ///< reads paused by backpressure
};

}  // namespace

struct RespServer::Impl final : EventLoop::Handler {
    ycsb::KvStore &store;
    Options opts;
    uint64_t start_ns = 0;
    std::vector<std::string> args;  ///< loop thread: the command parsed

    /**
     * Store operations issued but not yet completed. Completion
     * callbacks hold a raw Impl* and call loop.wake(), so stop() drains
     * this to zero before the Impl (and the loop's eventfd) can go away.
     */
    std::atomic<uint64_t> store_inflight{0};

    /** Tenant namespaces; server-thread-only after start(). */
    std::map<std::string, std::unique_ptr<TenantState>> tenants;
    std::map<std::string, uint64_t> quota_overrides;
    uint16_t next_tenant_id = 1;

    stats::StatsRegistry &reg = stats::StatsRegistry::global();
    /** The listener's facts, which the loop keeps. */
    const EventLoop::Meters meters{
        .port = &reg.gauge("prism.server.port"),
        .connections = &reg.gauge("prism.server.connections"),
        .accepted = &reg.counter("prism.server.accepted", "conns"),
        .rejected = &reg.counter("prism.server.rejected", "conns"),
        .bytes_in = &reg.counter("prism.server.bytes_in", "bytes"),
        .bytes_out = &reg.counter("prism.server.bytes_out", "bytes")};
    stats::Counter *c_commands =
        &reg.counter("prism.server.commands", "requests");
    stats::Counter *c_throttled =
        &reg.counter("prism.server.throttled", "requests");
    stats::Counter *c_parse_errors =
        &reg.counter("prism.server.parse_errors", "requests");
    stats::Counter *c_backpressure =
        &reg.counter("prism.server.backpressure", "events");
    stats::Gauge *g_inflight = &reg.gauge("prism.server.inflight");
    stats::Gauge *g_tenants = &reg.gauge("prism.server.tenants");

    /** Declared last: destroyed (stopped) before the state above. */
    EventLoop loop{*this};

    explicit Impl(ycsb::KvStore &s) : store(s) {}

    std::unique_ptr<EventLoop::Conn>
    open() override
    {
        return std::make_unique<Conn>();
    }

    void serve(EventLoop::Conn &c, std::string_view input) override;
    bool wantsInput(EventLoop::Conn &c) override;

    bool
    busy(const EventLoop::Conn &c) const override
    {
        // A connection with commands in flight stays open, even dead:
        // Pending futures are only safe to destroy on this thread once
        // their completions have run, and flush() drains them in order.
        return !static_cast<const Conn &>(c).pipeline.empty();
    }

    core::AsyncCallback completionCb();

    TenantState *tenantByName(std::string_view name);
    bool resolveKey(Conn &c, std::string_view arg, uint64_t *store_key,
                    TenantState **tenant, std::string *err);

    void dispatch(Conn &c, std::vector<std::string> &args);
    void flush(Conn &c);
    void render(Conn &c, Pending &p);
    std::string renderInfo();
};

core::AsyncCallback
RespServer::Impl::completionCb()
{
    // Runs on whichever thread completes the op (often a Value-Storage
    // completion thread; the loop thread itself for an inline hit). It
    // must not touch any Conn/Pending fields — readiness is read from
    // the future's own shared state — so its whole job is waking the
    // loop. The inflight decrement comes AFTER the wake: stop() keeps
    // the Impl and the loop's eventfd alive until inflight hits zero.
    return [this](const Status &) {
        loop.wake();
        g_inflight->sub(1);
        store_inflight.fetch_sub(1, std::memory_order_release);
    };
}

TenantState *
RespServer::Impl::tenantByName(std::string_view raw)
{
    const std::string name = sanitizeTenant(raw);
    auto it = tenants.find(name);
    if (it != tenants.end())
        return it->second.get();
    // Bound the namespace table: tenant ids are 16-bit, and every
    // tenant mints a stats family, so a key-spraying client must not
    // be able to grow either without limit.
    if (tenants.size() >= 4096 || next_tenant_id == 0)
        return nullptr;
    auto t = std::make_unique<TenantState>();
    t->id = (name == "default") ? 0 : next_tenant_id++;
    t->name = name;
    auto &reg = stats::StatsRegistry::global();
    const std::string p = "prism.tenant." + name + ".";
    t->ops = &reg.counter(p + "ops", "requests");
    t->reads = &reg.counter(p + "reads", "requests");
    t->writes = &reg.counter(p + "writes", "requests");
    t->scans = &reg.counter(p + "scans", "requests");
    t->errors = &reg.counter(p + "errors", "requests");
    t->throttled = &reg.counter(p + "throttled", "requests");
    uint64_t rate = opts.quota_default_ops;
    if (auto q = quota_overrides.find(name); q != quota_overrides.end())
        rate = q->second;
    if (rate > 0)
        t->quota = std::make_unique<TokenBucket>(
            static_cast<double>(rate),
            std::max<uint64_t>(rate, 1000));
    TenantState *out = t.get();
    tenants.emplace(name, std::move(t));
    g_tenants->set(static_cast<int64_t>(tenants.size()));
    return out;
}

bool
RespServer::Impl::resolveKey(Conn &c, std::string_view arg,
                             uint64_t *store_key, TenantState **tenant,
                             std::string *err)
{
    TenantState *t = c.tenant;
    std::string_view keypart = arg;
    // Prefix convention: "<tenant>:<key>" routes one key into another
    // namespace without AUTH (and wins over the connection's AUTH).
    if (const size_t colon = arg.find(':');
        colon != std::string_view::npos) {
        t = tenantByName(arg.substr(0, colon));
        if (t == nullptr) {
            *err = "ERR tenant table full";
            return false;
        }
        keypart = arg.substr(colon + 1);
    }
    if (t == nullptr)
        t = tenantByName("default");
    uint64_t key48;
    if (!parseU64(keypart, &key48) || key48 > kKeyMask) {
        *err = "ERR key must be a decimal integer below 2^48";
        return false;
    }
    *store_key = tenantKey(t->id, key48);
    *tenant = t;
    return true;
}

void
RespServer::Impl::render(Conn &c, Pending &p)
{
    switch (p.kind) {
      case Pending::Kind::kInline:
        c.out += p.reply;
        return;
      case Pending::Kind::kPut: {
        const Status &st = p.future.status();
        if (st.isOk()) {
            appendSimple(&c.out, "OK");
        } else {
            appendError(&c.out, "ERR " + st.toString());
            if (p.tenant)
                p.tenant->errors->inc();
        }
        return;
      }
      case Pending::Kind::kGet: {
        const Status &st = p.future.status();
        if (st.isOk())
            appendBulk(&c.out, p.future.value());
        else if (st.isNotFound())
            appendNull(&c.out);
        else {
            appendError(&c.out, "ERR " + st.toString());
            if (p.tenant)
                p.tenant->errors->inc();
        }
        return;
      }
      case Pending::Kind::kDel: {
        int64_t removed = 0;
        for (const auto &f : p.futures) {
            if (f.status().isOk())
                removed++;
            else if (!f.status().isNotFound() && p.tenant)
                p.tenant->errors->inc();
        }
        appendInteger(&c.out, removed);
        return;
      }
      case Pending::Kind::kMget: {
        appendArrayHeader(&c.out, p.futures.size());
        for (auto &f : p.futures) {
            if (f.status().isOk())
                appendBulk(&c.out, f.value());
            else
                appendNull(&c.out);
        }
        return;
      }
      case Pending::Kind::kScan: {
        const Status &st = p.future.status();
        if (!st.isOk() && !st.isNotFound()) {
            appendError(&c.out, "ERR " + st.toString());
            if (p.tenant)
                p.tenant->errors->inc();
            return;
        }
        const auto &rows = p.future.rows();
        const uint16_t tid = p.tenant ? p.tenant->id : 0;
        // The namespace is the key's high bits, so this tenant's rows
        // are exactly the prefix that still carries its id.
        size_t in_range = 0;
        while (in_range < rows.size() &&
               (rows[in_range].first >> kKeyBits) == tid)
            in_range++;
        uint64_t next_cursor = 0;
        if (in_range == rows.size() && rows.size() >= p.scan_count &&
            !rows.empty()) {
            const uint64_t last48 = rows.back().first & kKeyMask;
            next_cursor = (last48 == kKeyMask) ? 0 : last48 + 1;
        }
        appendArrayHeader(&c.out, 2);
        appendBulk(&c.out, std::to_string(next_cursor));
        appendArrayHeader(&c.out, in_range);
        for (size_t i = 0; i < in_range; i++)
            appendBulk(&c.out,
                       std::to_string(rows[i].first & kKeyMask));
        return;
      }
    }
}

std::string
RespServer::Impl::renderInfo()
{
    char line[192];
    std::string s;
    s += "# Server\r\n";
    std::snprintf(line, sizeof(line), "prism_version:net-1\r\n"
                  "tcp_port:%d\r\n",
                  loop.port());
    s += line;
    std::snprintf(line, sizeof(line), "uptime_in_seconds:%llu\r\n",
                  static_cast<unsigned long long>(
                      (nowNs() - start_ns) / 1000000000ull));
    s += line;
    s += "# Clients\r\n";
    std::snprintf(line, sizeof(line),
                  "connected_clients:%lld\r\n"
                  "inflight_commands:%lld\r\n",
                  static_cast<long long>(meters.connections->value()),
                  static_cast<long long>(g_inflight->value()));
    s += line;
    s += "# Stats\r\n";
    std::snprintf(line, sizeof(line),
                  "total_connections_received:%llu\r\n"
                  "total_commands_processed:%llu\r\n",
                  static_cast<unsigned long long>(meters.accepted->value()),
                  static_cast<unsigned long long>(c_commands->value()));
    s += line;
    std::snprintf(line, sizeof(line),
                  "total_net_input_bytes:%llu\r\n"
                  "total_net_output_bytes:%llu\r\n",
                  static_cast<unsigned long long>(meters.bytes_in->value()),
                  static_cast<unsigned long long>(meters.bytes_out->value()));
    s += line;
    std::snprintf(line, sizeof(line),
                  "throttled_commands:%llu\r\n"
                  "parse_errors:%llu\r\n",
                  static_cast<unsigned long long>(c_throttled->value()),
                  static_cast<unsigned long long>(
                      c_parse_errors->value()));
    s += line;
    s += "# Tenants\r\n";
    for (const auto &[name, t] : tenants) {
        std::snprintf(line, sizeof(line),
                      "tenant_%s:ops=%llu,errors=%llu,throttled=%llu,"
                      "quota_ops=%.0f\r\n",
                      name.c_str(),
                      static_cast<unsigned long long>(t->ops->value()),
                      static_cast<unsigned long long>(t->errors->value()),
                      static_cast<unsigned long long>(
                          t->throttled->value()),
                      t->quota ? t->quota->rate() : 0.0);
        s += line;
    }
    return s;
}

void
RespServer::Impl::dispatch(Conn &c, std::vector<std::string> &args)
{
    c_commands->inc();
    auto p = std::make_unique<Pending>();
    auto inlineReply = [&](auto append, auto &&...v) {
        append(&p->reply, std::forward<decltype(v)>(v)...);
    };
    const std::string cmd = upperAscii(args[0]);
    const size_t n = args.size();

    auto wrongArity = [&] {
        appendError(&p->reply,
                    "ERR wrong number of arguments for '" + cmd + "'");
    };
    auto admitted = [&](TenantState *t, bool write_op, bool scan_op) {
        t->ops->inc();
        (scan_op ? t->scans : write_op ? t->writes : t->reads)->inc();
        if (t->quota && !t->quota->tryAcquire(1)) {
            c_throttled->inc();
            t->throttled->inc();
            appendError(&p->reply,
                        "THROTTLED tenant '" + t->name +
                            "' over its ops/s quota");
            return false;
        }
        return true;
    };
    auto track = [&] {
        // One pipeline slot per sub-operation would break reply
        // arity, so fan-out commands count each future individually.
        const uint64_t subs =
            p->kind == Pending::Kind::kDel ||
                    p->kind == Pending::Kind::kMget
                ? p->futures.size()
                : 1;
        store_inflight.fetch_add(subs, std::memory_order_relaxed);
        g_inflight->add(static_cast<int64_t>(subs));
    };

    if (cmd == "PING") {
        if (n <= 1)
            inlineReply(appendSimple, "PONG");
        else
            inlineReply(appendBulk, args[1]);
    } else if (cmd == "ECHO") {
        if (n != 2)
            wrongArity();
        else
            inlineReply(appendBulk, args[1]);
    } else if (cmd == "AUTH") {
        // AUTH <tenant> (RESP2) or AUTH <tenant> <password> (ACL-style
        // clients); the password is accepted and ignored.
        if (n != 2 && n != 3) {
            wrongArity();
        } else if (TenantState *t = tenantByName(args[1])) {
            c.tenant = t;
            inlineReply(appendSimple, "OK");
        } else {
            inlineReply(appendError, "ERR tenant table full");
        }
    } else if (cmd == "SELECT") {
        // Single-database store; accept and ignore for client compat.
        inlineReply(appendSimple, "OK");
    } else if (cmd == "COMMAND") {
        inlineReply(appendArrayHeader, size_t{0});
    } else if (cmd == "INFO") {
        inlineReply(appendBulk, renderInfo());
    } else if (cmd == "QUIT") {
        inlineReply(appendSimple, "OK");
        c.close = true;
    } else if (cmd == "SET") {
        uint64_t key;
        std::string err;
        if (n != 3)
            wrongArity();
        else if (!resolveKey(c, args[1], &key, &p->tenant, &err))
            inlineReply(appendError, err);
        else if (admitted(p->tenant, true, false)) {
            p->kind = Pending::Kind::kPut;
            track();
            p->future = store.asyncPut(key, args[2], completionCb());
        }
    } else if (cmd == "GET") {
        uint64_t key;
        std::string err;
        if (n != 2)
            wrongArity();
        else if (!resolveKey(c, args[1], &key, &p->tenant, &err))
            inlineReply(appendError, err);
        else if (admitted(p->tenant, false, false)) {
            p->kind = Pending::Kind::kGet;
            track();
            p->future = store.asyncGet(key, completionCb());
        }
    } else if (cmd == "DEL" || cmd == "MGET") {
        std::vector<uint64_t> keys;
        std::string err;
        if (n < 2) {
            wrongArity();
        } else {
            for (size_t i = 1; i < n && err.empty(); i++) {
                uint64_t key;
                TenantState *t;
                if (!resolveKey(c, args[i], &key, &t, &err))
                    break;
                if (p->tenant == nullptr)
                    p->tenant = t;  // accounting: first key's tenant
                keys.push_back(key);
            }
            if (!err.empty()) {
                p->tenant = nullptr;
                inlineReply(appendError, err);
            } else if (admitted(p->tenant, cmd == "DEL", false)) {
                p->kind = cmd == "DEL" ? Pending::Kind::kDel
                                       : Pending::Kind::kMget;
                p->futures.resize(keys.size());
                track();
                for (size_t i = 0; i < keys.size(); i++)
                    p->futures[i] =
                        cmd == "DEL"
                            ? store.asyncDel(keys[i], completionCb())
                            : store.asyncGet(keys[i], completionCb());
            }
        }
    } else if (cmd == "SCAN") {
        uint64_t cursor = 0, count = 10;
        std::string err;
        bool ok = n >= 2;
        TenantState *t = c.tenant != nullptr ? c.tenant
                                             : tenantByName("default");
        if (ok) {
            std::string_view cur = args[1];
            if (const size_t colon = cur.find(':');
                colon != std::string_view::npos) {
                t = tenantByName(cur.substr(0, colon));
                cur = cur.substr(colon + 1);
            }
            ok = t != nullptr && parseU64(cur, &cursor) &&
                 cursor <= kKeyMask;
        }
        for (size_t i = 2; ok && i < n; i += 2) {
            if (upperAscii(args[i]) == "COUNT" && i + 1 < n)
                ok = parseU64(args[i + 1], &count) && count > 0;
            else
                ok = false;
        }
        if (n < 2 || !ok || t == nullptr) {
            inlineReply(appendError,
                        "ERR syntax: SCAN <cursor> [COUNT <n>]");
        } else if (admitted(t, false, true)) {
            p->kind = Pending::Kind::kScan;
            p->tenant = t;
            p->scan_count = std::min<uint64_t>(count, 1000);
            track();
            p->future = store.asyncScan(tenantKey(t->id, cursor),
                                        p->scan_count, completionCb());
        }
    } else {
        inlineReply(appendError, "ERR unknown command '" + cmd + "'");
    }
    c.pipeline.push_back(std::move(p));
}

void
RespServer::Impl::flush(Conn &c)
{
    while (!c.pipeline.empty() && c.pipeline.front()->ready()) {
        render(c, *c.pipeline.front());
        c.pipeline.pop_front();
    }
}

void
RespServer::Impl::serve(EventLoop::Conn &base, std::string_view input)
{
    Conn &c = static_cast<Conn &>(base);
    if (!input.empty())
        c.parser.feed(input);
    const size_t cap = static_cast<size_t>(opts.inflight_cap);
    // Dispatch / flush until neither makes progress: a flush can free
    // pipeline slots that let buffered pipelined commands dispatch,
    // which can complete inline and allow another flush.
    bool progress = true;
    while (progress) {
        progress = false;
        while (!c.close && c.pipeline.size() < cap) {
            const ParseResult r = c.parser.next(&args);
            if (r == ParseResult::kCommand) {
                dispatch(c, args);
                progress = true;
                continue;
            }
            if (r == ParseResult::kError) {
                // Framing is lost; answer what we can, then the error,
                // then hang up.
                c_parse_errors->inc();
                auto p = std::make_unique<Pending>();
                appendError(&p->reply, c.parser.error());
                c.pipeline.push_back(std::move(p));
                c.close = true;
                progress = true;
            }
            break;
        }
        const size_t before = c.pipeline.size();
        flush(c);
        progress = progress || c.pipeline.size() != before;
    }
}

bool
RespServer::Impl::wantsInput(EventLoop::Conn &base)
{
    Conn &c = static_cast<Conn &>(base);
    const bool full =
        c.pipeline.size() >= static_cast<size_t>(opts.inflight_cap) ||
        c.unsent() > kOutHwmBytes;
    if (full && !c.paused)
        c_backpressure->inc();
    c.paused = full;
    return !full;
}

RespServer::RespServer(ycsb::KvStore &store)
    : impl_(new Impl(store))
{
}

RespServer::~RespServer()
{
    stop();
    delete impl_;
}

bool
RespServer::start(const Options &opts, std::string *err)
{
    PRISM_CHECK(port() == 0);
    impl_->opts = opts;
    impl_->start_ns = nowNs();

    // Parse "name=rate,name=rate" quota overrides, and pre-register
    // the named tenants so INFO shows them before their first request.
    impl_->quota_overrides.clear();
    {
        std::string_view spec = opts.quota_spec;
        while (!spec.empty()) {
            size_t comma = spec.find(',');
            std::string_view item = spec.substr(0, comma);
            spec = comma == std::string_view::npos
                       ? std::string_view{}
                       : spec.substr(comma + 1);
            const size_t eq = item.find('=');
            uint64_t rate;
            if (eq == std::string_view::npos || eq == 0 ||
                !parseU64(item.substr(eq + 1), &rate)) {
                if (err)
                    *err = "bad quota spec item: " + std::string(item);
                return false;
            }
            impl_->quota_overrides.emplace(
                sanitizeTenant(item.substr(0, eq)), rate);
        }
    }
    impl_->tenantByName("default");
    for (const auto &[name, rate] : impl_->quota_overrides)
        impl_->tenantByName(name);

    EventLoop::Config cfg;
    cfg.bind_addr = opts.bind_addr;
    cfg.port = opts.port;
    cfg.max_conns = static_cast<size_t>(opts.max_connections);
    cfg.refusal = "-ERR max connections reached\r\n";
    cfg.thread_name = "prism-resp";
    cfg.meters = impl_->meters;
    if (!impl_->loop.start(cfg, err))
        return false;
    PRISM_LOG_INFO("net.server",
                   "RESP listening on %s:%d (inflight cap %d, "
                   "max conns %d)",
                   opts.bind_addr.c_str(), port(), opts.inflight_cap,
                   opts.max_connections);
    return true;
}

void
RespServer::stop()
{
    impl_->loop.stop();
    // The loop has drained every connection's pipeline, but a
    // completion callback may still be between its wake() and its
    // inflight decrement; the Impl stays alive until all are out.
    while (impl_->store_inflight.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
}

int
RespServer::port() const
{
    return impl_->loop.port();
}

}  // namespace prism::net
