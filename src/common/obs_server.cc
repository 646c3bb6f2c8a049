#include "common/obs_server.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <vector>

#include "common/event_loop.h"
#include "common/fault.h"
#include "common/prof.h"
#include "common/histogram.h"
#include "common/log.h"
#include "common/logging.h"
#include "common/trace.h"

namespace prism::obs {

// ---------------------------------------------------------------------
// Prometheus rendering
// ---------------------------------------------------------------------

namespace {

/** Exposition metric name: [a-zA-Z_:][a-zA-Z0-9_:]*; dots become '_'. */
std::string
sanitizeName(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

/**
 * Split `<prefix><n>.<rest>` into (label value n, rest). Returns false
 * when @p name does not match the indexed pattern.
 */
bool
splitIndexed(std::string_view name, std::string_view prefix,
             std::string *index, std::string *rest)
{
    if (name.substr(0, prefix.size()) != prefix)
        return false;
    std::string_view tail = name.substr(prefix.size());
    size_t i = 0;
    while (i < tail.size() && std::isdigit(
               static_cast<unsigned char>(tail[i])))
        i++;
    if (i == 0 || i >= tail.size() || tail[i] != '.')
        return false;
    *index = std::string(tail.substr(0, i));
    *rest = std::string(tail.substr(i + 1));
    return true;
}

struct Sample {
    std::string labels;  ///< rendered pairs without braces, e.g. shard="0"
    const stats::MetricSnapshot *m;
};

struct Family {
    stats::MetricType type;
    std::string unit;
    std::vector<Sample> samples;
};

void
appendU64(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
renderHistogram(std::string &out, const std::string &fam,
                const Sample &s)
{
    // Coarsen the histogram's 32-per-octave sub-buckets to power-of-two
    // bounds: ~40 stable `le` values instead of 1280, and bounds that
    // do not wander between scrapes as new sub-buckets fill in.
    std::map<uint64_t, uint64_t> coarse;
    uint64_t count = 0, sum = 0;
    if (s.m->hist != nullptr) {
        for (auto [bound, n] : s.m->hist->nonZeroBuckets())
            coarse[std::bit_ceil(bound + 1)] += n;
        count = s.m->hist->count();
        sum = s.m->hist->sum();
    } else {
        count = s.m->count;
    }
    uint64_t cum = 0;
    for (auto [bound, n] : coarse) {
        cum += n;
        out += fam + "_bucket{";
        if (!s.labels.empty())
            out += s.labels + ",";
        out += "le=\"";
        appendU64(out, bound);
        out += "\"} ";
        appendU64(out, cum);
        out += "\n";
    }
    out += fam + "_bucket{";
    if (!s.labels.empty())
        out += s.labels + ",";
    out += "le=\"+Inf\"} ";
    appendU64(out, count);
    out += "\n";
    const std::string brace =
        s.labels.empty() ? "" : "{" + s.labels + "}";
    out += fam + "_sum" + brace + " ";
    appendU64(out, sum);
    out += "\n" + fam + "_count" + brace + " ";
    appendU64(out, count);
    out += "\n";
}

}  // namespace

std::string
renderPrometheus(const stats::StatsSnapshot &snap)
{
    // Group samples into families first so each family emits exactly
    // one # TYPE line. Snapshot order is name-sorted, so per-index
    // samples of one family arrive together; std::map keeps the output
    // deterministic either way.
    std::map<std::string, Family> families;
    for (const auto &m : snap.metrics) {
        std::string index, rest, labels, base = m.name;
        if (splitIndexed(m.name, "prism.shard.", &index, &rest)) {
            base = "prism.shard." + rest;
            labels = "shard=\"" + index + "\"";
        } else if (splitIndexed(m.name, "sim.ssd.", &index, &rest)) {
            base = "sim.ssd." + rest;
            labels = "device=\"" + index + "\"";
        }
        std::string fam = sanitizeName(base);
        if (m.type == stats::MetricType::kCounter)
            fam += "_total";
        auto [it, fresh] = families.try_emplace(
            fam, Family{m.type, m.unit, {}});
        if (!fresh && it->second.type != m.type)
            continue;  // name collision across types; first one wins
        it->second.samples.push_back(Sample{labels, &m});
    }

    std::string out;
    out.reserve(families.size() * 96);
    for (const auto &[fam, f] : families) {
        if (!f.unit.empty())
            out += "# HELP " + fam + " unit: " + f.unit + "\n";
        out += "# TYPE " + fam + " ";
        switch (f.type) {
          case stats::MetricType::kCounter: out += "counter\n"; break;
          case stats::MetricType::kGauge: out += "gauge\n"; break;
          case stats::MetricType::kHistogram: out += "histogram\n"; break;
        }
        for (const auto &s : f.samples) {
            if (f.type == stats::MetricType::kHistogram) {
                renderHistogram(out, fam, s);
                continue;
            }
            out += fam;
            if (!s.labels.empty())
                out += "{" + s.labels + "}";
            out += " ";
            if (f.type == stats::MetricType::kCounter) {
                appendU64(out, s.m->counter);
            } else {
                char buf[24];
                std::snprintf(buf, sizeof(buf), "%lld",
                              static_cast<long long>(s.m->gauge));
                out += buf;
            }
            out += "\n";
        }
    }
    return out;
}

int
resolveObsPort(int option_value)
{
    if (option_value >= 0)
        return option_value;
    if (const char *env = std::getenv("PRISM_OBS_PORT");
        env != nullptr && env[0] != '\0')
        return std::atoi(env);
    return -1;
}

// ---------------------------------------------------------------------
// Slow ops + health JSON
// ---------------------------------------------------------------------

namespace {

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
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
    out += '"';
}

}  // namespace

std::string
renderSlowOpsJson()
{
    auto &tr = trace::TraceRegistry::global();
    const auto ops = tr.slowOps();
    std::string out = "{\"threshold_us\":";
    appendU64(out, tr.slowOpThresholdUs());
    out += ",\"captured\":";
    appendU64(out, tr.slowOpsCaptured());
    out += ",\"slowops\":[";
    for (size_t i = 0; i < ops.size(); i++) {
        const auto &op = ops[i];
        if (i)
            out += ",";
        out += "{\"op\":";
        appendJsonString(out, op.op);
        out += ",\"tid\":";
        appendU64(out, static_cast<uint64_t>(op.tid));
        out += ",\"start_ns\":";
        appendU64(out, op.start_ns);
        out += ",\"dur_ns\":";
        appendU64(out, op.dur_ns);
        out += ",\"truncated\":";
        out += op.truncated ? "true" : "false";
        out += ",\"events\":[";
        for (size_t j = 0; j < op.events.size(); j++) {
            const auto &e = op.events[j];
            if (j)
                out += ",";
            out += "{\"name\":";
            appendJsonString(out, tr.nameOf(e.name_id));
            out += ",\"ts_ns\":";
            appendU64(out, e.ts_ns);
            out += ",\"dur_ns\":";
            appendU64(out, e.dur_ns);
            out += ",\"depth\":";
            appendU64(out, e.depth);
            out += "}";
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

HealthReport
defaultHealthReport()
{
    HealthReport r;
    r.json = "{\"status\":\"ok\",\"detail\":\"no health provider "
             "registered\"}";
    return r;
}

// ---------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------

namespace {

/** Requests whose head exceeds this get a 431. */
constexpr size_t kMaxRequestBytes = 8192;
/** Concurrent clients beyond this are closed at accept. */
constexpr size_t kMaxConnections = 32;

/** One client: its request head; `close` once it is answered. */
struct Conn final : net::EventLoop::Conn {
    std::string in;
};

std::string
httpResponse(int status, const char *reason, const char *content_type,
             std::string_view body)
{
    char head[256];
    std::snprintf(head, sizeof(head),
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n\r\n",
                  status, reason, content_type, body.size());
    std::string out = head;
    out += body;
    return out;
}

/** `key=value` lookup in a raw query string; @p dflt when absent
 *  or unparsable. Good enough for the two numeric pprof params. */
double
queryDouble(const std::string &query, const char *key, double dflt)
{
    const std::string needle = std::string(key) + "=";
    size_t pos = 0;
    while (pos < query.size()) {
        size_t end = query.find('&', pos);
        if (end == std::string::npos)
            end = query.size();
        if (query.compare(pos, needle.size(), needle) == 0) {
            try {
                return std::stod(query.substr(pos + needle.size(),
                                              end - pos - needle.size()));
            } catch (...) {
                return dflt;
            }
        }
        pos = end + 1;
    }
    return dflt;
}

constexpr char kIndexBody[] =
    "prism ops endpoints:\n"
    "  /metrics    Prometheus text exposition\n"
    "  /healthz    liveness (200/503) + error-budget JSON\n"
    "  /readyz     readiness (200/503)\n"
    "  /slowops    captured slow ops (JSON)\n"
    "  /trace      Chrome-trace export (JSON)\n"
    "  /pprof/profile?seconds=N[&hz=H]  CPU profile, collapsed stacks\n"
    "  /pprof/contention                lock-wait folded stacks\n";

}  // namespace

struct ObsServer::Impl final : net::EventLoop::Handler {
    const std::function<HealthReport()> health;
    const std::function<void()> metrics_prepare;

    stats::StatsRegistry &reg = stats::StatsRegistry::global();
    stats::Counter &requests = reg.counter("prism.obs.requests", "requests");
    stats::Counter &scrapes = reg.counter("prism.obs.scrapes", "requests");
    stats::Counter &errors = reg.counter("prism.obs.http_errors", "requests");

    /** Declared last: destroyed (stopped) before the state above. */
    net::EventLoop loop{*this};

    Impl(std::function<HealthReport()> h, std::function<void()> prep)
        : health(std::move(h)), metrics_prepare(std::move(prep))
    {
    }

    std::unique_ptr<net::EventLoop::Conn>
    open() override
    {
        return std::make_unique<Conn>();
    }

    void serve(net::EventLoop::Conn &c, std::string_view input) override;
    std::string handle(const std::string &target,
                       const std::string &query);
    std::string respond(const std::string &head);
};

std::string
ObsServer::Impl::handle(const std::string &target,
                        const std::string &query)
{
    if (target == "/" || target.empty())
        return httpResponse(200, "OK", "text/plain; charset=utf-8",
                            kIndexBody);
    if (target == "/metrics") {
        scrapes.inc();
        if (metrics_prepare)
            metrics_prepare();
        return httpResponse(
            200, "OK", "text/plain; version=0.0.4; charset=utf-8",
            renderPrometheus(stats::StatsRegistry::global().snapshot()));
    }
    if (target == "/healthz" || target == "/readyz") {
        const HealthReport r = health ? health() : defaultHealthReport();
        const bool ok = target == "/healthz" ? r.healthy : r.ready;
        return httpResponse(ok ? 200 : 503,
                            ok ? "OK" : "Service Unavailable",
                            "application/json", r.json);
    }
    if (target == "/slowops")
        return httpResponse(200, "OK", "application/json",
                            renderSlowOpsJson());
    if (target == "/trace")
        return httpResponse(200, "OK", "application/json",
                            trace::TraceRegistry::global().exportJson());
    if (target == "/pprof/profile") {
        // Blocks this server's loop for the window: other scrapes
        // queue behind it, which is fine for an ops endpoint.
        const double seconds = queryDouble(query, "seconds", 5.0);
        const int hz = static_cast<int>(queryDouble(query, "hz", 0));
        return httpResponse(200, "OK", "text/plain; charset=utf-8",
                            prof::Profiler::global().profileForWindow(
                                hz, seconds));
    }
    if (target == "/pprof/contention")
        return httpResponse(200, "OK", "text/plain; charset=utf-8",
                            prof::renderContentionFolded());
    errors.inc();
    return httpResponse(404, "Not Found", "text/plain; charset=utf-8",
                        "unknown endpoint\n");
}

std::string
ObsServer::Impl::respond(const std::string &head)
{
    requests.inc();
    // Request line: METHOD SP target SP HTTP/x.y CRLF
    const size_t eol = head.find("\r\n");
    const std::string line = head.substr(0, eol);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1 ||
        line.compare(sp2 + 1, 5, "HTTP/") != 0) {
        errors.inc();
        return httpResponse(400, "Bad Request",
                            "text/plain; charset=utf-8",
                            "malformed request line\n");
    }
    const std::string method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (method != "GET") {
        errors.inc();
        return httpResponse(405, "Method Not Allowed",
                            "text/plain; charset=utf-8",
                            "GET only\n");
    }
    std::string query;
    const size_t q = target.find('?');
    if (q != std::string::npos) {
        query = target.substr(q + 1);
        target.resize(q);
    }
    return handle(target, query);
}

void
ObsServer::Impl::serve(net::EventLoop::Conn &base, std::string_view input)
{
    Conn &c = static_cast<Conn &>(base);
    if (c.close || input.empty())
        return;  // answered (the rest is not read), or nothing new
    c.in.append(input);
    if (c.in.size() > kMaxRequestBytes) {
        errors.inc();
        c.out = httpResponse(431, "Request Header Fields Too Large",
                             "text/plain; charset=utf-8",
                             "request too large\n");
        c.close = true;
    } else if (c.in.find("\r\n\r\n") != std::string::npos) {
        c.out = respond(c.in);
        c.close = true;
    }
}

ObsServer::ObsServer(std::function<HealthReport()> health,
                     std::function<void()> metrics_prepare)
    : impl_(new Impl(std::move(health), std::move(metrics_prepare)))
{
}

ObsServer::~ObsServer()
{
    stop();
    delete impl_;
}

bool
ObsServer::start(int port, std::string *err)
{
    net::EventLoop::Config cfg;
    cfg.port = port;
    cfg.max_conns = kMaxConnections;
    cfg.thread_name = "prism-obs";
    cfg.meters.port = &impl_->reg.gauge("prism.obs.port");
    if (!impl_->loop.start(cfg, err))
        return false;
    PRISM_LOG_INFO("obs.server", "listening on http://127.0.0.1:%d",
                   this->port());
    return true;
}

void
ObsServer::stop()
{
    impl_->loop.stop();
}

int
ObsServer::port() const
{
    return impl_->loop.port();
}

// ---------------------------------------------------------------------
// Crash black-box
// ---------------------------------------------------------------------

namespace {

bool
mkdirRecursive(const std::string &path)
{
    std::string cur;
    for (size_t i = 0; i <= path.size(); i++) {
        if (i < path.size() && path[i] != '/') {
            cur += path[i];
            continue;
        }
        if (!cur.empty() && ::mkdir(cur.c_str(), 0755) != 0 &&
            errno != EEXIST)
            return false;
        if (i < path.size())
            cur += '/';
    }
    return true;
}

bool
writeFile(const std::string &path, std::string_view content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return true;
}

// Crash-handler state. Plain statics on purpose: the handlers must not
// allocate before the recursion check.
std::atomic<bool> g_dumping{false};
char g_postmortem_dir[512] = "";
bool g_handlers_installed = false;
std::terminate_handler g_prev_terminate = nullptr;

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
                                 SIGILL};

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGILL: return "SIGILL";
    }
    return "signal";
}

void
crashSignalHandler(int sig)
{
    // NOT async-signal-safe: we allocate, lock, and write files. For
    // the black-box that is the right trade — the alternative is no
    // postmortem at all — and the recursion guard turns a handler
    // crash into a plain default-action death.
    if (!g_dumping.exchange(true)) {
        char reason[64];
        std::snprintf(reason, sizeof(reason), "fatal signal %s (%d)",
                      signalName(sig), sig);
        writePostmortem(g_postmortem_dir, reason);
    }
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

[[noreturn]] void
crashTerminateHandler()
{
    if (!g_dumping.exchange(true))
        writePostmortem(g_postmortem_dir, "std::terminate");
    if (g_prev_terminate != nullptr)
        g_prev_terminate();
    std::abort();
}

}  // namespace

std::string
writePostmortem(const std::string &base_dir, const std::string &reason)
{
    std::timespec ts{};
    std::timespec_get(&ts, TIME_UTC);
    std::tm tm{};
    gmtime_r(&ts.tv_sec, &tm);
    char sub[96];
    std::snprintf(sub, sizeof(sub),
                  "postmortem-%04d%02d%02d-%02d%02d%02d-%d",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                  tm.tm_hour, tm.tm_min, tm.tm_sec,
                  static_cast<int>(::getpid()));
    const std::string dir =
        (base_dir.empty() ? std::string(".") : base_dir) + "/" + sub;
    if (!mkdirRecursive(dir))
        return "";

    auto &freg = fault::FaultRegistry::global();
    const std::string schedule = freg.scheduleString();

    std::string manifest;
    manifest += "reason: " + reason + "\n";
    char line[128];
    std::snprintf(line, sizeof(line), "pid: %d\n",
                  static_cast<int>(::getpid()));
    manifest += line;
    std::snprintf(line, sizeof(line),
                  "time_utc: %04d-%02d-%02dT%02d:%02d:%02dZ\n",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                  tm.tm_hour, tm.tm_min, tm.tm_sec);
    manifest += line;
    std::snprintf(line, sizeof(line), "fault_fires: %llu\n",
                  static_cast<unsigned long long>(freg.totalFires()));
    manifest += line;
    manifest += "fault_schedule: " +
                (schedule.empty() ? std::string("(none)") : schedule) +
                "\n";
    const bool prof_armed = prof::Profiler::global().running();
    manifest += "files: stats.json trace.json slowops.json faults.txt "
                "log_tail.txt";
    if (prof_armed)
        manifest += " profile.txt";
    manifest += "\n";
    writeFile(dir + "/MANIFEST.txt", manifest);

    writeFile(dir + "/stats.json",
              stats::StatsRegistry::global().snapshot().toJson());
    writeFile(dir + "/trace.json",
              trace::TraceRegistry::global().exportJson());
    writeFile(dir + "/slowops.json", renderSlowOpsJson());

    // Whatever the sampler has collected up to the crash. Symbolization
    // allocates, but by this point we are already off the signal-unsafe
    // deep end (the other dumps allocate too) — a postmortem is
    // best-effort by design.
    if (prof_armed)
        writeFile(dir + "/profile.txt",
                  prof::Profiler::global().collectFolded());

    // faults.txt replays with: PRISM_FAULTS="$(head -1 faults.txt)"
    std::string faults = schedule + "\n";
    std::snprintf(line, sizeof(line), "# fires=%llu\n",
                  static_cast<unsigned long long>(freg.totalFires()));
    faults += line;
    writeFile(dir + "/faults.txt", faults);

    std::string tail;
    for (const auto &l : log::Logger::global().tail()) {
        tail += l;
        tail += '\n';
    }
    writeFile(dir + "/log_tail.txt", tail);
    return dir;
}

void
installCrashHandlers(const std::string &base_dir)
{
    std::snprintf(g_postmortem_dir, sizeof(g_postmortem_dir), "%s",
                  base_dir.c_str());
    if (g_handlers_installed)
        return;
    g_handlers_installed = true;
    g_prev_terminate = std::set_terminate(crashTerminateHandler);
    struct sigaction sa{};
    sa.sa_handler = crashSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    for (int sig : kFatalSignals)
        ::sigaction(sig, &sa, nullptr);
}

}  // namespace prism::obs
