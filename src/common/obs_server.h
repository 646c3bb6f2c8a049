/**
 * @file
 * prism::obs — the ops plane (docs/OBSERVABILITY.md, "Ops endpoints &
 * logging").
 *
 * Three pieces, all built on the process-wide registries in
 * src/common:
 *
 *  1. ObsServer: a single-thread HTTP/1.1 listener on its own
 *     net::EventLoop (common/event_loop.h) serving
 *     GET /metrics (Prometheus text exposition of the stats registry),
 *     /healthz + /readyz (JSON with 200/503 semantics, fed by a
 *     caller-supplied HealthReport provider), /slowops, /telemetry
 *     (prism.telemetry.v1 series), and /trace (Chrome-trace JSON).
 *     Off by default; PrismOptions::obs_port / $PRISM_OBS_PORT turn it
 *     on, port 0 binds an ephemeral port published via port() and the
 *     prism.obs.port gauge. Binds 127.0.0.1 only — this is an ops
 *     endpoint, not a public service.
 *
 *  2. renderPrometheus(): pure StatsSnapshot → exposition-format
 *     renderer, also used by `prism_cli metrics --prom` without any
 *     server. Dotted names become underscore names, counters gain
 *     `_total`, per-shard (`prism.shard.<n>.*`) and per-device
 *     (`sim.ssd.<n>.*`) families are flattened into `shard` / `device`
 *     labels, and histograms export cumulative `_bucket{le=...}` (ns
 *     bounds coarsened to powers of two) plus `_sum` / `_count`.
 *
 *  3. The crash black-box: writePostmortem() dumps stats snapshot,
 *     trace rings, slow ops, armed fault schedule and the log tail to
 *     a timestamped directory; installCrashHandlers() arranges for
 *     that dump on fatal signals / std::terminate. Best-effort by
 *     design: the handlers are not async-signal-safe, but on the
 *     crashes the torture harness hunts (asserts, aborts, segfaults in
 *     steady state) the dump nearly always completes, and a truncated
 *     postmortem still beats none.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/stats.h"

namespace prism::trace { struct SlowOp; }

namespace prism::obs {

/** Render a stats snapshot in Prometheus text exposition format 0.0.4. */
std::string renderPrometheus(const stats::StatsSnapshot &snap);

/**
 * Resolve an effective ops port from an options value: >= 0 wins
 * (0 = ephemeral), -1 defers to $PRISM_OBS_PORT, and -1 comes back
 * when neither asks for a server.
 */
int resolveObsPort(int option_value);

/** Render the tracer's slow-op buffer as a JSON object. */
std::string renderSlowOpsJson();

/** What /healthz + /readyz report. */
struct HealthReport {
    bool healthy = true;  ///< /healthz: 200 when true, 503 otherwise
    bool ready = true;    ///< /readyz: 200 when true, 503 otherwise
    std::string json;     ///< response body (a JSON object)
};

/** Default report for a process with no registered health provider. */
HealthReport defaultHealthReport();

/**
 * The HTTP ops listener. One event-loop thread serves the listen
 * socket and every client (at most 32); requests are GET-only, with a
 * head of at most 8 KB (431 beyond), connection-per-request
 * (Connection: close). Lifecycle is start()/stop(); the destructor
 * stops. Intended to be owned by the store handle (core::ShardRouter),
 * but self-contained enough for tests to run standalone.
 */
class ObsServer {
  public:
    /**
     * @p health backs /healthz + /readyz (unset → defaultHealthReport());
     * @p metrics_prepare runs before every /metrics snapshot, for gauges
     * computed on demand rather than maintained incrementally (e.g.
     * ShardRouter::publishOccupancy). Both run on the server thread per
     * request and must be cheap and thread-safe.
     */
    explicit ObsServer(std::function<HealthReport()> health = nullptr,
                       std::function<void()> metrics_prepare = nullptr);
    ~ObsServer();

    ObsServer(const ObsServer &) = delete;
    ObsServer &operator=(const ObsServer &) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral) + listen + spawn the
     * server thread. Returns false (and fills @p err) on bind/listen
     * failure or when already running.
     */
    bool start(int port, std::string *err);

    /** Stop the thread and close every socket. Idempotent. */
    void stop();

    /** Bound TCP port while running (resolves port 0), else 0. */
    int port() const;

  private:
    struct Impl;
    Impl *impl_;
};

/**
 * Dump the black-box to `<base_dir>/postmortem-<utc-stamp>-<pid>/`:
 * MANIFEST.txt (reason + context), stats.json, trace.json,
 * slowops.json, faults.txt (armed schedule + fire count, replayable
 * via PRISM_FAULTS), log_tail.txt. Creates base_dir if needed.
 * Returns the created directory, or "" on I/O failure.
 */
std::string writePostmortem(const std::string &base_dir,
                            const std::string &reason);

/**
 * Install std::terminate and fatal-signal handlers (SEGV, ABRT, BUS,
 * FPE, ILL) that writePostmortem() into @p base_dir, then re-raise so
 * the exit status is unchanged. One shot per process (recursion
 * guard); later calls just update the directory.
 */
void installCrashHandlers(const std::string &base_dir);

}  // namespace prism::obs
