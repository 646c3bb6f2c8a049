/**
 * @file
 * prism::obs — the ops plane (docs/OBSERVABILITY.md, "Ops endpoints &
 * logging").
 *
 * Three pieces, all built on the process-wide registries in
 * src/common:
 *
 *  1. ObsServer: a poll-based single-thread HTTP/1.1 listener serving
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
 * Register (or clear, with nullptr) the process-wide listener-info
 * provider. When a network front-end (net::RespServer) is embedded, it
 * registers a callback returning a JSON object describing the listener
 * (port, connections, commands, ...); health reports append it as a
 * `"listener"` section so /healthz and `prism_cli top` show front-end
 * state next to store state. The callback is invoked from arbitrary
 * threads and must be cheap and thread-safe.
 */
void setListenerInfo(std::function<std::string()> fn);

/** The registered listener's JSON object, or "" when none. */
std::string listenerInfoJson();

/**
 * The HTTP ops listener. One background thread multiplexes the listen
 * socket and every client over poll(); requests are GET-only,
 * connection-per-request (Connection: close). Lifecycle is
 * start()/stop(); the destructor stops. Intended to be owned by the
 * store handle (core::ShardRouter), but self-contained enough
 * for tests to run standalone.
 */
class ObsServer {
  public:
    struct Options {
        /** TCP port; 0 binds an ephemeral port (see port()). */
        int port = 0;
        /** Reject requests whose head exceeds this (431). */
        size_t max_request_bytes = 8192;
        /** Concurrent client connections beyond which accepts are
         *  immediately closed. */
        int max_connections = 32;
    };

    ObsServer();
    ~ObsServer();

    ObsServer(const ObsServer &) = delete;
    ObsServer &operator=(const ObsServer &) = delete;

    /**
     * Health callback behind /healthz + /readyz. Called on the server
     * thread per request; must be cheap and thread-safe. Unset →
     * defaultHealthReport().
     */
    void setHealthProvider(std::function<HealthReport()> fn);

    /**
     * Hook run before every /metrics snapshot, for gauges that are
     * computed on demand rather than maintained incrementally (e.g.
     * ShardRouter::publishOccupancy). Same threading rules as above.
     */
    void setMetricsPrepare(std::function<void()> fn);

    /**
     * Bind + listen + spawn the server thread. Returns false (and
     * fills @p err) on bind/listen failure; start on a running server
     * is an error.
     */
    bool start(const Options &opts, std::string *err);

    /** Stop the thread and close every socket. Idempotent. */
    void stop();

    bool running() const;

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
