/**
 * @file
 * prism::net — the RESP network front-end (docs/SERVER.md; ROADMAP
 * item 2, "Prism as a network service").
 *
 * RespServer promotes a store to a network service: one event-loop
 * thread (net::EventLoop) multiplexes every client connection over
 * poll(), decodes the RESP subset (GET/SET/DEL/MGET/SCAN/PING/ECHO/
 * AUTH/INFO), and issues each data command through the store's
 * *asynchronous* API (KvStore::asyncGet and friends, core/async.h).
 * That coupling is the
 * point of the design: the loop never blocks on an SSD read — an
 * asyncGet that misses DRAM/NVM parks in the device queue while the
 * loop keeps serving other connections — so a single thread sustains
 * hundreds of in-flight operations across thousands of sockets, which
 * is the paper's queue-depth argument (§5.3) extended to the wire.
 *
 * Per-connection pipelining and ordering: clients may send any number
 * of commands without waiting. Each command gets a slot in the
 * connection's pipeline FIFO; async completions (which arrive in any
 * order, on Value-Storage completion threads) mark their slot done and
 * wake the loop (EventLoop::wake: no syscall for a completion on the
 * loop thread, at most one eventfd write per pending wake otherwise),
 * and the loop flushes the longest *done prefix* of the FIFO — so
 * responses always come back in request order, as RESP requires. A
 * connection closes only when its pipeline is empty.
 *
 * Backpressure: a connection stops being read (its POLLIN is dropped)
 * while it has `inflight_cap` commands in its pipeline or more than
 * 4 MB of unsent replies; `prism.server.backpressure` counts each
 * pause. The kernel socket buffer then fills, and the client's sends
 * stall — the standard TCP backpressure chain. This bounds
 * per-connection memory no matter how aggressively a client pipelines.
 *
 * Multi-tenancy: a tenant is a 16-bit namespace in the top bits of the
 * 64-bit store key (wire keys are decimal integers < 2^48). Clients
 * pick a tenant with `AUTH <name>` (connection-scoped) or per-key with
 * the `<name>:<key>` prefix convention; unauthenticated connections
 * use the default namespace. Because the namespace occupies the key's
 * high bits, each tenant's keys are one contiguous range — SCAN stays
 * exact per tenant with no filtering cost beyond a range check. Each
 * tenant gets a `prism.tenant.<name>.*` stats family and an optional
 * token-bucket ops/s quota (exceeding it earns `-THROTTLED` errors,
 * never event-loop delay).
 *
 * The server publishes `prism.server.*` stats; /healthz (the router's
 * health report) and `prism_cli top` read listener state from them
 * while `prism.server.port` is non-zero.
 */
#pragma once

#include <cstdint>
#include <string>

#include "net/resp.h"
#include "ycsb/kv_interface.h"

namespace prism::net {

/** Tenant namespaces live in the key's top 16 bits. */
constexpr int kTenantBits = 16;
constexpr int kKeyBits = 64 - kTenantBits;
constexpr uint64_t kKeyMask = (1ull << kKeyBits) - 1;

/** Store key for wire key @p key48 in tenant @p tenant. */
inline uint64_t
tenantKey(uint16_t tenant, uint64_t key48)
{
    return (static_cast<uint64_t>(tenant) << kKeyBits) |
           (key48 & kKeyMask);
}

/** The RESP listener fronting one store. */
class RespServer {
  public:
    struct Options {
        /** TCP port; 0 binds an ephemeral port (see port()). */
        int port = 0;
        /** Bind address; loopback by default (a deployment that wants
         *  external traffic opts in explicitly). */
        std::string bind_addr = "127.0.0.1";
        /** Connections beyond this are accepted and immediately closed
         *  with an error reply. */
        int max_connections = 4096;
        /** Per-connection in-flight command cap (backpressure). */
        int inflight_cap = 128;
        /**
         * Default per-tenant quota in ops/s; 0 = unlimited. Burst is
         * max(rate, 1000) so short pipelined bursts are not penalised.
         */
        uint64_t quota_default_ops = 0;
        /** Per-tenant overrides: "name=rate[,name=rate...]". */
        std::string quota_spec;
    };

    /**
     * @p store outlives the server. Commands dispatch through the
     * KvStore async surface, so any store works; the Prism fixture
     * (ShardRouter underneath) is the intended one.
     */
    explicit RespServer(ycsb::KvStore &store);
    ~RespServer();

    RespServer(const RespServer &) = delete;
    RespServer &operator=(const RespServer &) = delete;

    /** Bind + listen + spawn the loop. False (and @p err) on failure. */
    bool start(const Options &opts, std::string *err);

    /**
     * Stop the loop, close every socket, and drain in-flight store
     * operations (their completion callbacks reference the server).
     * Idempotent.
     */
    void stop();

    /** Bound TCP port while running (resolves port 0), else 0. */
    int port() const;

  private:
    struct Impl;
    Impl *impl_;
};

}  // namespace prism::net
