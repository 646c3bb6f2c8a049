/**
 * @file
 * Configuration for a store opened through core::ShardRouter (the only
 * public handle): every shard gets the same options, and the router
 * alone applies the process-wide ones (observability, fault injection).
 * The sampling profiler has no option: $PRISM_PROF_HZ arms it at open
 * (common/prof.h).
 *
 * Defaults reflect the paper's setup scaled to a single-machine
 * simulation: 512 KB Value Storage chunks, queue depth 64, a 50% PWB
 * reclamation watermark, and a 2Q SVC. Feature flags expose the ablations
 * of §7.6 (thread combining vs timeout batching, SVC on/off, scan-aware
 * reorganisation on/off).
 */
#pragma once

#include <cstdint>
#include <string>

namespace prism::core {

/** How Value Storage reads are batched (§5.3, Figure 11). */
enum class ReadBatchMode {
    /** Opportunistic thread combining via the TCQ (Prism's scheme). */
    kThreadCombining,
    /** Timeout-based batching: wait up to a fixed period for more
     *  requests before submitting (the paper's "TA" comparison point). */
    kTimeoutAsync,
    /** No combining: a lone read is submitted alone, and a multiGet's or
     *  scan's reads of one SSD only with each other. */
    kNone,
};

/** Tunables for one store. */
struct PrismOptions {
    /** @name Persistent Write Buffer (§4.3) */
    ///@{
    /** Per-thread PWB capacity in bytes. */
    uint64_t pwb_size_bytes = 16ull * 1024 * 1024;
    /** Utilization fraction that triggers background reclamation. */
    double pwb_reclaim_watermark = 0.5;
    ///@}

    /** @name Value Storage (§4.2, §5.1) */
    ///@{
    /** Chunk size; the paper uses 512 KB for SSD-friendly writes. */
    uint64_t chunk_bytes = 512 * 1024;
    /** Utilization fraction that triggers garbage collection. */
    double vs_gc_watermark = 0.80;
    /** Number of victim chunks merged per GC pass. */
    int gc_victims_per_pass = 4;
    ///@}

    /** @name Scan-aware Value Cache (§4.4) */
    ///@{
    bool enable_svc = true;
    /** Total DRAM budget for cached values. */
    uint64_t svc_capacity_bytes = 256ull * 1024 * 1024;
    /** Reorganise scan ranges on eviction (ablation §7.6). */
    bool enable_scan_reorg = true;
    ///@}

    /** @name Read batching (§5.3) */
    ///@{
    ReadBatchMode read_batch_mode = ReadBatchMode::kThreadCombining;
    /** Coalescing limit (io_uring queue depth); the paper uses 64. */
    int read_queue_depth = 64;
    /** TA mode: wait this long for more requests before submitting. */
    uint64_t timeout_batch_us = 100;
    ///@}

    /** @name HSIT sizing (§4.5) */
    ///@{
    /** Maximum number of live keys (HSIT entries are preallocated). */
    uint64_t hsit_capacity = 4ull * 1024 * 1024;
    ///@}

    /** @name I/O backend (docs/IO_BACKENDS.md, src/io/io_backend.h) */
    ///@{
    /**
     * Which io::IoBackend implementation harnesses that construct their
     * own devices (YCSB stores, benches, the CLI) should build:
     * "sim" (timing-modelled simulator, the default), "posix"
     * (pwrite/pread thread pool over real files), "uring" (io_uring;
     * falls back to posix with a warning when the kernel lacks it), or
     * "auto" (uring when available, else posix, silently). Empty defers
     * to $PRISM_IO_BACKEND, then "sim".
     * Library users who pass their own devices in ShardBackends are
     * unaffected — the store never consults this.
     */
    std::string io_backend;
    /**
     * Directory for the real-file backends' backing files (one
     * .img per device). Empty uses $PRISM_IO_DIR, then /tmp/prism-io.
     * Point it at a tmpfs (e.g. /dev/shm) to keep CI hermetic.
     */
    std::string io_backend_dir;
    ///@}

    /** @name Sharding (src/core/shard_router.h) */
    ///@{
    /**
     * Number of independent PrismDb shards the router fronts. Must be a
     * power of two (keys are hash-partitioned with a mask). 1 routes
     * every op to a single shard. 0 (the default) defers to
     * $PRISM_SHARDS, then 1. Harnesses that build their own device
     * fleet (PrismStore) consult this; ShardRouter itself takes the
     * count from its ShardBackends.
     */
    int shards = 0;
    /**
     * Preferred NUMA node for this instance's background threads
     * (reclaimer, GC scheduler, VS completion threads). -1 = unpinned.
     * The shard router assigns nodes round-robin across shards on
     * multi-node machines (common/numa.h); single-node machines always
     * run unpinned.
     */
    int numa_node = -1;
    ///@}

    /** Largest supported value (one record must fit a chunk and the
     *  packed address size field). */
    uint32_t max_value_bytes = 60 * 1024;

    /**
     * Background reclaimer safety-net poll interval. The hot path is
     * edge-triggered — a put whose ring crosses the watermark notifies
     * the reclaimer directly (Pwb::armReclaimHint) — so this poll only
     * bounds staleness for the re-dispatch gate and epoch advancement;
     * it no longer needs to be sub-millisecond to keep up with writes.
     */
    uint64_t reclaimer_poll_us = 10000;

    /** @name Background I/O engine (§5.2, src/core/bg_pool.h) */
    ///@{
    /**
     * Worker threads shared by PWB reclamation and Value Storage GC.
     * Independent PWBs reclaim concurrently and each SSD runs its GC
     * pass as its own task, so sizing this near min(#client threads,
     * #SSDs) keeps the SSD array busy. 0 runs all background work
     * inline on the dispatcher threads (the pre-pool serial behaviour,
     * kept for ablation).
     */
    int bg_workers = 4;
    /**
     * Chunk writes kept in flight per reclamation pass. Each completed
     * chunk publishes its HSIT entries immediately instead of waiting
     * for a full-pass barrier, overlapping SSD writes with NVM-side
     * scan/filter work. 1 degenerates to write-then-publish per chunk;
     * values beyond the per-SSD queue depth add no overlap.
     */
    int reclaim_pipeline_depth = 4;
    /**
     * PWB utilization at or above which a reclamation pass also submits
     * its final *partial* chunk. Below it, passes are thrifty: they
     * relocate full chunks only and leave the straggler records in the
     * ring for a later pass (they are durable there, and most become
     * stale and free to drop — §4.3's dedup). This keeps a hot-update
     * workload from sealing a nearly-empty chunk per pass, which would
     * inflate SSD write amplification and exhaust chunks when GC is
     * throttled. flushAll() always forces full submission.
     */
    double pwb_reclaim_force_utilization = 0.90;
    ///@}

    /** @name Observability (docs/OBSERVABILITY.md) */
    ///@{
    /**
     * Start with cross-layer tracing (src/common/trace.h) recording.
     * The tracer is process-wide; this just flips it on at open so a
     * whole run is captured without touching TraceRegistry directly.
     * Tracing can also be toggled at runtime (prism_cli `trace on`);
     * slow-op capture, ring size and keep count are TraceRegistry
     * setters (prism_cli `trace slow <us>`).
     */
    bool trace_enabled = false;
    /**
     * When > 0, start the process-wide telemetry sampler
     * (src/common/telemetry.h) at this interval: every tick snapshots
     * the stats registry into a ring of interval deltas (rate series,
     * occupancy series, per-layer busy-ns, per-device utilization).
     * Off (0) by default; ~100 ms is the intended granularity. The
     * store that started the sampler stops it on close; the recorded
     * series survives for export (ShardRouter::telemetry()).
     */
    uint64_t telemetry_interval_ms = 0;
    /** Telemetry ring capacity in sampling windows (default 600 ≈ one
     *  minute at 100 ms). */
    uint64_t telemetry_windows = 600;
    /**
     * HTTP ops endpoint (common/obs_server.h): TCP port for /metrics,
     * /healthz, /readyz, /slowops, /telemetry and /trace on 127.0.0.1.
     * -1 (the default) defers to $PRISM_OBS_PORT, then stays off;
     * 0 binds an ephemeral port (published as the prism.obs.port gauge
     * and via ShardRouter::obsPort()); >0 binds that port. The router
     * runs one listener for all its shards.
     */
    int obs_port = -1;
    ///@}

    /** @name Fault injection (docs/FAULTS.md) */
    ///@{
    /**
     * Fault schedule armed at open, in PRISM_FAULTS syntax
     * (`site=trigger[,payload:V][,oneshot];...`, see common/fault.h).
     * The registry is process-wide, so this *adds to* whatever the
     * environment or an earlier store armed; empty arms nothing.
     * Tests and the torture harness use it to script failures without
     * touching the environment.
     */
    std::string fault_spec;
    ///@}
};

}  // namespace prism::core
