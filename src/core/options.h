/**
 * @file
 * Configuration for a store opened through core::ShardRouter (the only
 * public handle): every shard gets the same options, and the router
 * alone applies the process-wide ones (observability, fault injection).
 * The sampling profiler has no option: $PRISM_PROF_HZ arms it at open
 * (common/prof.h).
 *
 * Defaults reflect the paper's setup scaled to a single-machine
 * simulation: 512 KB Value Storage chunks, queue depth 64 and a 2Q SVC.
 * Values no caller varies (the 50% PWB reclamation watermark, the GC
 * pass width, the TA batching window, the 60 KB value limit) are named
 * constants where they are used. Feature flags expose the ablations
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
    ///@}

    /** @name Value Storage (§4.2, §5.1) */
    ///@{
    /** Chunk size; the paper uses 512 KB for SSD-friendly writes. */
    uint64_t chunk_bytes = 512 * 1024;
    /** Utilization fraction that triggers garbage collection. */
    double vs_gc_watermark = 0.80;
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
     * HTTP ops endpoint (common/obs_server.h): TCP port for /metrics,
     * /healthz, /readyz, /slowops and /trace on 127.0.0.1.
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
