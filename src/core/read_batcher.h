/**
 * @file
 * The Value Storage read queue (§5.3, Fig. 5): the one way a read of a
 * record on the SSD reaches the device.
 *
 * Every such read — a blocking or async get that missed the SVC and the
 * PWB, a multiGet's or a scan's reads of one SSD, a GC pass's victim
 * chunks, a retry — is a ReadBatcher::Read that its issuer enqueues and
 * leaves. The batcher submits it, alone or coalesced with other issuers'
 * reads, and the device completion calls the Read's handler on the Value
 * Storage completion thread. enqueue() never waits for the device; an
 * issuer that needs a group of reads before it can go on waits for them
 * with readAll() below.
 *
 * Thread combining (TC, Prism's scheme) makes the queue an MCS list: an
 * issuer appends its read, or a chain of reads, with one atomic swap on
 * the tail. The issuer that finds the queue empty becomes the *leader*:
 * it walks the queue and submits batches of at most queue-depth reads
 * until it can close the queue behind the last read it took. A read may
 * complete, and its owner free it, as soon as it is submitted, so the
 * leader resolves each read's successor, or closes the queue at it,
 * before it submits the batch that holds it.
 *
 * What that means for batching: a batch holds a chain (a multiGet's, a
 * scan's or a GC pass's reads of this SSD) plus whatever other issuers
 * appended before the leader reached the end of the queue. A lone read
 * closes the queue before its own submit, so an issuer that arrives
 * during that submit finds the queue empty and leads alone: concurrent
 * blocking gets, one read each, are submitted one by one (Fig. 11
 * measures a combine ratio of 1.00). A lone issuer submits at once
 * (latency).
 *
 * The timeout-based alternative ("TA" in Fig. 11) and no combining are
 * the two other policies of the same queue, kept for the ablation
 * benchmarks. With no combining, every issuer submits its own reads as
 * it enqueues them, a chain in batches of up to queue-depth reads, never
 * together with another issuer's. Every policy counts its device
 * submissions in prism.tcq.batches and the reads they carried in
 * prism.tcq.requests.
 *
 * Transient I/O errors are retried here, for every read: at most three
 * resubmissions through the queue, after 20, 40 and 80 µs, counted in
 * prism.vs.retries. A device that errors sees one retry at a time, and
 * a read whose retry fails again goes next, the way a lone blocked
 * reader retries; a burst of concurrent retries would only meet the
 * device's next errors together.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/async.h"
#include "core/options.h"
#include "io/io_backend.h"

namespace prism::core {

/** Submits the reads of one SSD according to ReadBatchMode. */
class ReadBatcher {
  public:
    /**
     * One read and the handler of its outcome. The owner sets
     * req.offset, req.length and req.buf, enqueues the Read once, and
     * keeps it alive until onRead runs; onRead may free it. The other
     * fields belong to the batcher.
     */
    struct Read : AsyncIoHandler {
        io::IoRequest req;
        ReadBatcher *queue = nullptr;    ///< where a retry goes
        std::atomic<Read *> next{nullptr};  ///< TC queue link
        int retries = 0;

        /** The read's final status, once per enqueue (after retries). */
        virtual void onRead(const Status &st) = 0;

        void
        onIoComplete(const Status &st) final
        {
            queue->complete(*this, st);
        }
    };

    /**
     * @param device      the Value Storage's device (any io::IoBackend).
     * @param mode        batching policy.
     * @param queue_depth reads per device submission at most (paper: 64).
     */
    ReadBatcher(io::IoBackend &device, ReadBatchMode mode, int queue_depth);
    ~ReadBatcher();

    ReadBatcher(const ReadBatcher &) = delete;
    ReadBatcher &operator=(const ReadBatcher &) = delete;

    /**
     * Queue @p reads, in order, as one chain: they may share device
     * submissions with each other and with other issuers' reads.
     */
    void enqueue(std::span<Read *const> reads);

    void
    enqueue(Read &read)
    {
        Read *one = &read;
        enqueue({&one, 1});
    }

  private:
    /**
     * Submit from @p first on, in batches of up to the queue depth: in TC
     * mode until the queue closes, otherwise to the end of the chain.
     */
    void lead(Read *first);

    /** @p r's successor; nullptr at the end (TC: after closing the queue). */
    Read *successor(Read *r);

    /**
     * One device submission. A malformed read, which would make the
     * device reject the whole batch, fails to its handler instead.
     */
    void submit(std::span<const io::IoRequest> batch);

    /** Completion of @p r: retry a transient error, else onRead. */
    void complete(Read &r, const Status &st);

    void taLoop();

    io::IoBackend &device_;
    ReadBatchMode mode_;
    int queue_depth_;

    // TC state.
    std::atomic<Read *> tail_{nullptr};

    // TA state.
    std::mutex ta_mu_;
    std::condition_variable ta_cv_;
    std::vector<Read *> ta_pending_;
    bool stop_ = false;
    std::thread ta_thread_;

    // Retries waiting for the one in flight.
    std::mutex retry_mu_;
    std::deque<Read *> retry_wait_;
    bool retry_busy_ = false;

    // Shared-by-name process-wide metrics; requests/batches is the TCQ
    // combine ratio (Fig. 11).
    stats::Counter *reg_batches_;
    stats::Counter *reg_requests_;
    stats::Counter *reg_retries_;
};

/**
 * One read of a group whose issuer needs them all before it can go on
 * (readAll): a scan's or a multiGet's reads, or a GC pass's victim
 * chunks.
 */
struct GroupRead : ReadBatcher::Read {
    uint32_t ssd = 0;  ///< index of its queue in readAll's list
    std::vector<uint8_t> buf;
    Status status;
    std::atomic<uint32_t> *pending = nullptr;

    /** Aim the read at [offset, offset + len) of its SSD, into buf. */
    void
    aim(uint64_t offset, uint64_t len)
    {
        buf.resize(len);
        req.offset = offset;
        req.length = static_cast<uint32_t>(len);
        req.buf = buf.data();
    }

    void
    onRead(const Status &st) override
    {
        status = st;
        // The issuer may free this read as soon as the count hits zero.
        std::atomic<uint32_t> *p = pending;
        if (p->fetch_sub(1, std::memory_order_acq_rel) == 1)
            p->notify_all();
    }
};

/**
 * Enqueue @p reads, one chain per queue (a Value Storage: anything with
 * enqueueReads), and block until every one has completed, its retries
 * included. Returns the first error.
 */
template <typename Queues, typename R>
Status
readAll(const Queues &queues, const std::vector<std::unique_ptr<R>> &reads)
{
    std::atomic<uint32_t> pending{static_cast<uint32_t>(reads.size())};
    std::vector<std::vector<ReadBatcher::Read *>> chains(queues.size());
    for (const auto &r : reads) {
        r->pending = &pending;
        chains[r->ssd].push_back(r.get());
    }
    for (size_t i = 0; i < queues.size(); i++)
        queues[i]->enqueueReads(chains[i]);
    for (uint32_t n; (n = pending.load(std::memory_order_acquire)) != 0;)
        pending.wait(n, std::memory_order_acquire);
    for (const auto &r : reads)
        if (!r->status.isOk())
            return r->status;
    return Status::ok();
}

}  // namespace prism::core
