/**
 * @file
 * Layer timing from outside, at two public boundaries of the engine:
 *
 *   - TimedStore wraps a ycsb::KvStore (the surface net::RespServer
 *     dispatches through). It times every call from entry to the
 *     completion callback, and separately how long the call itself
 *     blocked its caller (for the server: the event loop).
 *   - TimedDevice wraps an io::IoBackend (what each Value Storage
 *     submits to). It times every submit() call, and every request from
 *     submit to reap by swapping in its own user_data and restoring the
 *     caller's before the completion is handed back.
 *
 * Both forward results unchanged. Recording is off until setRecording
 * (true); while off TimedStore is a plain forward, and TimedDevice still
 * swaps user_data (a request may be reaped after recording starts) but
 * records nothing. Spans stay in memory until the run takes them.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include <time.h>

#include "io/io_backend.h"
#include "ycsb/kv_interface.h"

namespace perfbench {

/** @p clock in ns; with a CPU-time clock, the CPU used so far. */
uint64_t clockNs(clockid_t clock);
/** CLOCK_MONOTONIC in ns: every span's time base. */
uint64_t nowNs();

enum class OpKind : uint8_t { kGet, kPut, kDel, kScan };

/** One store call: entry, return to the caller, completion. */
struct StoreSpan {
    uint64_t key = 0;
    uint64_t start_ns = 0;
    uint64_t return_ns = 0;  ///< call returned (blocking time ends)
    uint64_t end_ns = 0;     ///< completion (callback or return)
    OpKind op = OpKind::kGet;
    bool inline_done = false;  ///< result ready when the call returned
    bool blocking = false;     ///< a blocking call, not an async one
};

class TimedStore : public prism::ycsb::KvStore {
  public:
    explicit TimedStore(prism::ycsb::KvStore &inner) : inner_(inner) {}

    TimedStore(const TimedStore &) = delete;
    TimedStore &operator=(const TimedStore &) = delete;

    void setRecording(bool on) { recording_.store(on); }
    /** Every span finished so far, in completion order; clears the log. */
    std::vector<StoreSpan> takeSpans();

    std::string name() const override { return inner_.name(); }
    prism::Status put(uint64_t key, std::string_view value) override;
    prism::Status get(uint64_t key, std::string *value) override;
    prism::Status del(uint64_t key) override;
    prism::Status
    scan(uint64_t start_key, size_t count,
         std::vector<std::pair<uint64_t, std::string>> *out) override;

    prism::core::OpFuture
    asyncPut(uint64_t key, std::string_view value,
             prism::core::AsyncCallback cb = nullptr) override;
    prism::core::OpFuture
    asyncGet(uint64_t key, prism::core::AsyncCallback cb = nullptr) override;
    prism::core::OpFuture
    asyncDel(uint64_t key, prism::core::AsyncCallback cb = nullptr) override;
    prism::core::OpFuture
    asyncScan(uint64_t start_key, size_t count,
              prism::core::AsyncCallback cb = nullptr) override;

    void flushAll() override { inner_.flushAll(); }
    uint64_t ssdBytesWritten() const override {
        return inner_.ssdBytesWritten();
    }
    uint64_t userBytesWritten() const override {
        return inner_.userBytesWritten();
    }

  private:
    struct Flight;
    template <typename Call>
    prism::core::OpFuture timedAsync(OpKind op, uint64_t key,
                                     prism::core::AsyncCallback cb,
                                     Call &&call);
    template <typename Call>
    prism::Status timedSync(OpKind op, uint64_t key, Call &&call);
    void record(const StoreSpan &s);

    prism::ycsb::KvStore &inner_;
    std::atomic<bool> recording_{false};

    // Sharded by calling thread so concurrent clients rarely contend.
    static constexpr size_t kShards = 8;
    struct Shard {
        std::mutex mu;
        std::vector<StoreSpan> spans;  // guarded by mu
    };
    Shard shards_[kShards];
};

/** One device request from submit to reap. */
struct DeviceSpan {
    uint64_t submit_ns = 0;
    uint64_t reap_ns = 0;
    uint32_t bytes = 0;
    bool is_read = true;
};

/** One submit() call. */
struct SubmitSpan {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t reads = 0;
    uint32_t writes = 0;
    uint64_t depth = 0;  ///< inflight() sampled before the call
};

class TimedDevice : public prism::io::IoBackend {
  public:
    explicit TimedDevice(std::shared_ptr<prism::io::IoBackend> inner)
        : inner_(std::move(inner))
    {
    }

    TimedDevice(const TimedDevice &) = delete;
    TimedDevice &operator=(const TimedDevice &) = delete;

    void setRecording(bool on) { recording_.store(on); }
    std::vector<DeviceSpan> takeRequestSpans();
    std::vector<SubmitSpan> takeSubmitSpans();
    /** Requests submitted through this decorator and not yet reaped. */
    size_t outstanding() const;

    using IoBackend::submit;
    prism::Status
    submit(std::span<const prism::io::IoRequest> batch) override;
    size_t pollCompletions(std::vector<prism::io::IoCompletion> &out,
                           size_t max) override;
    size_t waitCompletions(std::vector<prism::io::IoCompletion> &out,
                           size_t max, uint64_t timeout_us) override;

    prism::Status readSync(uint64_t offset, void *buf,
                           uint32_t length) override {
        return inner_->readSync(offset, buf, length);
    }
    prism::Status writeSync(uint64_t offset, const void *src,
                            uint32_t length) override {
        return inner_->writeSync(offset, src, length);
    }
    prism::Status flush() override { return inner_->flush(); }
    uint64_t capacity() const override { return inner_->capacity(); }
    uint64_t inflight() const override { return inner_->inflight(); }
    bool healthy() const override { return inner_->healthy(); }
    void setDropout(bool on) override { inner_->setDropout(on); }
    int deviceNumber() const override { return inner_->deviceNumber(); }
    prism::io::IoDeviceStats &stats() override { return inner_->stats(); }
    std::string_view kind() const override { return inner_->kind(); }

  private:
    struct Slot {
        uint64_t user_data = 0;
        uint64_t submit_ns = 0;
        uint32_t bytes = 0;
        bool is_read = true;
    };
    /** Restore user_data on out[from..] and record their spans. */
    void reaped(std::vector<prism::io::IoCompletion> &out, size_t from);

    std::shared_ptr<prism::io::IoBackend> inner_;
    std::atomic<bool> recording_{false};

    mutable std::mutex mu_;
    std::vector<Slot> slots_;        // guarded by mu_; index = our tag
    std::vector<uint32_t> free_;     // guarded by mu_
    std::vector<DeviceSpan> reqs_;   // guarded by mu_
    std::vector<SubmitSpan> submits_;  // guarded by mu_
};

}  // namespace perfbench
