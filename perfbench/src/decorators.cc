#include "decorators.h"

#include <functional>
#include <thread>
#include <utility>
#include <time.h>

namespace perfbench {

using prism::Status;
using prism::core::AsyncCallback;
using prism::core::OpFuture;

uint64_t
clockNs(clockid_t clock)
{
    timespec ts;
    clock_gettime(clock, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t
nowNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

// ---------------------------------------------------------------------------
// TimedStore

/**
 * Shared by the caller (which fills return_ns and inline_done) and the
 * completion callback (end_ns); whichever finishes second records.
 */
struct TimedStore::Flight {
    TimedStore *owner;
    StoreSpan span;
    std::atomic<int> parts{2};

    void
    finishPart()
    {
        if (parts.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            owner->record(span);
            delete this;
        }
    }
};

void
TimedStore::record(const StoreSpan &s)
{
    const size_t i =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].spans.push_back(s);
}

std::vector<StoreSpan>
TimedStore::takeSpans()
{
    std::vector<StoreSpan> all;
    for (auto &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mu);
        all.insert(all.end(), sh.spans.begin(), sh.spans.end());
        sh.spans.clear();
    }
    return all;
}

template <typename Call>
OpFuture
TimedStore::timedAsync(OpKind op, uint64_t key, AsyncCallback cb,
                       Call &&call)
{
    if (!recording_.load(std::memory_order_relaxed))
        return call(std::move(cb));
    auto *f = new Flight{this, {}};
    f->span.key = key;
    f->span.op = op;
    f->span.start_ns = nowNs();
    OpFuture fut = call([f, cb = std::move(cb)](const Status &st) {
        f->span.end_ns = nowNs();
        if (cb)
            cb(st);
        f->finishPart();
    });
    f->span.return_ns = nowNs();
    f->span.inline_done = fut.valid() && fut.ready();
    f->finishPart();
    return fut;
}

OpFuture
TimedStore::asyncPut(uint64_t key, std::string_view value, AsyncCallback cb)
{
    return timedAsync(OpKind::kPut, key, std::move(cb),
                      [&](AsyncCallback c) {
                          return inner_.asyncPut(key, value, std::move(c));
                      });
}

OpFuture
TimedStore::asyncGet(uint64_t key, AsyncCallback cb)
{
    return timedAsync(OpKind::kGet, key, std::move(cb),
                      [&](AsyncCallback c) {
                          return inner_.asyncGet(key, std::move(c));
                      });
}

OpFuture
TimedStore::asyncDel(uint64_t key, AsyncCallback cb)
{
    return timedAsync(OpKind::kDel, key, std::move(cb),
                      [&](AsyncCallback c) {
                          return inner_.asyncDel(key, std::move(c));
                      });
}

OpFuture
TimedStore::asyncScan(uint64_t start_key, size_t count, AsyncCallback cb)
{
    return timedAsync(OpKind::kScan, start_key, std::move(cb),
                      [&](AsyncCallback c) {
                          return inner_.asyncScan(start_key, count,
                                                  std::move(c));
                      });
}

template <typename Call>
Status
TimedStore::timedSync(OpKind op, uint64_t key, Call &&call)
{
    if (!recording_.load(std::memory_order_relaxed))
        return call();
    StoreSpan s;
    s.key = key;
    s.op = op;
    s.start_ns = nowNs();
    Status st = call();
    s.return_ns = s.end_ns = nowNs();
    s.inline_done = true;
    s.blocking = true;
    record(s);
    return st;
}

Status
TimedStore::put(uint64_t key, std::string_view value)
{
    return timedSync(OpKind::kPut, key,
                     [&] { return inner_.put(key, value); });
}

Status
TimedStore::get(uint64_t key, std::string *value)
{
    return timedSync(OpKind::kGet, key,
                     [&] { return inner_.get(key, value); });
}

Status
TimedStore::del(uint64_t key)
{
    return timedSync(OpKind::kDel, key,
                     [&] { return inner_.del(key); });
}

Status
TimedStore::scan(uint64_t start_key, size_t count,
                 std::vector<std::pair<uint64_t, std::string>> *out)
{
    return timedSync(OpKind::kScan, start_key,
                     [&] { return inner_.scan(start_key, count, out); });
}

// ---------------------------------------------------------------------------
// TimedDevice
//
// Every request is tagged, recording or not, so a request submitted
// while recording is off is still recognised when it is reaped later.

Status
TimedDevice::submit(std::span<const prism::io::IoRequest> batch)
{
    std::vector<prism::io::IoRequest> tagged(batch.begin(), batch.end());
    SubmitSpan call;
    call.depth = inner_->inflight();
    call.start_ns = nowNs();
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &req : tagged) {
            uint32_t tag;
            if (free_.empty()) {
                tag = static_cast<uint32_t>(slots_.size());
                slots_.emplace_back();
            } else {
                tag = free_.back();
                free_.pop_back();
            }
            const bool is_read = req.op == prism::io::IoRequest::Op::kRead;
            slots_[tag] = {req.user_data, call.start_ns, req.length,
                           is_read};
            req.user_data = tag;
            (is_read ? call.reads : call.writes)++;
        }
    }
    const Status st = inner_->submit(tagged);
    call.end_ns = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (!st.isOk()) {
        // A rejected batch produced no completions: release its tags.
        for (const auto &req : tagged)
            free_.push_back(static_cast<uint32_t>(req.user_data));
        return st;
    }
    if (recording_.load(std::memory_order_relaxed))
        submits_.push_back(call);
    return st;
}

void
TimedDevice::reaped(std::vector<prism::io::IoCompletion> &out, size_t from)
{
    if (from == out.size())
        return;
    const uint64_t now = nowNs();
    const bool rec = recording_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = from; i < out.size(); i++) {
        const auto tag = static_cast<uint32_t>(out[i].user_data);
        const Slot &s = slots_[tag];
        out[i].user_data = s.user_data;
        if (rec)
            reqs_.push_back({s.submit_ns, now, s.bytes, s.is_read});
        free_.push_back(tag);
    }
}

size_t
TimedDevice::pollCompletions(std::vector<prism::io::IoCompletion> &out,
                             size_t max)
{
    const size_t from = out.size();
    const size_t n = inner_->pollCompletions(out, max);
    reaped(out, from);
    return n;
}

size_t
TimedDevice::waitCompletions(std::vector<prism::io::IoCompletion> &out,
                             size_t max, uint64_t timeout_us)
{
    const size_t from = out.size();
    const size_t n = inner_->waitCompletions(out, max, timeout_us);
    reaped(out, from);
    return n;
}

size_t
TimedDevice::outstanding() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size() - free_.size();
}

std::vector<DeviceSpan>
TimedDevice::takeRequestSpans()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(reqs_, {});
}

std::vector<SubmitSpan>
TimedDevice::takeSubmitSpans()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(submits_, {});
}

}  // namespace perfbench
