/**
 * @file
 * Uniform key-value store interface the YCSB driver runs against.
 * Adapters wrap the Prism store (core::ShardRouter) and every
 * baseline behind it.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <memory>

#include "common/stats.h"
#include "common/status.h"
#include "core/async.h"

namespace prism::ycsb {

/** Minimal KV API common to all evaluated stores. */
class KvStore {
  public:
    virtual ~KvStore() = default;

    virtual std::string name() const = 0;
    virtual Status put(uint64_t key, std::string_view value) = 0;
    virtual Status get(uint64_t key, std::string *value) = 0;
    virtual Status del(uint64_t key) = 0;
    virtual Status scan(uint64_t start_key, size_t count,
                        std::vector<std::pair<uint64_t, std::string>> *out)
        = 0;

    /**
     * Batched point lookups: out[i] holds keys[i]'s value, or nullopt
     * for missing keys. The default loops over get(); stores with a
     * real batch path (Prism's per-Value-Storage read batching, the
     * shard router's per-shard fan-out) override it.
     */
    virtual Status
    multiGet(const std::vector<uint64_t> &keys,
             std::vector<std::optional<std::string>> *out)
    {
        out->assign(keys.size(), std::nullopt);
        for (size_t i = 0; i < keys.size(); i++) {
            std::string v;
            const Status st = get(keys[i], &v);
            if (st.isOk())
                (*out)[i] = std::move(v);
            else if (!st.isNotFound())
                return st;
        }
        return Status::ok();
    }

    /**
     * @name Asynchronous operations (core/async.h)
     *
     * Completion-driven variants. The defaults wrap the blocking calls
     * (the future is always ready on return), so every baseline gets
     * the API for free; stores with a real async engine (Prism)
     * override them to keep the I/O in flight.
     */
    ///@{
    virtual core::OpFuture
    asyncPut(uint64_t key, std::string_view value,
             core::AsyncCallback cb = nullptr)
    {
        auto st = std::make_shared<core::AsyncOpState>();
        st->callback = std::move(cb);
        st->complete(put(key, value));
        return core::OpFuture(std::move(st));
    }

    virtual core::OpFuture
    asyncGet(uint64_t key, core::AsyncCallback cb = nullptr)
    {
        auto st = std::make_shared<core::AsyncOpState>();
        st->callback = std::move(cb);
        st->complete(get(key, &st->value));
        return core::OpFuture(std::move(st));
    }

    virtual core::OpFuture
    asyncDel(uint64_t key, core::AsyncCallback cb = nullptr)
    {
        auto st = std::make_shared<core::AsyncOpState>();
        st->callback = std::move(cb);
        st->complete(del(key));
        return core::OpFuture(std::move(st));
    }

    virtual core::OpFuture
    asyncScan(uint64_t start_key, size_t count,
              core::AsyncCallback cb = nullptr)
    {
        auto st = std::make_shared<core::AsyncOpState>();
        st->callback = std::move(cb);
        st->complete(scan(start_key, count, &st->rows));
        return core::OpFuture(std::move(st));
    }
    ///@}

    /** Quiesce background work (between load and run phases). */
    virtual void flushAll() {}

    /** Bytes physically written to SSD media (WAF numerator). */
    virtual uint64_t ssdBytesWritten() const { return 0; }

    /** Bytes of user values written (WAF denominator). */
    virtual uint64_t userBytesWritten() const { return 0; }

    /**
     * Snapshot of the process-wide metrics registry. Every store in this
     * process instruments into the same registry, so the default is
     * correct for all adapters (docs/OBSERVABILITY.md lists the names).
     */
    virtual stats::StatsSnapshot stats() const {
        return stats::StatsRegistry::global().snapshot();
    }
};

}  // namespace prism::ycsb
