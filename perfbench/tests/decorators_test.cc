// Tests for the benchmark's timing decorators (src/decorators.h) and
// the version bookkeeping behind its reply checks (src/inputs.h).
//
// Run with: python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "decorators.h"
#include "inputs.h"
#include "sim/ssd_device.h"

namespace perfbench {
namespace {

using prism::Status;
using prism::io::IoCompletion;
using prism::io::IoRequest;

constexpr uint64_t kDevBytes = 8ull << 20;

/** Reap from @p dev until @p n completions arrived or 5 s pass. */
std::vector<IoCompletion>
reapAll(prism::io::IoBackend &dev, size_t n)
{
    std::vector<IoCompletion> out;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (out.size() < n && std::chrono::steady_clock::now() < deadline)
        dev.waitCompletions(out, n - out.size(), 1000);
    return out;
}

class TimedDeviceTest : public ::testing::TestWithParam<bool> {};

TEST_P(TimedDeviceTest, RestoresUserDataOncePerRequest)
{
    auto sim = std::make_shared<prism::sim::SsdDevice>(
        kDevBytes, prism::sim::kSamsung980ProProfile, GetParam());
    TimedDevice dev(sim);
    dev.setRecording(true);

    std::vector<char> wbuf(4096, 'x'), rbuf(64 * 4096);
    std::map<uint64_t, int> seen;
    size_t submitted = 0;
    for (int b = 0; b < 16; b++) {
        std::vector<IoRequest> batch;
        for (int i = 0; i < 4; i++) {
            IoRequest r;
            const uint64_t id = 0xabc000000000ull + submitted;
            r.op = (i % 2) ? IoRequest::Op::kRead : IoRequest::Op::kWrite;
            r.offset = submitted * 4096;
            r.length = 4096;
            r.src = wbuf.data();
            r.buf = rbuf.data() + (submitted % 64) * 4096;
            r.user_data = id;
            batch.push_back(r);
            seen[id] = 0;
            submitted++;
        }
        ASSERT_TRUE(dev.submit(batch).isOk());
    }
    for (const auto &c : reapAll(dev, submitted)) {
        ASSERT_TRUE(seen.count(c.user_data)) << c.user_data;
        seen[c.user_data]++;
        EXPECT_TRUE(c.status.isOk());
    }
    for (const auto &[id, n] : seen)
        EXPECT_EQ(n, 1) << "user_data " << id;
    EXPECT_EQ(dev.outstanding(), 0u);
    // Nothing more arrives: exactly one completion per request.
    std::vector<IoCompletion> extra;
    dev.waitCompletions(extra, 16, 2000);
    EXPECT_TRUE(extra.empty());
    EXPECT_EQ(dev.takeRequestSpans().size(), submitted);
    EXPECT_EQ(dev.takeSubmitSpans().size(), 16u);
}

TEST_P(TimedDeviceTest, RejectedBatchPassesThroughUnchanged)
{
    auto sim = std::make_shared<prism::sim::SsdDevice>(
        kDevBytes, prism::sim::kSamsung980ProProfile, GetParam());
    TimedDevice dev(sim);
    std::vector<char> buf(4096);
    IoRequest good;
    good.op = IoRequest::Op::kRead;
    good.offset = 0;
    good.length = 4096;
    good.buf = buf.data();
    good.user_data = 1;
    IoRequest bad = good;
    bad.offset = kDevBytes;  // beyond capacity
    bad.user_data = 2;
    const std::vector<IoRequest> batch = {good, bad};

    const Status direct = sim->submit(batch);
    const Status wrapped = dev.submit(batch);
    EXPECT_FALSE(wrapped.isOk());
    EXPECT_EQ(wrapped.toString(), direct.toString());
    EXPECT_EQ(dev.outstanding(), 0u);
    std::vector<IoCompletion> out;
    dev.waitCompletions(out, 4, 2000);
    EXPECT_TRUE(out.empty());

    // The device still works afterwards, tags reused.
    ASSERT_TRUE(dev.submit(good).isOk());
    const auto done = reapAll(dev, 1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].user_data, 1u);
}

INSTANTIATE_TEST_SUITE_P(Timing, TimedDeviceTest, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "modelled" : "instant";
                         });

/**
 * A store whose GETs complete inline for even keys and on another
 * thread, later, for odd keys — the two completion paths Prism has
 * (DRAM/NVM hit vs Value Storage read).
 */
class TwoPathStore : public prism::ycsb::KvStore {
  public:
    ~TwoPathStore() override
    {
        for (auto &t : threads_)
            t.join();
    }
    std::string name() const override { return "two-path"; }
    Status put(uint64_t, std::string_view) override { return Status::ok(); }
    Status
    get(uint64_t key, std::string *v) override
    {
        if (key == 404)
            return Status::notFound("no such key");
        *v = "value-" + std::to_string(key);
        return Status::ok();
    }
    Status del(uint64_t) override { return Status::ok(); }
    Status
    scan(uint64_t, size_t, std::vector<std::pair<uint64_t, std::string>> *)
        override
    {
        return Status::ok();
    }
    prism::core::OpFuture
    asyncGet(uint64_t key, prism::core::AsyncCallback cb) override
    {
        if (key % 2 == 0)
            return KvStore::asyncGet(key, std::move(cb));
        auto st = std::make_shared<prism::core::AsyncOpState>();
        st->callback = std::move(cb);
        threads_.emplace_back([this, st, key] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            st->complete(get(key, &st->value));
        });
        return prism::core::OpFuture(st);
    }

  private:
    std::vector<std::thread> threads_;
};

TEST(TimedStoreTest, ForwardsInlineAndCallbackCompletions)
{
    TwoPathStore inner;
    TimedStore store(inner);
    store.setRecording(true);
    for (uint64_t key : {2ull, 3ull, 404ull}) {
        std::atomic<int> calls{0};
        Status seen;
        auto fut = store.asyncGet(key, [&](const Status &st) {
            seen = st;
            calls++;
        });
        const Status &st = fut.wait();
        // The callback runs before the future's waiters are released
        // only for inline completions; wait for it either way.
        while (calls.load() == 0)
            std::this_thread::yield();
        EXPECT_EQ(calls.load(), 1);
        EXPECT_EQ(seen.toString(), st.toString());
        if (key == 404) {
            EXPECT_TRUE(st.isNotFound());
        } else {
            ASSERT_TRUE(st.isOk());
            EXPECT_EQ(fut.value(), "value-" + std::to_string(key));
        }
    }
    // A callback-less call still completes and is still timed.
    auto fut = store.asyncGet(5);
    EXPECT_TRUE(fut.wait().isOk());
    EXPECT_EQ(fut.value(), "value-5");

    // Spans finish on whichever side ends last; allow the odd keys'
    // completion threads to get there.
    std::vector<StoreSpan> spans;
    for (int i = 0; i < 200 && spans.size() < 4; i++) {
        auto more = store.takeSpans();
        spans.insert(spans.end(), more.begin(), more.end());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(spans.size(), 4u);
    for (const auto &s : spans) {
        EXPECT_EQ(s.inline_done, s.key % 2 == 0) << s.key;
        EXPECT_LE(s.start_ns, s.return_ns);
        EXPECT_LE(s.start_ns, s.end_ns);
        if (!s.inline_done) {
            EXPECT_GE(s.end_ns - s.start_ns, 2000000u);
        }
    }
}

TEST(TimedStoreTest, BlockingCallsForwardUnchanged)
{
    TwoPathStore inner;
    TimedStore store(inner);
    store.setRecording(true);
    std::string v;
    EXPECT_TRUE(store.get(7, &v).isOk());
    EXPECT_EQ(v, "value-7");
    EXPECT_TRUE(store.get(404, &v).isNotFound());
    EXPECT_EQ(store.takeSpans().size(), 2u);
    store.setRecording(false);
    EXPECT_TRUE(store.get(8, &v).isOk());
    EXPECT_TRUE(store.takeSpans().empty());
}

TEST(KeyVersionsTest, FloorRisesOnlyAfterAnUncontendedWrite)
{
    KeyVersions kv(4);
    EXPECT_TRUE(kv.readOk(0, kv.floor(0), 1));  // the preload
    EXPECT_FALSE(kv.readOk(0, kv.floor(0), 2));  // never written
    EXPECT_FALSE(kv.readOk(0, kv.floor(0), 0));  // undecodable

    const auto a = kv.beginWrite(0);  // version 2, alone
    EXPECT_TRUE(a.solo);
    kv.endWrite(0, a, true);
    EXPECT_EQ(kv.floor(0), 2u);
    EXPECT_FALSE(kv.readOk(0, kv.floor(0), 1));  // older than an ack

    // Two overlapping writes may land in either order. The one that
    // drew its version alone still raises the floor to it; the other,
    // which overlapped an older version, does not. Both stay valid.
    const auto b = kv.beginWrite(0);
    const auto c = kv.beginWrite(0);
    EXPECT_TRUE(b.solo);
    EXPECT_FALSE(c.solo);
    kv.endWrite(0, c, true);
    EXPECT_EQ(kv.floor(0), 2u);
    kv.endWrite(0, b, true);
    EXPECT_EQ(kv.floor(0), b.version);
    EXPECT_TRUE(kv.readOk(0, kv.floor(0), b.version));
    EXPECT_TRUE(kv.readOk(0, kv.floor(0), c.version));

    // A failed write raises nothing; other keys are independent.
    const auto d = kv.beginWrite(0);
    kv.endWrite(0, d, false);
    EXPECT_EQ(kv.floor(0), b.version);
    EXPECT_EQ(kv.floor(1), 1u);
}

TEST(ValueCodecTest, DecodesOnlyItsOwnIntactValue)
{
    std::string v;
    ValueCodec::encode(7, 3, 1024, &v);
    EXPECT_EQ(ValueCodec::decode(7, v, 1024), 3u);
    EXPECT_EQ(ValueCodec::decode(8, v, 1024), 0u);  // another key
    v[500] ^= 1;
    EXPECT_EQ(ValueCodec::decode(7, v, 1024), 0u);  // corrupted
}

}  // namespace
}  // namespace perfbench
