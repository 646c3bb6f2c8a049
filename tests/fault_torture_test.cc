/**
 * @file
 * Fault-injection framework tests (docs/FAULTS.md).
 *
 * Covers the registry itself (deterministic replay under a seed, every
 * trigger type, the schedule parser) and the wired failure surfaces:
 * injected SSD read errors are retried transparently, injected chunk
 * write failures are retried/re-queued without losing acked data, an
 * SSD dropout mid-run degrades the store gracefully, and a crash at an
 * armed pmem site recovers to a consistent image.
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/fault.h"
#include "common/rand.h"
#include "common/stats.h"
#include "core/chunk_writer.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

using fault::FaultRegistry;
using fault::FaultSpec;
using fault::Trigger;

uint64_t
counterValue(const char *name)
{
    return stats::StatsRegistry::global().counter(name).value();
}

/** Scoped disarm: every test leaves the process-wide registry clean. */
struct FaultGuard {
    FaultGuard() { FaultRegistry::global().disarmAll(); }
    ~FaultGuard() { FaultRegistry::global().disarmAll(); }
};

TEST(FaultRegistry, SameSeedReplaysSameFirePattern)
{
    FaultGuard guard;
    auto &reg = FaultRegistry::global();
    FaultSpec spec;
    spec.trigger = Trigger::kProbability;
    spec.probability = 0.3;

    const auto collect = [&](uint64_t seed) {
        reg.setSeed(seed);
        reg.arm("test.prob", spec);
        const uint32_t id = reg.siteId("test.prob");
        std::vector<bool> fired;
        for (int i = 0; i < 300; i++)
            fired.push_back(reg.shouldFire(id));
        return fired;
    };

    const auto a = collect(1234);
    const auto b = collect(1234);
    const auto c = collect(999);
    EXPECT_EQ(a, b) << "same seed must replay the same schedule";
    EXPECT_NE(a, c) << "different seed should perturb the schedule";
    const size_t fires =
        static_cast<size_t>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(fires, 40u);
    EXPECT_LT(fires, 150u);
}

TEST(FaultRegistry, TriggerTypes)
{
    FaultGuard guard;
    auto &reg = FaultRegistry::global();
    reg.setSeed(7);

    FaultSpec nth;
    nth.trigger = Trigger::kNth;
    nth.n = 3;
    reg.arm("test.nth", nth);
    const uint32_t nid = reg.siteId("test.nth");
    std::vector<bool> pattern;
    for (int i = 0; i < 6; i++)
        pattern.push_back(reg.shouldFire(nid));
    EXPECT_EQ(pattern,
              (std::vector<bool>{false, false, true, false, false, false}));

    FaultSpec every;
    every.trigger = Trigger::kEvery;
    every.n = 2;
    reg.arm("test.every", every);
    const uint32_t eid = reg.siteId("test.every");
    pattern.clear();
    for (int i = 0; i < 6; i++)
        pattern.push_back(reg.shouldFire(eid));
    EXPECT_EQ(pattern,
              (std::vector<bool>{false, true, false, true, false, true}));

    // once fires on the first hit and disarms itself.
    FaultSpec once;
    once.trigger = Trigger::kOnce;
    once.payload = 777;
    reg.arm("test.once", once);
    const uint32_t oid = reg.siteId("test.once");
    uint64_t payload = 0;
    EXPECT_TRUE(reg.shouldFire(oid, &payload));
    EXPECT_EQ(payload, 777u);
    EXPECT_FALSE(reg.shouldFire(oid));

    // oneshot modifier disarms a probabilistic site after its 1st fire.
    FaultSpec shot;
    shot.trigger = Trigger::kProbability;
    shot.probability = 1.0;
    shot.one_shot = true;
    reg.arm("test.oneshot", shot);
    const uint32_t sid = reg.siteId("test.oneshot");
    EXPECT_TRUE(reg.shouldFire(sid));
    EXPECT_FALSE(reg.shouldFire(sid));
}

TEST(FaultRegistry, ParserAcceptsTheDocumentedSyntax)
{
    FaultGuard guard;
    auto &reg = FaultRegistry::global();
    std::string err;
    EXPECT_TRUE(reg.armFromString("a.site=prob:0.25", &err)) << err;
    EXPECT_TRUE(reg.armFromString("b.site=nth:7,payload:123", &err)) << err;
    EXPECT_TRUE(reg.armFromString("c.site=every:2,oneshot", &err)) << err;
    EXPECT_TRUE(reg.armSchedule("d.site=once;e.site=prob:1", &err)) << err;

    const std::string schedule = reg.scheduleString();
    EXPECT_NE(schedule.find("a.site=prob:0.25"), std::string::npos);
    EXPECT_NE(schedule.find("b.site=nth:7,payload:123"), std::string::npos);

    // A repro schedule string must arm cleanly when fed back in.
    reg.disarmAll();
    EXPECT_TRUE(reg.armSchedule(schedule, &err)) << err;

    EXPECT_FALSE(reg.armFromString("garbage", &err));
    EXPECT_FALSE(reg.armFromString("x=wat:3", &err));
    EXPECT_FALSE(reg.armFromString("x=prob:1.5", &err));
    EXPECT_FALSE(reg.armFromString("x=nth:0", &err));
    EXPECT_FALSE(reg.armFromString("x=payload:7", &err)) << "no trigger";
}

TEST(FaultRegistry, OnFireCallbackRunsWithPayload)
{
    FaultGuard guard;
    auto &reg = FaultRegistry::global();
    uint64_t seen = 0;
    int calls = 0;
    reg.onFire("test.cb", [&](uint64_t p) {
        seen = p;
        calls++;
    });
    FaultSpec spec;
    spec.trigger = Trigger::kNth;
    spec.n = 2;
    spec.payload = 42;
    reg.arm("test.cb", spec);
    const uint32_t id = reg.siteId("test.cb");
    EXPECT_FALSE(reg.shouldFire(id));
    EXPECT_TRUE(reg.shouldFire(id));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(seen, 42u);
}

// ---------------------------------------------------------------------------
// Wired failure surfaces.

constexpr uint64_t kNvmBytes = 96ull * 1024 * 1024;
constexpr uint64_t kSsdBytes = 128ull * 1024 * 1024;

PrismOptions
smallOptions()
{
    PrismOptions opts;
    opts.pwb_size_bytes = 256 * 1024;
    opts.svc_capacity_bytes = 0;  // force SSD reads
    opts.enable_svc = false;
    opts.hsit_capacity = 32 * 1024;
    opts.chunk_bytes = 64 * 1024;
    return opts;
}

struct Rig {
    PrismOptions opts;
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<ShardRouter> db;

    explicit Rig(const PrismOptions &o, int num_ssds) : opts(o)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
        for (int i = 0; i < num_ssds; i++) {
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                kSsdBytes, sim::kSamsung980ProProfile, /*timing=*/false));
        }
        db = ShardRouter::open(opts, {{region, {ssds.begin(), ssds.end()}}});
    }
};

std::string
value(uint64_t key, uint64_t version)
{
    std::string v = "v" + std::to_string(key) + "." +
                    std::to_string(version) + ".";
    v.resize(64, 'x');
    return v;
}

TEST(FaultWiring, InjectedReadErrorsAreRetriedTransparently)
{
    for (const ReadBatchMode mode :
         {ReadBatchMode::kThreadCombining, ReadBatchMode::kTimeoutAsync,
          ReadBatchMode::kNone}) {
        SCOPED_TRACE(static_cast<int>(mode));
        FaultGuard guard;
        PrismOptions opts = smallOptions();
        opts.read_batch_mode = mode;
        Rig rig(opts, 1);
        constexpr uint64_t kKeys = 400;
        for (uint64_t k = 0; k < kKeys; k++)
            ASSERT_TRUE(rig.db->put(k, value(k, 1)).isOk());
        rig.db->flushAll();  // values now live on SSD

        // Every 3rd request to this device errors. Reads are issued one
        // at a time here, and the read queue retries a failed read
        // before any other, so the retry (the next hit) always succeeds.
        const std::string site = "ssd." +
                                 std::to_string(rig.ssds[0]->deviceNumber()) +
                                 ".io_error";
        const uint64_t retries_before = counterValue("prism.vs.retries");
        FaultSpec every3;
        every3.trigger = Trigger::kEvery;
        every3.n = 3;
        FaultRegistry::global().arm(site, every3);

        std::string v;
        for (uint64_t k = 0; k < kKeys; k += 7) {
            ASSERT_TRUE(rig.db->get(k, &v).isOk()) << k;
            EXPECT_EQ(v, value(k, 1)) << k;
            const uint64_t a = (k + 1) % kKeys;
            OpFuture f = rig.db->asyncGet(a);
            ASSERT_TRUE(f.wait().isOk()) << a;
            EXPECT_EQ(f.value(), value(a, 1)) << a;
        }
        // multiGet and scan queue many reads at once.
        std::vector<uint64_t> keys;
        for (uint64_t k = 0; k < 64; k++)
            keys.push_back(k);
        std::vector<std::optional<std::string>> out;
        ASSERT_TRUE(rig.db->multiGet(keys, &out).isOk());
        for (uint64_t k = 0; k < 64; k++) {
            ASSERT_TRUE(out[k].has_value()) << k;
            EXPECT_EQ(*out[k], value(k, 1)) << k;
        }
        std::vector<std::pair<uint64_t, std::string>> scanned;
        ASSERT_TRUE(rig.db->scan(0, 64, &scanned).isOk());
        ASSERT_EQ(scanned.size(), 64u);

        FaultRegistry::global().disarmAll();
        EXPECT_GT(counterValue("prism.vs.retries"), retries_before)
            << "faults were injected, so retries must have engaged";
    }
}

TEST(FaultWiring, TransientChunkWriteFaultIsRetried)
{
    FaultGuard guard;
    const uint64_t retries_before = counterValue("prism.pwb.retries");
    Rig rig(smallOptions(), 1);
    // First chunk submission fails once; its in-place retry succeeds.
    FaultSpec nth1;
    nth1.trigger = Trigger::kNth;
    nth1.n = 1;
    FaultRegistry::global().arm("pwb.chunk_write", nth1);

    constexpr uint64_t kKeys = 1000;
    for (uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(rig.db->put(k, value(k, 2)).isOk());
    rig.db->flushAll();
    FaultRegistry::global().disarmAll();

    EXPECT_GT(counterValue("prism.pwb.retries"), retries_before);
    std::string v;
    for (uint64_t k = 0; k < kKeys; k += 11) {
        ASSERT_TRUE(rig.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v, value(k, 2)) << k;
    }
}

TEST(FaultWiring, PermanentChunkWriteFailureIsReportedAndRecycled)
{
    FaultGuard guard;
    // Drive a ChunkWriter directly with an always-failing submit: after
    // the retry budget the record range is reported failed, no callback
    // fires, and the chunk goes back to the free list.
    auto dev = std::make_shared<sim::SsdDevice>(
        kSsdBytes, sim::kSamsung980ProProfile, /*timing=*/false);
    PrismOptions opts = smallOptions();
    EpochManager epochs;
    ValueStorage vs(0, dev, opts, epochs);
    const size_t free_before = vs.freeChunks();

    FaultSpec always;
    always.trigger = Trigger::kProbability;
    always.probability = 1.0;
    FaultRegistry::global().arm("pwb.chunk_write", always);

    int callbacks = 0;
    {
        ChunkWriter writer({&vs}, /*seed=*/1, /*max_inflight=*/0);
        writer.setChunkCallback(
            [&](ValueStorage *, int64_t, size_t, size_t) { callbacks++; });
        std::string payload(64, 'z');
        const ValueAddr a =
            writer.add(1, 99, payload.data(),
                       static_cast<uint32_t>(payload.size()));
        ASSERT_FALSE(a.isNull());
        ASSERT_TRUE(writer.finish().isOk());
        EXPECT_TRUE(writer.recordFailed(0));
        EXPECT_EQ(writer.firstFailedRecord(), 0u);
        EXPECT_EQ(callbacks, 0);
    }
    FaultRegistry::global().disarmAll();
    epochs.drain();  // apply the deferred chunk recycle
    EXPECT_EQ(vs.freeChunks(), free_before);
}

TEST(FaultWiring, SsdDropoutMidRunDegradesGracefully)
{
    FaultGuard guard;
    Rig rig(smallOptions(), 2);
    constexpr uint64_t kKeys = 1500;
    std::map<uint64_t, uint64_t> expected;
    for (uint64_t k = 0; k < kKeys / 2; k++) {
        ASSERT_TRUE(rig.db->put(k, value(k, 1)).isOk());
        expected[k] = 1;
    }
    // One SSD drops out mid-run; writes must drain to the healthy one.
    rig.ssds[1]->setDropout(true);
    for (uint64_t k = kKeys / 2; k < kKeys; k++) {
        ASSERT_TRUE(rig.db->put(k, value(k, 1)).isOk());
        expected[k] = 1;
    }
    rig.db->flushAll();

    const ErrorBudget budget = rig.db->errorBudget();
    EXPECT_TRUE(budget.degraded());
    EXPECT_EQ(budget.degraded_devices, 1u);

    // No lost acked writes: every key readable (reads still work on the
    // dropped-out device; fresh chunk writes went to the healthy one).
    std::string v;
    for (const auto &[k, ver] : expected) {
        ASSERT_TRUE(rig.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v, value(k, ver)) << k;
    }
    EXPECT_EQ(rig.db->size(), expected.size());

    // forceGc must not wedge on the sick device.
    rig.db->forceGc();

    // Device returns; the store leaves the degraded state.
    rig.ssds[1]->setDropout(false);
    EXPECT_FALSE(rig.db->errorBudget().degraded());
    ASSERT_TRUE(rig.db->put(1, value(1, 2)).isOk());
    ASSERT_TRUE(rig.db->get(1, &v).isOk());
    EXPECT_EQ(v, value(1, 2));
}

TEST(FaultWiring, BgTaskFaultRequeuesWithoutLosingWork)
{
    FaultGuard guard;
    const uint64_t faults_before = counterValue("prism.bg.task_faults");
    Rig rig(smallOptions(), 1);
    // The very first bg task is faulted and requeued; it must still run
    // on its second trip through the queue. 6000 puts push ~0.5MB
    // through the 256K ring, guaranteeing reclaim tasks get submitted.
    FaultSpec first;
    first.trigger = Trigger::kNth;
    first.n = 1;
    FaultRegistry::global().arm("bg.task", first);
    constexpr uint64_t kKeys = 6000;
    for (uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(rig.db->put(k, value(k, 3)).isOk());
    rig.db->flushAll();
    FaultRegistry::global().disarmAll();
    EXPECT_GT(counterValue("prism.bg.task_faults"), faults_before);
    std::string v;
    for (uint64_t k = 0; k < kKeys; k += 37) {
        ASSERT_TRUE(rig.db->get(k, &v).isOk()) << k;
        EXPECT_EQ(v, value(k, 3)) << k;
    }
}

TEST(FaultTorture, CrashAtArmedPmemSiteRecoversConsistently)
{
    FaultGuard guard;
    // Mixed workload with a crash captured the instant an armed pmem
    // flush fires mid-run; the recovered store must satisfy the full
    // invariants (no lost acked writes, no fabricated or torn values,
    // size/get/scan agreement).
    PrismOptions opts = smallOptions();
    opts.vs_gc_watermark = 1.1;  // append-only SSDs: mid-run capture safe
    auto nvm = std::make_shared<sim::NvmDevice>(
        kNvmBytes, sim::kOptaneDcpmmProfile, false);
    auto region = std::make_shared<pmem::PmemRegion>(nvm, true);
    region->enableTracking();
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    for (int i = 0; i < 2; i++) {
        ssds.push_back(std::make_shared<sim::SsdDevice>(
            kSsdBytes, sim::kSamsung980ProProfile, false));
    }
    auto db = ShardRouter::open(opts, {{region, {ssds.begin(), ssds.end()}}});

    constexpr uint64_t kKeys = 256;
    std::vector<std::atomic<uint64_t>> acked(kKeys);
    std::vector<std::atomic<uint64_t>> attempted(kKeys);

    auto &freg = FaultRegistry::global();
    freg.setSeed(42);
    std::vector<uint8_t> nvm_img;
    std::vector<std::vector<uint8_t>> ssd_imgs(ssds.size());
    std::vector<uint64_t> acked_floor(kKeys, 0);
    std::atomic<bool> captured{false};
    freg.onFire("pmem.flush", [&](uint64_t) {
        if (captured.exchange(true))
            return;
        // Capture-and-continue crash: NVM durable image first, then the
        // (append-only) SSDs — any SSD write landing after the NVM image
        // is unreferenced by it.
        for (uint64_t k = 0; k < kKeys; k++)
            acked_floor[k] = acked[k].load(std::memory_order_acquire);
        region->snapshotDurableTo(nvm_img);
        for (size_t i = 0; i < ssds.size(); i++)
            ssds[i]->snapshotTo(ssd_imgs[i]);
    });
    FaultSpec crash_at;
    crash_at.trigger = Trigger::kNth;
    crash_at.n = 4000;  // mid-run: well past open, well before the end
    freg.arm("pmem.flush", crash_at);

    Xorshift rng(42);
    uint64_t version = 0;
    for (int i = 0; i < 6000; i++) {
        const uint64_t key = rng.nextUniform(kKeys);
        version++;
        attempted[key].store(version, std::memory_order_release);
        ASSERT_TRUE(db->put(key, value(key, version)).isOk());
        acked[key].store(version, std::memory_order_release);
    }
    freg.disarmAll();
    ASSERT_TRUE(captured.load()) << "crash site never fired";

    // Rebuild devices from the crash image and recover.
    auto nvm2 = std::make_shared<sim::NvmDevice>(
        kNvmBytes, sim::kOptaneDcpmmProfile, false);
    nvm2->loadImage(nvm_img.data(), nvm_img.size());
    auto region2 = std::make_shared<pmem::PmemRegion>(nvm2, false);
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds2;
    for (const auto &img : ssd_imgs) {
        auto d = std::make_shared<sim::SsdDevice>(
            kSsdBytes, sim::kSamsung980ProProfile, false);
        d->loadFrom(img);
        ssds2.push_back(std::move(d));
    }
    auto recovered =
        ShardRouter::recover(opts, {{region2, {ssds2.begin(), ssds2.end()}}});

    size_t present = 0;
    for (uint64_t k = 0; k < kKeys; k++) {
        std::string v;
        const Status st = recovered->get(k, &v);
        if (st.isOk())
            present++;
        if (acked_floor[k] == 0) {
            continue;  // never acked before the crash: may be absent
        }
        ASSERT_TRUE(st.isOk()) << "lost acked key " << k;
        // The value must be some well-formed version this key was
        // actually given, at least as new as the pre-crash ack.
        unsigned long long vk = 0, ver = 0;
        ASSERT_EQ(std::sscanf(v.c_str(), "v%llu.%llu.", &vk, &ver), 2)
            << "torn value for key " << k;
        ASSERT_EQ(vk, k);
        EXPECT_EQ(v, value(k, ver)) << "torn value for key " << k;
        EXPECT_GE(ver, acked_floor[k]) << "stale value for key " << k;
        EXPECT_LE(ver, attempted[k].load()) << "fabricated version";
    }
    EXPECT_EQ(recovered->size(), present) << "size()/get() disagree";

    // scan() must agree with get() over the whole key space.
    std::vector<std::pair<uint64_t, std::string>> scanned;
    ASSERT_TRUE(recovered->scan(0, kKeys, &scanned).isOk());
    EXPECT_EQ(scanned.size(), present);
    for (const auto &[k, sv] : scanned) {
        std::string gv;
        ASSERT_TRUE(recovered->get(k, &gv).isOk()) << k;
        EXPECT_EQ(sv, gv) << k;
    }
}

}  // namespace
}  // namespace prism::core
