/**
 * @file
 * Property-based sweeps (parameterized gtest):
 *
 *  - Differential testing: the store must agree with a reference
 *    std::map under long random operation sequences, across a matrix
 *    of configurations (chunk size, PWB size, SVC capacity, batching
 *    mode) so every placement/reclaim/eviction path gets exercised.
 *  - Crash matrix: durable linearizability must hold at random crash
 *    points under each configuration.
 *  - Trace determinism: generated traces replay identically.
 */
#include <gtest/gtest.h>

#include <map>

#include "common/rand.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"
#include "ycsb/trace.h"

namespace prism::core {
namespace {

struct ConfigParam {
    const char *name;
    uint64_t chunk_bytes;
    uint64_t pwb_bytes;
    uint64_t svc_bytes;
    ReadBatchMode mode;
    bool scan_reorg;
};

const ConfigParam kConfigs[] = {
    {"default", 64 * 1024, 1 << 20, 4 << 20,
     ReadBatchMode::kThreadCombining, true},
    {"tiny_pwb", 64 * 1024, 128 * 1024, 4 << 20,
     ReadBatchMode::kThreadCombining, true},
    {"tiny_chunks", 8 * 1024, 512 * 1024, 4 << 20,
     ReadBatchMode::kThreadCombining, true},
    {"no_cache", 64 * 1024, 512 * 1024, 0,
     ReadBatchMode::kThreadCombining, true},
    {"timeout_async", 64 * 1024, 512 * 1024, 1 << 20,
     ReadBatchMode::kTimeoutAsync, false},
    {"unbatched", 64 * 1024, 512 * 1024, 1 << 20, ReadBatchMode::kNone,
     false},
};

PrismOptions
optionsFor(const ConfigParam &p)
{
    PrismOptions opts;
    opts.chunk_bytes = p.chunk_bytes;
    opts.pwb_size_bytes = p.pwb_bytes;
    opts.svc_capacity_bytes = std::max<uint64_t>(p.svc_bytes, 1);
    opts.enable_svc = p.svc_bytes > 0;
    opts.enable_scan_reorg = p.scan_reorg;
    opts.read_batch_mode = p.mode;
    opts.hsit_capacity = 32 * 1024;
    return opts;
}

struct Rig {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::shared_ptr<pmem::PmemRegion> region;
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    std::unique_ptr<ShardRouter> db;

    explicit Rig(const PrismOptions &opts, bool tracking = false)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            96ull << 20, sim::kOptaneDcpmmProfile, false);
        region = std::make_shared<pmem::PmemRegion>(nvm, true);
        if (tracking)
            region->enableTracking();
        for (int i = 0; i < 2; i++) {
            ssds.push_back(std::make_shared<sim::SsdDevice>(
                96ull << 20, sim::kSamsung980ProProfile, false));
        }
        db = ShardRouter::open(opts, {{region, {ssds.begin(), ssds.end()}}});
    }
};

class ConfigMatrixTest : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(ConfigMatrixTest, AgreesWithReferenceModel)
{
    Rig rig(optionsFor(GetParam()));
    std::map<uint64_t, std::string> ref;
    Xorshift rng(41);

    auto random_value = [&](uint64_t key, uint64_t round) {
        std::string v = "k" + std::to_string(key) + "r" +
                        std::to_string(round);
        v.resize(32 + rng.nextUniform(400), 'p');
        return v;
    };

    for (uint64_t i = 0; i < 40000; i++) {
        const uint64_t key = rng.nextUniform(1200);
        const double p = rng.nextDouble();
        if (p < 0.45) {
            const std::string v = random_value(key, i);
            ASSERT_TRUE(rig.db->put(key, v).isOk());
            ref[key] = v;
        } else if (p < 0.55) {
            const Status st = rig.db->del(key);
            ASSERT_EQ(st.isOk(), ref.erase(key) > 0) << st.toString();
        } else if (p < 0.9) {
            std::string v;
            const Status st = rig.db->get(key, &v);
            const auto it = ref.find(key);
            if (it == ref.end()) {
                ASSERT_TRUE(st.isNotFound()) << key << " " << st.toString();
            } else {
                ASSERT_TRUE(st.isOk()) << key << " " << st.toString();
                ASSERT_EQ(v, it->second) << key;
            }
        } else {
            std::vector<std::pair<uint64_t, std::string>> out;
            {
                const Status sst = rig.db->scan(key, 8, &out);
                ASSERT_TRUE(sst.isOk()) << sst.toString();
            }
            auto it = ref.lower_bound(key);
            for (const auto &[k, v] : out) {
                ASSERT_NE(it, ref.end());
                ASSERT_EQ(k, it->first);
                ASSERT_EQ(v, it->second);
                ++it;
            }
            // The scan may return fewer only at end of key space.
            if (out.size() < 8) {
                size_t remaining = 0;
                for (auto r = ref.lower_bound(key); r != ref.end(); ++r)
                    remaining++;
                ASSERT_EQ(out.size(), std::min<size_t>(remaining, 8));
            }
        }
        if (i % 9000 == 8999)
            rig.db->flushAll();  // exercise SSD residency
    }
    EXPECT_EQ(rig.db->size(), ref.size());
}

TEST_P(ConfigMatrixTest, DurableAtRandomCrashPoints)
{
    PrismOptions opts = optionsFor(GetParam());
    opts.vs_gc_watermark = 1.1;  // append-only SSDs: snapshots consistent
    Rig rig(opts, /*tracking=*/true);
    std::map<uint64_t, uint64_t> committed;  // key -> version
    Xorshift rng(17);

    for (int i = 0; i < 1200; i++) {
        const uint64_t key = rng.nextUniform(150);
        const uint64_t ver = static_cast<uint64_t>(i) + 1;
        std::string v = "v" + std::to_string(ver) + ".";
        v.resize(64, 'q');
        ASSERT_TRUE(rig.db->put(key, v).isOk());
        committed[key] = ver;

        if (i % 211 != 210)
            continue;
        std::vector<uint8_t> nvm_img;
        rig.region->snapshotDurableTo(nvm_img);
        std::vector<std::vector<uint8_t>> ssd_imgs(rig.ssds.size());
        for (size_t s = 0; s < rig.ssds.size(); s++)
            rig.ssds[s]->snapshotTo(ssd_imgs[s]);

        auto nvm2 = std::make_shared<sim::NvmDevice>(
            96ull << 20, sim::kOptaneDcpmmProfile, false);
        nvm2->loadImage(nvm_img.data(), nvm_img.size());
        auto region2 =
            std::make_shared<pmem::PmemRegion>(nvm2, false);
        std::vector<std::shared_ptr<sim::SsdDevice>> ssds2;
        for (const auto &img : ssd_imgs) {
            auto d = std::make_shared<sim::SsdDevice>(
                96ull << 20, sim::kSamsung980ProProfile, false);
            d->loadFrom(img);
            ssds2.push_back(std::move(d));
        }
        auto recovered = ShardRouter::recover(
            opts, {{region2, {ssds2.begin(), ssds2.end()}}});
        ASSERT_EQ(recovered->size(), committed.size()) << "op " << i;
        for (const auto &[k, ver] : committed) {
            std::string v;
            ASSERT_TRUE(recovered->get(k, &v).isOk())
                << "op " << i << " key " << k;
            ASSERT_EQ(v.substr(0, v.find('.') + 1),
                      "v" + std::to_string(ver) + ".");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, ConfigMatrixTest,
                         ::testing::ValuesIn(kConfigs),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST(TraceTest, RoundtripPreservesOps)
{
    ycsb::WorkloadSpec spec =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kE, 5000, 3000);
    const std::string path = "/tmp/prism_trace_test.bin";
    ASSERT_EQ(ycsb::generateTrace(spec, 7, path), 3000u);

    ycsb::TraceReader reader(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.count(), 3000u);
    EXPECT_EQ(reader.valueBytes(), spec.value_bytes);

    // The trace must match a fresh generator with the same seed.
    ycsb::OpGenerator gen(spec, 7);
    ycsb::Op from_file{}, from_gen{};
    size_t n = 0;
    while (reader.next(&from_file)) {
        from_gen = gen.next();
        ASSERT_EQ(from_file.key, from_gen.key) << n;
        ASSERT_EQ(static_cast<int>(from_file.type),
                  static_cast<int>(from_gen.type));
        ASSERT_EQ(from_file.scan_len, from_gen.scan_len);
        n++;
    }
    EXPECT_EQ(n, 3000u);

    // reset() rewinds.
    reader.reset();
    ASSERT_TRUE(reader.next(&from_file));
}

TEST(TraceTest, ReplayProducesSameStateAsLiveRun)
{
    ycsb::WorkloadSpec spec =
        ycsb::WorkloadSpec::forMix(ycsb::Mix::kA, 2000, 4000);
    spec.value_bytes = 64;
    const std::string path = "/tmp/prism_trace_replay.bin";
    ASSERT_GT(ycsb::generateTrace(spec, 3, path), 0u);

    PrismOptions opts;
    opts.hsit_capacity = 32 * 1024;
    Rig a(opts), b(opts);

    // Live single-threaded run from the same generator seed.
    {
        ycsb::OpGenerator gen(spec, 3);
        std::string value;
        std::vector<std::pair<uint64_t, std::string>> scan_out;
        for (uint64_t i = 0; i < spec.operation_count; i++) {
            const ycsb::Op op = gen.next();
            switch (op.type) {
              case ycsb::OpType::kInsert:
              case ycsb::OpType::kUpdate:
                ycsb::OpGenerator::fillValue(op.key, spec.value_bytes,
                                             &value);
                a.db->put(op.key, value);
                break;
              case ycsb::OpType::kRead:
                a.db->get(op.key, &value);
                break;
              case ycsb::OpType::kScan:
                a.db->scan(op.key, op.scan_len, &scan_out);
                break;
            }
        }
    }
    struct Adapter : ycsb::KvStore {
        ShardRouter *db;
        std::string name() const override { return "rig"; }
        Status put(uint64_t k, std::string_view v) override {
            return db->put(k, v);
        }
        Status get(uint64_t k, std::string *v) override {
            return db->get(k, v);
        }
        Status del(uint64_t k) override { return db->del(k); }
        Status
        scan(uint64_t k, size_t n,
             std::vector<std::pair<uint64_t, std::string>> *out) override
        {
            return db->scan(k, n, out);
        }
    } adapter;
    adapter.db = b.db.get();
    const ycsb::RunResult r = ycsb::replayTrace(adapter, path, 1);
    EXPECT_EQ(r.ops, spec.operation_count);

    // Both stores must end with identical contents.
    EXPECT_EQ(a.db->size(), b.db->size());
    std::string va, vb;
    for (uint64_t i = 0; i < 2000; i += 37) {
        const uint64_t key = ycsb::OpGenerator::keyOf(i);
        const Status sa = a.db->get(key, &va);
        const Status sb = b.db->get(key, &vb);
        ASSERT_EQ(sa.isOk(), sb.isOk()) << key;
        if (sa.isOk()) {
            ASSERT_EQ(va, vb);
        }
    }
}

}  // namespace
}  // namespace prism::core
