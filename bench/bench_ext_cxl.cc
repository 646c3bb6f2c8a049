/**
 * @file
 * Extension experiment (paper §8 discussion): does Prism's design carry
 * over to post-Optane, CXL-attached persistent memory?
 *
 * Runs the same YCSB mixes with the NVM components (Key Index, HSIT,
 * PWB) on (a) Optane DCPMM and (b) a prospective CXL-NVM profile
 * (~2.5x the load latency, higher bandwidth). The paper argues the
 * architecture only needs *a* low-latency byte-addressable tier; the
 * expectation is a modest, latency-driven slowdown — not a collapse.
 */
#include "bench_util.h"

#include "pmem/pmem_region.h"

using namespace prism;
using namespace prism::bench;

int
main(int argc, char **argv)
{
    maybeDumpStatsAtExit(argc, argv);
    maybeTraceToFileAtExit(argc, argv);
    maybeProfileToFileAtExit(argc, argv);
    maybeTelemetryToFileAtExit(argc, argv);
    BenchScale s;
    s.ops = envOr("PRISM_BENCH_OPS", 40000) / 2;
    printScale(s);
    std::printf("== Extension (§8): Prism on DCPMM vs CXL-NVM ==\n");

    struct NvmChoice {
        const char *name;
        const sim::DeviceProfile *profile;
    };
    const NvmChoice choices[] = {
        {"Optane-DCPMM", &sim::kOptaneDcpmmProfile},
        {"CXL-NVM", &sim::kCxlNvmProfile},
    };

    for (const auto &choice : choices) {
        // Build the store manually so the NVM profile is swappable.
        FixtureOptions fx = fixtureFor(s);
        core::PrismOptions opts;
        const uint64_t pwb_total =
            std::max<uint64_t>(fx.dataset_bytes * 16 / 100, 16 << 20);
        opts.pwb_size_bytes = std::max<uint64_t>(
            pwb_total / static_cast<uint64_t>(fx.expected_threads),
            2 << 20);
        opts.pwb_size_bytes &= ~63ull;
        opts.svc_capacity_bytes =
            std::max<uint64_t>(fx.dataset_bytes * 20 / 100, 16 << 20);
        const uint64_t nvm_bytes =
            pwb_total * 2 + opts.hsit_capacity * 32 +
            std::max<uint64_t>(fx.dataset_bytes / 4, 128 << 20);
        auto nvm = std::make_shared<sim::NvmDevice>(
            nvm_bytes, *choice.profile, fx.model_timing);
        auto region =
            std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
        std::vector<core::ShardBackends> shards = {{region, {}}};
        for (int i = 0; i < fx.num_ssds; i++) {
            shards[0].devices.push_back(std::make_shared<sim::SsdDevice>(
                fx.ssd_bytes, fx.ssd_profile, fx.model_timing));
        }
        auto db = core::ShardRouter::open(opts, std::move(shards));

        struct Shim : ycsb::KvStore {
            core::ShardRouter *db;
            std::string name() const override { return "Prism"; }
            Status put(uint64_t k, std::string_view v) override {
                return db->put(k, v);
            }
            Status get(uint64_t k, std::string *v) override {
                return db->get(k, v);
            }
            Status del(uint64_t k) override { return db->del(k); }
            Status
            scan(uint64_t k, size_t n,
                 std::vector<std::pair<uint64_t, std::string>> *out)
                override
            {
                return db->scan(k, n, out);
            }
            void flushAll() override { db->flushAll(); }
        } shim;
        shim.db = db.get();

        loadDataset(shim, s);
        for (const Mix mix : {Mix::kA, Mix::kC, Mix::kE}) {
            const uint64_t ops = mix == Mix::kE ? s.ops / 10 : s.ops;
            const RunResult r = runMix(shim, mix, s, 0.99, ops);
            std::printf("%-13s %-8s %9.1f Kops/s  (avg %7.1fus  p99 "
                        "%7.1fus)\n",
                        choice.name, ycsb::mixName(mix),
                        r.throughput() / 1e3, r.overall.mean() / 1e3,
                        static_cast<double>(r.overall.percentile(0.99)) /
                            1e3);
            std::fflush(stdout);
        }
    }
    return 0;
}
