/**
 * @file
 * Example: time-series analytics over key ranges — exercises the
 * Scan-aware Value Cache and its eviction-time reorganisation (§4.4).
 *
 * Events are keyed by (series << 32 | timestamp), so one series is one
 * contiguous key range. An analyst repeatedly scans a few hot series;
 * after values spill to Value Storage, repeated scans first populate
 * the SVC, then eviction rewrites each scanned range into a contiguous
 * chunk, collapsing future scans into single sequential reads.
 */
#include <cstdio>

#include "common/rand.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

using namespace prism;

namespace {

uint64_t
eventKey(uint32_t series, uint32_t ts)
{
    return (static_cast<uint64_t>(series) << 32) | ts;
}

}  // namespace

int
main()
{
    auto nvm = std::make_shared<sim::NvmDevice>(512ull << 20);
    auto region = std::make_shared<pmem::PmemRegion>(nvm, true);
    core::PrismOptions opts;
    opts.svc_capacity_bytes = 2ull << 20;  // small cache: evictions happen
    auto db = core::ShardRouter::open(
        opts, {{region,
                {std::make_shared<sim::SsdDevice>(2ull << 30),
                 std::make_shared<sim::SsdDevice>(2ull << 30)}}});
    // Counters live in the process-wide stats registry: diff snapshots.
    const auto opened = db->stats();

    // Ingest: 64 series x 2000 events each, interleaved by time (as a
    // collector would), so on-SSD layout has no per-series locality.
    constexpr uint32_t kSeries = 64;
    constexpr uint32_t kEvents = 2000;
    std::string payload(512, 'e');
    for (uint32_t ts = 0; ts < kEvents; ts++) {
        for (uint32_t s = 0; s < kSeries; s++)
            db->put(eventKey(s, ts), payload);
    }
    db->flushAll();  // push everything to Value Storage

    // Analytics: repeatedly scan windows of a few hot series.
    Xorshift rng(17);
    std::vector<std::pair<uint64_t, std::string>> window;
    uint64_t values_read = 0;
    for (int query = 0; query < 400; query++) {
        const uint32_t series = static_cast<uint32_t>(
            rng.nextUniform(4));  // 4 hot series out of 64
        const uint32_t start_ts = static_cast<uint32_t>(
            rng.nextUniform(kEvents - 100));
        db->scan(eventKey(series, start_ts), 100, &window);
        values_read += window.size();
    }

    const auto now = db->stats();
    const auto delta = [&](const char *name) {
        return static_cast<unsigned long long>(
            now.counterDelta(opened, name));
    };
    std::printf("scanned %llu values over 400 range queries\n",
                static_cast<unsigned long long>(values_read));
    std::printf("SVC: %llu hits, %llu admissions, %llu evictions\n",
                delta("prism.svc.hits"), delta("prism.svc.admissions"),
                delta("prism.svc.evictions"));
    std::printf("scan-aware reorganisations: %llu (rewrote %llu values "
                "contiguously)\n",
                delta("prism.svc.scan_reorgs"),
                delta("prism.svc.reorged_values"));
    std::printf("SSD value reads: %llu\n", delta("prism.get.vs_reads"));
    return 0;
}
