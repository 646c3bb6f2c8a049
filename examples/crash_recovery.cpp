/**
 * @file
 * Example: surviving a power failure — demonstrates the cross-media
 * crash-consistency protocol (§5.5) with the adversarial persistence
 * model enabled.
 *
 * The pmem region runs in tracking mode, so only explicitly
 * flushed+fenced cache lines are durable. The program writes a batch,
 * captures the power-failure image mid-workload, "reboots" onto fresh
 * devices loaded from that image, and verifies every acknowledged
 * write is present.
 */
#include <cstdio>

#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

using namespace prism;

int
main()
{
    constexpr uint64_t kNvmBytes = 128ull << 20;
    constexpr uint64_t kSsdBytes = 512ull << 20;

    auto nvm = std::make_shared<sim::NvmDevice>(
        kNvmBytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
    auto region = std::make_shared<pmem::PmemRegion>(nvm, true);
    region->enableTracking();  // adversarial persistence model on
    auto ssd = std::make_shared<sim::SsdDevice>(
        kSsdBytes, sim::kSamsung980ProProfile, false);

    core::PrismOptions opts;
    opts.pwb_size_bytes = 1 << 20;  // small PWB: values reach the SSD
    auto db = core::ShardRouter::open(opts, {{region, {ssd}}});

    constexpr uint64_t kAcked = 20000;
    for (uint64_t k = 0; k < kAcked; k++) {
        const Status st = db->put(k, "durable-" + std::to_string(k));
        if (!st.isOk()) {
            std::fprintf(stderr, "put: %s\n", st.toString().c_str());
            return 1;
        }
    }
    std::printf("acknowledged %llu puts\n",
                static_cast<unsigned long long>(kAcked));

    // Power failure NOW: capture exactly what is durable — flushed NVM
    // lines and completed SSD writes. Unfenced stores evaporate.
    std::vector<uint8_t> nvm_image;
    region->snapshotDurableTo(nvm_image);
    std::vector<uint8_t> ssd_image;
    ssd->snapshotTo(ssd_image);
    std::printf("power failure injected (captured durable image)\n");

    // Reboot: fresh process state, devices restored from the image.
    db.reset();
    auto nvm2 = std::make_shared<sim::NvmDevice>(
        kNvmBytes, sim::kOptaneDcpmmProfile, false);
    nvm2->loadImage(nvm_image.data(), nvm_image.size());
    auto region2 = std::make_shared<pmem::PmemRegion>(nvm2, false);
    auto ssd2 = std::make_shared<sim::SsdDevice>(
        kSsdBytes, sim::kSamsung980ProProfile, false);
    ssd2->loadFrom(ssd_image);
    auto recovered = core::ShardRouter::recover(opts, {{region2, {ssd2}}});

    std::printf("recovery completed in %.2f ms\n",
                static_cast<double>(recovered->recoveryTimeNs()) / 1e6);

    uint64_t present = 0;
    std::string v;
    for (uint64_t k = 0; k < kAcked; k++) {
        if (recovered->get(k, &v).isOk() &&
            v == "durable-" + std::to_string(k)) {
            present++;
        }
    }
    std::printf("verified %llu / %llu acknowledged writes survived\n",
                static_cast<unsigned long long>(present),
                static_cast<unsigned long long>(kAcked));
    return present == kAcked ? 0 : 1;
}
