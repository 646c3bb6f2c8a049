/**
 * @file
 * Quickstart: open a Prism store on simulated heterogeneous devices,
 * write, read, scan, delete, and recover after a restart.
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

using namespace prism;

int
main()
{
    // 1. Devices. One byte-addressable NVM DIMM and two flash SSDs.
    //    (On a real deployment these would be /dev/dax and NVMe
    //    namespaces; here they are simulated per the Figure-1 profiles.)
    auto nvm = std::make_shared<sim::NvmDevice>(256ull << 20);
    auto region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
    std::vector<core::ShardBackends> shards = {
        {region,
         {std::make_shared<sim::SsdDevice>(1ull << 30),
          std::make_shared<sim::SsdDevice>(1ull << 30)}},
    };

    // 2. Open a fresh store: one shard (one NVM region and its SSDs).
    core::PrismOptions opts;
    auto db = core::ShardRouter::open(opts, shards);

    // 3. Writes are durable on return: value lands in this thread's
    //    Persistent Write Buffer on NVM, then the HSIT forward pointer
    //    flips — that CAS is the durable linearization point.
    for (uint64_t k = 1; k <= 1000; k++) {
        const std::string value = "value-" + std::to_string(k);
        const Status st = db->put(k, value);
        if (!st.isOk()) {
            std::fprintf(stderr, "put failed: %s\n",
                         st.toString().c_str());
            return 1;
        }
    }

    // 4. Point reads check SVC (DRAM), then PWB (NVM), then Value
    //    Storage (SSD, batched via thread combining).
    std::string value;
    if (db->get(42, &value).isOk())
        std::printf("get(42)  -> %s\n", value.c_str());

    // 5. Range scans come back in key order.
    std::vector<std::pair<uint64_t, std::string>> range;
    db->scan(10, 5, &range);
    for (const auto &[k, v] : range)
        std::printf("scan     -> %llu = %s\n",
                    static_cast<unsigned long long>(k), v.c_str());

    // 6. Deletes.
    db->del(42);
    std::printf("get(42) after del -> %s\n",
                db->get(42, &value).toString().c_str());

    // 7. Restart: drop the process state, recover from NVM + SSD.
    db.reset();
    db = core::ShardRouter::recover(opts, shards);
    std::printf("recovered %zu keys in %.2f ms\n", db->size(),
                static_cast<double>(db->recoveryTimeNs()) / 1e6);
    if (db->get(7, &value).isOk())
        std::printf("get(7) after recovery -> %s\n", value.c_str());
    return 0;
}
