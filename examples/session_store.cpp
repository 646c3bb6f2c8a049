/**
 * @file
 * Example: a web session store — the write-intensive, skewed workload
 * class the paper's introduction motivates (caching/serving tiers).
 *
 * Many concurrent clients update a hot set of session records and read
 * them back; a background sweeper deletes expired sessions. Shows
 * multi-threaded use of the public API, the PWB absorbing the write
 * burst, and stats introspection.
 */
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rand.h"
#include "core/shard_router.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

using namespace prism;

namespace {

std::string
sessionBlob(uint64_t user, uint64_t version)
{
    // ~300 B of "serialized session state".
    std::string blob = "user=" + std::to_string(user) +
                       ";v=" + std::to_string(version) + ";cart=";
    blob.resize(300, 'x');
    return blob;
}

}  // namespace

int
main()
{
    auto nvm = std::make_shared<sim::NvmDevice>(512ull << 20);
    auto region = std::make_shared<pmem::PmemRegion>(nvm, true);
    core::PrismOptions opts;
    opts.pwb_size_bytes = 1 << 20;  // small PWBs: reclamation is active
    auto db = core::ShardRouter::open(
        opts, {{region,
                {std::make_shared<sim::SsdDevice>(2ull << 30),
                 std::make_shared<sim::SsdDevice>(2ull << 30)}}});
    // Counters live in the process-wide stats registry: diff snapshots.
    const auto opened = db->stats();

    constexpr int kClients = 4;
    constexpr uint64_t kUsers = 50000;
    constexpr uint64_t kOpsPerClient = 30000;

    std::atomic<uint64_t> reads{0}, writes{0}, expired{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            Xorshift rng(static_cast<uint64_t>(c) + 1);
            // Sessions are highly skewed: a few users are very active.
            ZipfianGenerator zipf(kUsers, 0.99,
                                  static_cast<uint64_t>(c) + 100);
            std::string value;
            for (uint64_t i = 0; i < kOpsPerClient; i++) {
                const uint64_t user = hash64(zipf.next()) % kUsers;
                if (rng.nextDouble() < 0.6) {
                    db->put(user, sessionBlob(user, i));
                    writes.fetch_add(1);
                } else {
                    if (db->get(user, &value).isNotFound())
                        db->put(user, sessionBlob(user, 0));
                    reads.fetch_add(1);
                }
            }
        });
    }
    // Sweeper: expire a random slice of sessions, as a TTL pass would.
    std::thread sweeper([&] {
        Xorshift rng(999);
        for (int pass = 0; pass < 20; pass++) {
            for (int i = 0; i < 500; i++) {
                if (db->del(rng.nextUniform(kUsers)).isOk())
                    expired.fetch_add(1);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    for (auto &t : clients)
        t.join();
    sweeper.join();

    const auto now = db->stats();
    const auto delta = [&](const char *name) {
        return static_cast<unsigned long long>(
            now.counterDelta(opened, name));
    };
    const double user_bytes =
        static_cast<double>(delta("prism.user_bytes_written"));
    std::printf("sessions live:      %zu\n", db->size());
    std::printf("client reads:       %llu (SVC hits %llu, PWB hits %llu, "
                "SSD reads %llu)\n",
                static_cast<unsigned long long>(reads.load()),
                delta("prism.svc.hits"), delta("prism.get.pwb_hits"),
                delta("prism.get.vs_reads"));
    std::printf("client writes:      %llu (stale versions skipped at "
                "reclaim: %llu)\n",
                static_cast<unsigned long long>(writes.load()),
                delta("prism.pwb.reclaim_skipped_stale"));
    std::printf("sessions expired:   %llu\n",
                static_cast<unsigned long long>(expired.load()));
    std::printf("SSD bytes written:  %.1f MB for %.1f MB of user data "
                "(WAF %.2f)\n",
                static_cast<double>(db->ssdBytesWritten()) / 1e6,
                user_bytes / 1e6,
                static_cast<double>(db->ssdBytesWritten()) / user_bytes);
    return 0;
}
