/**
 * @file
 * Unit tests for the storage device simulator: NVM device, SSD device
 * (queue pair, timing, snapshots) and the RAID-0 array.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/clock.h"
#include "common/waiter.h"
#include "sim/nvm_device.h"
#include "sim/ssd_array.h"
#include "sim/ssd_device.h"

namespace prism::sim {
namespace {

TEST(NvmDeviceTest, RawAccessAndStats)
{
    NvmDevice dev(1 << 20, kOptaneDcpmmProfile, /*timing=*/false);
    std::memcpy(dev.raw() + 100, "hello", 5);
    EXPECT_EQ(std::memcmp(dev.raw() + 100, "hello", 5), 0);
    dev.chargeRead(64);
    dev.chargeWrite(128);
    EXPECT_EQ(dev.stats().bytes_read.load(), 64u);
    EXPECT_EQ(dev.stats().bytes_written.load(), 128u);
    EXPECT_EQ(dev.stats().read_ops.load(), 1u);
}

TEST(NvmDeviceTest, TimingChargesRealTime)
{
    NvmDevice dev(1 << 20, kOptaneDcpmmProfile, /*timing=*/true);
    const uint64_t t0 = nowNs();
    for (int i = 0; i < 100; i++)
        dev.chargeRead(64);
    // 100 reads at 300 ns latency each: at least 30 us must elapse.
    EXPECT_GE(nowNs() - t0, 30 * 1000u);
}

TEST(NvmDeviceTest, LoadImageRestoresContents)
{
    NvmDevice dev(1 << 20, kOptaneDcpmmProfile, false);
    std::vector<uint8_t> image(1 << 20, 0xAB);
    dev.loadImage(image.data(), image.size());
    EXPECT_EQ(dev.raw()[12345], 0xAB);
}

TEST(SsdDeviceTest, SyncWriteReadRoundtrip)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/false);
    std::string data = "prism value storage block";
    ASSERT_TRUE(dev.writeSync(8192, data.data(),
                              static_cast<uint32_t>(data.size()))
                    .isOk());
    std::string back(data.size(), 0);
    ASSERT_TRUE(dev.readSync(8192, back.data(),
                             static_cast<uint32_t>(back.size()))
                    .isOk());
    EXPECT_EQ(back, data);
}

TEST(SsdDeviceTest, UnwrittenBlocksReadZero)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> buf(4096, 0xFF);
    ASSERT_TRUE(dev.readSync(1 << 20, buf.data(), 4096).isOk());
    for (const uint8_t b : buf)
        ASSERT_EQ(b, 0);
}

TEST(SsdDeviceTest, AsyncBatchCompletes)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> src(4096, 0x5A);
    std::vector<SsdIoRequest> batch;
    for (int i = 0; i < 8; i++) {
        SsdIoRequest req;
        req.op = SsdIoRequest::Op::kWrite;
        req.offset = static_cast<uint64_t>(i) * 4096;
        req.length = 4096;
        req.src = src.data();
        req.user_data = static_cast<uint64_t>(i) + 1;
        batch.push_back(req);
    }
    ASSERT_TRUE(dev.submit({batch.data(), batch.size()}).isOk());
    std::vector<SsdCompletion> done;
    while (done.size() < 8)
        dev.waitCompletions(done, 8, 1000);
    std::set<uint64_t> tags;
    for (const auto &c : done) {
        EXPECT_TRUE(c.status.isOk());
        tags.insert(c.user_data);
    }
    EXPECT_EQ(tags.size(), 8u);
    EXPECT_EQ(dev.inflight(), 0u);
}

TEST(SsdDeviceTest, TimedReadHasModeledLatency)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/true);
    std::vector<uint8_t> buf(4096);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kRead;
    req.offset = 0;
    req.length = 4096;
    req.buf = buf.data();
    req.user_data = 1;
    const uint64_t t0 = nowNs();
    ASSERT_TRUE(dev.submit(req).isOk());
    std::vector<SsdCompletion> done;
    while (done.empty())
        dev.waitCompletions(done, 1, 1000);
    const uint64_t dt = nowNs() - t0;
    // 980 Pro read latency is 50 us; allow generous slack upward.
    EXPECT_GE(dt, 45 * 1000u);
    EXPECT_GE(done[0].latency_ns, 40 * 1000u);
}

size_t
threadCount()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(SsdDeviceTest, DeviceStartsNoThread)
{
    const size_t before = threadCount();
    std::vector<std::unique_ptr<SsdDevice>> devices;
    for (int i = 0; i < 4; i++)
        devices.push_back(std::make_unique<SsdDevice>(16 << 20));
    EXPECT_EQ(threadCount(), before);
}

TEST(SsdDeviceTest, LoneReadDeliveredNearModel)
{
    // The reaper sleeps on the device's timer, so a lone read is
    // delivered close to its modelled time, not a timer slack later.
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/true);
    std::vector<uint8_t> buf(1024);
    std::vector<uint64_t> latency;
    for (uint64_t i = 0; i < 200; i++) {
        SsdIoRequest req;
        req.op = SsdIoRequest::Op::kRead;
        req.offset = i * 4096;
        req.length = 1024;
        req.buf = buf.data();
        req.user_data = i;
        ASSERT_TRUE(dev.submit(req).isOk());
        std::vector<SsdCompletion> done;
        while (done.empty())
            dev.waitCompletions(done, 1, 1000);
        latency.push_back(done[0].latency_ns);
    }
    std::nth_element(latency.begin(), latency.begin() + 100, latency.end());
    EXPECT_LT(latency[100],
              kSamsung980ProProfile.read_latency_ns + 20 * 1000u);
}

TEST(SsdDeviceTest, ConcurrentReapersSeeEachCompletionOnce)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/true);
    constexpr int kReads = 2000;
    std::vector<std::atomic<int>> seen(kReads);
    std::atomic<int> reaped{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; t++) {
        threads.emplace_back([&, t] {
            std::vector<uint8_t> buf(1024);
            for (int i = t; i < kReads; i += 2) {
                SsdIoRequest req;
                req.op = SsdIoRequest::Op::kRead;
                req.offset = static_cast<uint64_t>(i) * 4096;
                req.length = 1024;
                req.buf = buf.data();
                req.user_data = static_cast<uint64_t>(i);
                EXPECT_TRUE(dev.submit(req).isOk());
            }
        });
    }
    for (int t = 0; t < 2; t++) {
        threads.emplace_back([&] {
            // A small reap size leaves due requests behind for the
            // other reaper.
            std::vector<SsdCompletion> done;
            const uint64_t give_up = nowNs() + 20ull * 1000 * 1000 * 1000;
            while (reaped.load() < kReads && nowNs() < give_up) {
                done.clear();
                dev.waitCompletions(done, 3, 1000);
                for (const auto &c : done) {
                    EXPECT_TRUE(c.status.isOk());
                    seen[c.user_data].fetch_add(1);
                }
                reaped.fetch_add(static_cast<int>(done.size()));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kReads; i++)
        EXPECT_EQ(seen[static_cast<size_t>(i)].load(), 1) << "read " << i;
    EXPECT_EQ(dev.inflight(), 0u);
}

TEST(SsdDeviceTest, RejectsOutOfRange)
{
    SsdDevice dev(1 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> buf(4096);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kRead;
    req.offset = (1 << 20);
    req.length = 4096;
    req.buf = buf.data();
    EXPECT_FALSE(dev.submit(req).isOk());
    EXPECT_FALSE(dev.readSync(1 << 20, buf.data(), 4096).isOk());
}

TEST(SsdDeviceTest, SnapshotAndRestore)
{
    SsdDevice dev(4 << 20, kSamsung980ProProfile, false);
    const char data[] = "persisted";
    dev.writeSync(4096, data, sizeof(data));
    std::vector<uint8_t> image;
    dev.snapshotTo(image);

    SsdDevice dev2(4 << 20, kSamsung980ProProfile, false);
    dev2.loadFrom(image);
    char back[sizeof(data)] = {};
    dev2.readSync(4096, back, sizeof(back));
    EXPECT_STREQ(back, data);
}

TEST(SsdDeviceTest, EraseAllClears)
{
    SsdDevice dev(4 << 20, kSamsung980ProProfile, false);
    const char data[] = "gone";
    dev.writeSync(0, data, sizeof(data));
    dev.eraseAll();
    char back[8] = {1, 1, 1, 1};
    dev.readSync(0, back, 8);
    for (const char b : back)
        EXPECT_EQ(b, 0);
}

TEST(SsdDeviceTest, StatsCountHostBytes)
{
    SsdDevice dev(4 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> buf(8192, 1);
    dev.writeSync(0, buf.data(), 8192);
    dev.readSync(0, buf.data(), 4096);
    EXPECT_EQ(dev.stats().bytes_written.load(), 8192u);
    EXPECT_EQ(dev.stats().bytes_read.load(), 4096u);
}

TEST(SsdArrayTest, StripedRoundtripAcrossBoundaries)
{
    std::vector<std::shared_ptr<SsdDevice>> devices;
    for (int i = 0; i < 4; i++) {
        devices.push_back(std::make_shared<SsdDevice>(
            4 << 20, kSamsung980ProProfile, false));
    }
    SsdArray array(devices, 64 * 1024);
    EXPECT_EQ(array.capacity(), 4ull * (4 << 20));

    // A write spanning several stripe units must round-trip intact.
    std::vector<uint8_t> data(300 * 1024);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<uint8_t>(i * 31);
    ASSERT_TRUE(array.writeSync(40 * 1024, data.data(),
                                static_cast<uint32_t>(data.size()))
                    .isOk());
    std::vector<uint8_t> back(data.size());
    ASSERT_TRUE(array.readSync(40 * 1024, back.data(),
                               static_cast<uint32_t>(back.size()))
                    .isOk());
    EXPECT_EQ(back, data);

    // The bytes must actually be spread over multiple member devices.
    int touched = 0;
    for (const auto &d : devices)
        touched += d->stats().bytes_written.load() > 0;
    EXPECT_GE(touched, 4);
    EXPECT_EQ(array.totalBytesWritten(), data.size());
}

}  // namespace
}  // namespace prism::sim
