#include "sim/nvm_device.h"

#include <cstring>

#include "common/clock.h"
#include "common/logging.h"

namespace prism::sim {

NvmDevice::NvmDevice(uint64_t capacity_bytes, const DeviceProfile &profile,
                     bool model_timing)
    : capacity_(capacity_bytes),
      profile_(profile),
      model_timing_(model_timing),
      base_(new uint8_t[capacity_bytes])
{
    PRISM_CHECK(capacity_bytes > 0);
    auto &reg = stats::StatsRegistry::global();
    reg_bytes_read_ = &reg.counter("sim.nvm.bytes_read", "bytes");
    reg_bytes_written_ = &reg.counter("sim.nvm.bytes_written", "bytes");
    reg_read_ops_ = &reg.counter("sim.nvm.read_ops", "ops");
    reg_write_ops_ = &reg.counter("sim.nvm.write_ops", "ops");
    std::memset(base_.get(), 0, capacity_bytes);
}

NvmDevice::~NvmDevice() = default;

void
NvmDevice::loadImage(const uint8_t *image, uint64_t bytes)
{
    PRISM_CHECK(bytes <= capacity_);
    std::memcpy(base_.get(), image, bytes);
}

void
NvmDevice::chargeRead(uint64_t bytes)
{
    reg_bytes_read_->add(bytes);
    reg_read_ops_->inc();
    if (!model_timing_.load(std::memory_order_relaxed))
        return;
    // Media latency plus transfer time at device read bandwidth. DCPMM
    // accesses are 256 B granular internally; small reads pay full latency.
    const auto transfer_ns = static_cast<uint64_t>(
        static_cast<double>(bytes) / profile_.read_bw_bytes_per_sec * 1e9);
    spinFor(TimeScale::scaled(profile_.read_latency_ns + transfer_ns));
}

void
NvmDevice::chargeWrite(uint64_t bytes)
{
    reg_bytes_written_->add(bytes);
    reg_write_ops_->inc();
    if (!model_timing_.load(std::memory_order_relaxed))
        return;
    const auto transfer_ns = static_cast<uint64_t>(
        static_cast<double>(bytes) / profile_.write_bw_bytes_per_sec * 1e9);
    spinFor(TimeScale::scaled(profile_.write_latency_ns + transfer_ns));
}

}  // namespace prism::sim
