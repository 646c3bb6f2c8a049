/**
 * @file
 * Simulated byte-addressable non-volatile memory device.
 *
 * Substitutes for Intel Optane DCPMM. The device owns a flat in-process
 * buffer that plays the role of the physical medium. Two concerns are
 * modelled here:
 *
 *  - *Timing*: loads and stores are charged the DCPMM latency/bandwidth
 *    from the device profile. Timing can be disabled for unit tests.
 *  - *Persistence domain*: the pmem layer (src/pmem) tracks which cache
 *    lines have been flushed; the device only provides the backing bytes
 *    and survives a simulated crash/restart cycle (its buffer is retained
 *    while DRAM-side structures are torn down).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/stats.h"
#include "sim/device_profile.h"

namespace prism::sim {

/** A byte-addressable NVM DIMM (or interleaved set). */
class NvmDevice {
  public:
    /**
     * @param capacity_bytes size of the medium.
     * @param profile        timing profile (default: Optane DCPMM).
     * @param model_timing   charge access latency in real time when true.
     */
    explicit NvmDevice(uint64_t capacity_bytes,
                       const DeviceProfile &profile = kOptaneDcpmmProfile,
                       bool model_timing = true);
    ~NvmDevice();

    NvmDevice(const NvmDevice &) = delete;
    NvmDevice &operator=(const NvmDevice &) = delete;

    uint64_t capacity() const { return capacity_; }
    const DeviceProfile &profile() const { return profile_; }

    /**
     * Raw pointer to the start of the medium. The pmem layer builds typed
     * access on top; direct users must charge latency themselves via
     * chargeRead/chargeWrite.
     */
    uint8_t *raw() { return base_.get(); }
    const uint8_t *raw() const { return base_.get(); }

    /** Overwrite the medium with a captured image (crash-test harness). */
    void loadImage(const uint8_t *image, uint64_t bytes);

    /** Charge the timing model for a read of @p bytes. */
    void chargeRead(uint64_t bytes);

    /** Charge the timing model for a write of @p bytes. */
    void chargeWrite(uint64_t bytes);

    /** Enable/disable real-time latency modelling. */
    void setModelTiming(bool on) { model_timing_ = on; }
    bool modelTiming() const { return model_timing_; }

  private:
    uint64_t capacity_;
    DeviceProfile profile_;
    std::atomic<bool> model_timing_;
    std::unique_ptr<uint8_t[]> base_;

    // Shared-by-name process-wide metrics (see common/stats.h): the
    // sim.nvm.* family, the only count of this device's traffic.
    stats::Counter *reg_bytes_read_;
    stats::Counter *reg_bytes_written_;
    stats::Counter *reg_read_ops_;
    stats::Counter *reg_write_ops_;
};

}  // namespace prism::sim
