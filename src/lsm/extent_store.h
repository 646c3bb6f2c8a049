/**
 * @file
 * Extent allocator over either a striped SSD array or a simulated NVM
 * device — the "filesystem" under the LSM baselines' SSTables and WAL.
 *
 * SSTables are written once and deleted whole, so a first-fit free-list
 * extent allocator suffices. The NVM backend is what turns the plain
 * LSM engine into the paper's RocksDB-NVM (all tables + WAL on NVM) and
 * MatrixKV (L0 on NVM) configurations.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "sim/nvm_device.h"
#include "sim/ssd_array.h"

namespace prism::lsm {

/** Backing medium for LSM file data. */
class ExtentStore {
  public:
    /** Place extents on a striped SSD array. */
    explicit ExtentStore(std::shared_ptr<sim::SsdArray> ssd);

    /** Place extents on byte-addressable NVM. */
    explicit ExtentStore(std::shared_ptr<sim::NvmDevice> nvm);

    /**
     * Allocate @p bytes. @return offset, or UINT64_MAX when full.
     */
    uint64_t alloc(uint64_t bytes);

    /** Release an extent previously returned by alloc. */
    void free(uint64_t offset, uint64_t bytes);

    Status read(uint64_t offset, void *buf, uint32_t len);
    Status write(uint64_t offset, const void *src, uint32_t len);

    bool onNvm() const { return nvm_ != nullptr; }
    uint64_t capacity() const { return capacity_; }
    uint64_t usedBytes() const;

    /**
     * Total bytes physically written to the medium (WAF numerator). On
     * NVM this store counts its own writes: each fixture gives an
     * ExtentStore an NVM device of its own.
     */
    uint64_t mediaBytesWritten() const;

  private:
    std::shared_ptr<sim::SsdArray> ssd_;
    std::shared_ptr<sim::NvmDevice> nvm_;
    uint64_t capacity_;
    std::atomic<uint64_t> nvm_bytes_written_{0};

    std::mutex mu_;
    std::map<uint64_t, uint64_t> free_extents_;  ///< offset -> length
    uint64_t used_ = 0;
};

}  // namespace prism::lsm
