#include "lsm/extent_store.h"

#include <cstring>

#include "common/logging.h"

namespace prism::lsm {

ExtentStore::ExtentStore(std::shared_ptr<sim::SsdArray> ssd)
    : ssd_(std::move(ssd)), capacity_(ssd_->capacity())
{
    free_extents_[0] = capacity_;
}

ExtentStore::ExtentStore(std::shared_ptr<sim::NvmDevice> nvm)
    : nvm_(std::move(nvm)), capacity_(nvm_->capacity())
{
    free_extents_[0] = capacity_;
}

uint64_t
ExtentStore::alloc(uint64_t bytes)
{
    bytes = (bytes + 4095) & ~4095ull;  // block-align like a filesystem
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
        if (it->second < bytes)
            continue;
        const uint64_t offset = it->first;
        const uint64_t remain = it->second - bytes;
        free_extents_.erase(it);
        if (remain > 0)
            free_extents_[offset + bytes] = remain;
        used_ += bytes;
        return offset;
    }
    return UINT64_MAX;
}

void
ExtentStore::free(uint64_t offset, uint64_t bytes)
{
    bytes = (bytes + 4095) & ~4095ull;
    std::lock_guard<std::mutex> lock(mu_);
    used_ -= bytes;
    auto [it, inserted] = free_extents_.emplace(offset, bytes);
    PRISM_CHECK(inserted);
    // Coalesce with the successor, then the predecessor.
    auto next = std::next(it);
    if (next != free_extents_.end() &&
        it->first + it->second == next->first) {
        it->second += next->second;
        free_extents_.erase(next);
    }
    if (it != free_extents_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_extents_.erase(it);
        }
    }
}

Status
ExtentStore::read(uint64_t offset, void *buf, uint32_t len)
{
    if (nvm_ != nullptr) {
        std::memcpy(buf, nvm_->raw() + offset, len);
        nvm_->chargeRead(len);
        return Status::ok();
    }
    return ssd_->readSync(offset, buf, len);
}

Status
ExtentStore::write(uint64_t offset, const void *src, uint32_t len)
{
    if (nvm_ != nullptr) {
        std::memcpy(nvm_->raw() + offset, src, len);
        nvm_->chargeWrite(len);
        nvm_bytes_written_.fetch_add(len, std::memory_order_relaxed);
        return Status::ok();
    }
    return ssd_->writeSync(offset, src, len);
}

uint64_t
ExtentStore::usedBytes() const
{
    std::lock_guard<std::mutex> lock(
        const_cast<ExtentStore *>(this)->mu_);
    return used_;
}

uint64_t
ExtentStore::mediaBytesWritten() const
{
    if (nvm_ != nullptr)
        return nvm_bytes_written_.load(std::memory_order_relaxed);
    return ssd_->totalBytesWritten();
}

}  // namespace prism::lsm
