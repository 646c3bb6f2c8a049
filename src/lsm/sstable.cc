#include "lsm/sstable.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/stats.h"

namespace prism::lsm {

namespace {

// Process-wide registry metrics; function-local statics keep the
// registry lookup to one lock acquisition per process.
stats::Counter &
blockCacheHits()
{
    static stats::Counter &c =
        stats::StatsRegistry::global().counter("lsm.block_cache.hits", "ops");
    return c;
}

stats::Counter &
blockCacheMisses()
{
    static stats::Counter &c = stats::StatsRegistry::global().counter(
        "lsm.block_cache.misses", "ops");
    return c;
}

stats::Counter &
bloomNegatives()
{
    static stats::Counter &c = stats::StatsRegistry::global().counter(
        "lsm.bloom_negatives", "ops");
    return c;
}

/** On-storage record header inside a block. */
struct RecordHeader {
    uint64_t key;
    uint64_t seq;
    uint32_t value_len;
    uint32_t type;  ///< EntryType; 0xFFFFFFFF marks block padding
};
constexpr uint32_t kPadType = 0xFFFFFFFF;

/** Records sit at any byte offset in a block: copy headers in and out. */
RecordHeader
loadHeader(const uint8_t *p)
{
    RecordHeader hdr;
    std::memcpy(&hdr, p, sizeof(hdr));
    return hdr;
}

std::atomic<uint64_t> g_next_table_id{1};

}  // namespace

// ---------------------------------------------------------------------------
// BlockCache

BlockCache::BlockCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

BlockCache::Block
BlockCache::get(uint64_t table_id, uint32_t block)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(keyOf(table_id, block));
    if (it == map_.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        blockCacheMisses().inc();
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    blockCacheHits().inc();
    return it->second->data;
}

void
BlockCache::put(uint64_t table_id, uint32_t block, Block data)
{
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t key = keyOf(table_id, block);
    if (map_.count(key) > 0)
        return;
    lru_.push_front({key, std::move(data)});
    map_[key] = lru_.begin();
    used_ += lru_.front().data->size();
    while (used_ > capacity_ && !lru_.empty()) {
        auto &victim = lru_.back();
        used_ -= victim.data->size();
        map_.erase(victim.key);
        lru_.pop_back();
    }
}

void
BlockCache::eraseTable(uint64_t table_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end();) {
        if ((it->key >> 20) == table_id) {
            used_ -= it->data->size();
            map_.erase(it->key);
            it = lru_.erase(it);
        } else {
            ++it;
        }
    }
}

// ---------------------------------------------------------------------------
// TableBuilder

TableBuilder::TableBuilder(ExtentStore &store, size_t expected_keys,
                           int bloom_bits_per_key)
    : store_(store), bloom_(expected_keys, bloom_bits_per_key),
      block_(kBlockBytes, 0)
{
}

void
TableBuilder::add(const Entry &e)
{
    PRISM_DCHECK(!any_ || e.key > max_key_);
    const uint32_t need =
        sizeof(RecordHeader) + static_cast<uint32_t>(e.value.size());
    PRISM_CHECK(need <= kBlockBytes);
    if (block_fill_ + need > kBlockBytes)
        sealBlock();
    if (block_fill_ == 0)
        first_keys_.push_back(e.key);

    const RecordHeader hdr{e.key, e.seq,
                           static_cast<uint32_t>(e.value.size()),
                           static_cast<uint32_t>(e.type)};
    uint8_t *at = block_.data() + block_fill_;
    std::memcpy(at, &hdr, sizeof(hdr));
    std::memcpy(at + sizeof(hdr), e.value.data(), e.value.size());
    block_fill_ += need;

    bloom_.add(e.key);
    if (!any_)
        min_key_ = e.key;
    max_key_ = e.key;
    any_ = true;
    count_++;
}

void
TableBuilder::sealBlock()
{
    if (block_fill_ == 0)
        return;
    if (block_fill_ + sizeof(RecordHeader) <= kBlockBytes) {
        // Mark the tail so readers stop at the pad record.
        const RecordHeader pad{0, 0, 0, kPadType};
        std::memcpy(block_.data() + block_fill_, &pad, sizeof(pad));
    }
    buf_.insert(buf_.end(), block_.begin(), block_.end());
    std::fill(block_.begin(), block_.end(), 0);
    block_fill_ = 0;
}

std::shared_ptr<Table>
TableBuilder::finish()
{
    sealBlock();
    if (buf_.empty())
        return nullptr;
    const uint64_t offset = store_.alloc(buf_.size());
    if (offset == UINT64_MAX)
        return nullptr;
    const Status st = store_.write(offset, buf_.data(),
                                   static_cast<uint32_t>(buf_.size()));
    PRISM_CHECK(st.isOk());
    return std::shared_ptr<Table>(new Table(
        store_, g_next_table_id.fetch_add(1, std::memory_order_relaxed),
        offset, buf_.size(), std::move(first_keys_), std::move(bloom_),
        min_key_, max_key_, count_));
}

// ---------------------------------------------------------------------------
// Table

Table::Table(ExtentStore &store, uint64_t id, uint64_t offset, uint64_t len,
             std::vector<uint64_t> first_keys, BloomFilter bloom,
             uint64_t min_key, uint64_t max_key, size_t count)
    : store_(store), id_(id), offset_(offset), len_(len),
      first_keys_(std::move(first_keys)), bloom_(std::move(bloom)),
      min_key_(min_key), max_key_(max_key), count_(count)
{
}

Table::~Table()
{
    store_.free(offset_, len_);
}

BlockCache::Block
Table::readBlock(uint32_t index, BlockCache *cache) const
{
    if (cache != nullptr) {
        if (auto block = cache->get(id_, index))
            return block;
    }
    auto block = std::make_shared<std::vector<uint8_t>>(
        TableBuilder::kBlockBytes);
    const Status st = store_.read(
        offset_ + static_cast<uint64_t>(index) * TableBuilder::kBlockBytes,
        block->data(), TableBuilder::kBlockBytes);
    PRISM_CHECK(st.isOk());
    if (cache != nullptr)
        cache->put(id_, index, block);
    return block;
}

std::optional<Entry>
Table::get(uint64_t key, BlockCache *cache) const
{
    if (key < min_key_ || key > max_key_)
        return std::nullopt;
    if (!bloom_.mayContain(key)) {
        // In key range but rejected by the filter: a saved block read.
        bloomNegatives().inc();
        return std::nullopt;
    }
    // Find the last block whose first key is <= key.
    auto it = std::upper_bound(first_keys_.begin(), first_keys_.end(), key);
    if (it == first_keys_.begin())
        return std::nullopt;
    const auto block_index =
        static_cast<uint32_t>(it - first_keys_.begin() - 1);
    const auto block = readBlock(block_index, cache);

    uint32_t pos = 0;
    while (pos + sizeof(RecordHeader) <= block->size()) {
        const RecordHeader hdr = loadHeader(block->data() + pos);
        if (hdr.type == kPadType)
            break;
        if (hdr.key == key) {
            Entry e;
            e.key = hdr.key;
            e.seq = hdr.seq;
            e.type = static_cast<EntryType>(hdr.type);
            e.value.assign(reinterpret_cast<const char *>(block->data() +
                                                          pos + sizeof(hdr)),
                           hdr.value_len);
            return e;
        }
        if (hdr.key > key)
            break;  // records are sorted
        pos += sizeof(RecordHeader) + hdr.value_len;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// Table::Iter

Table::Iter::Iter(const Table &table, BlockCache *cache)
    : table_(table), cache_(cache)
{
    if (loadBlock(0)) {
        valid_ = pos_ < block_entries_.size();
        if (valid_)
            entry_ = block_entries_[pos_];
    }
}

bool
Table::Iter::loadBlock(uint32_t index)
{
    if (index >= table_.blockCount()) {
        valid_ = false;
        return false;
    }
    block_index_ = index;
    // Sequential iteration readahead (as RocksDB iterators do): pull a
    // span of upcoming blocks with one I/O and stage them in the cache.
    // Pointless on byte-addressable NVM, where block reads are cheap.
    if (cache_ != nullptr && !table_.store_.onNvm() &&
        cache_->get(table_.id(), index) == nullptr) {
        constexpr uint32_t kReadahead = 8;
        const uint32_t n =
            std::min(kReadahead, table_.blockCount() - index);
        std::vector<uint8_t> span(
            static_cast<size_t>(n) * TableBuilder::kBlockBytes);
        const Status st = table_.store_.read(
            table_.offset_ +
                static_cast<uint64_t>(index) * TableBuilder::kBlockBytes,
            span.data(), static_cast<uint32_t>(span.size()));
        PRISM_CHECK(st.isOk());
        for (uint32_t b = 0; b < n; b++) {
            auto blk = std::make_shared<std::vector<uint8_t>>(
                span.begin() + static_cast<long>(b) *
                                   TableBuilder::kBlockBytes,
                span.begin() + static_cast<long>(b + 1) *
                                   TableBuilder::kBlockBytes);
            cache_->put(table_.id(), index + b, std::move(blk));
        }
    }
    const auto block = table_.readBlock(index, cache_);
    block_entries_.clear();
    uint32_t pos = 0;
    while (pos + sizeof(RecordHeader) <= block->size()) {
        const RecordHeader hdr = loadHeader(block->data() + pos);
        if (hdr.type == kPadType)
            break;
        // A zero-length zeroed tail also terminates the block.
        if (hdr.key == 0 && hdr.seq == 0 && hdr.value_len == 0 &&
            !block_entries_.empty())
            break;
        Entry e;
        e.key = hdr.key;
        e.seq = hdr.seq;
        e.type = static_cast<EntryType>(hdr.type);
        e.value.assign(reinterpret_cast<const char *>(block->data() + pos +
                                                      sizeof(hdr)),
                       hdr.value_len);
        block_entries_.push_back(std::move(e));
        pos += sizeof(RecordHeader) + hdr.value_len;
    }
    pos_ = 0;
    return true;
}

void
Table::Iter::seek(uint64_t key)
{
    if (key <= table_.minKey())
        return;  // already at the first record
    auto it = std::upper_bound(table_.first_keys_.begin(),
                               table_.first_keys_.end(), key);
    uint32_t index = 0;
    if (it != table_.first_keys_.begin())
        index = static_cast<uint32_t>(it - table_.first_keys_.begin() - 1);
    if (!loadBlock(index)) {
        valid_ = false;
        return;
    }
    while (pos_ < block_entries_.size() && block_entries_[pos_].key < key)
        pos_++;
    if (pos_ >= block_entries_.size()) {
        if (!loadBlock(block_index_ + 1)) {
            valid_ = false;
            return;
        }
    }
    valid_ = pos_ < block_entries_.size();
    if (valid_)
        entry_ = block_entries_[pos_];
}

void
Table::Iter::next()
{
    PRISM_DCHECK(valid_);
    pos_++;
    if (pos_ >= block_entries_.size()) {
        if (!loadBlock(block_index_ + 1)) {
            valid_ = false;
            return;
        }
    }
    valid_ = pos_ < block_entries_.size();
    if (valid_)
        entry_ = block_entries_[pos_];
}

}  // namespace prism::lsm
