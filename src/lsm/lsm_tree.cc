#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"

namespace prism::lsm {

namespace {

/** Serialized WAL record layout (costs modelling only, never replayed). */
struct WalRecord {
    uint64_t key;
    uint64_t seq;
    uint32_t value_len;
    uint32_t type;
};

}  // namespace

LsmTree::LsmTree(const LsmOptions &opts,
                 std::shared_ptr<ExtentStore> table_store,
                 std::shared_ptr<ExtentStore> l0_store,
                 std::shared_ptr<ExtentStore> wal_store)
    : opts_(opts), table_store_(std::move(table_store)),
      l0_store_(std::move(l0_store)), wal_store_(std::move(wal_store)),
      cache_(opts.block_cache_bytes), mem_(std::make_shared<MemTable>()),
      levels_(static_cast<size_t>(opts.max_levels))
{
    auto &reg = stats::StatsRegistry::global();
    reg_flushes_ = &reg.counter("lsm.flushes", "ops");
    reg_compactions_ = &reg.counter("lsm.compactions", "ops");
    reg_compaction_bytes_ = &reg.counter("lsm.compaction_bytes", "bytes");
    reg_stall_ns_ = &reg.counter("lsm.stall_ns", "ns");
    wal_ = std::make_unique<Wal>(*wal_store_, opts_.wal_bytes);
    bg_thread_ = std::thread([this] { backgroundLoop(); });
}

LsmTree::~LsmTree()
{
    stop_.store(true, std::memory_order_release);
    bg_cv_.notify_all();
    bg_thread_.join();
}

Status
LsmTree::put(uint64_t key, std::string_view value)
{
    stats_.puts.fetch_add(1, std::memory_order_relaxed);
    stats_.user_bytes_written.fetch_add(value.size(),
                                        std::memory_order_relaxed);
    return writeImpl(key, EntryType::kPut, value);
}

Status
LsmTree::del(uint64_t key)
{
    return writeImpl(key, EntryType::kDelete, {});
}

Status
LsmTree::writeImpl(uint64_t key, EntryType type, std::string_view value)
{
    maybeStall();
    if (opts_.sw_put_overhead_ns != 0)
        spinFor(TimeScale::scaled(opts_.sw_put_overhead_ns));

    const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    // WAL first (synchronous, as RocksDB with fsync'd WAL).
    std::vector<uint8_t> rec(sizeof(WalRecord) + value.size());
    auto *hdr = reinterpret_cast<WalRecord *>(rec.data());
    hdr->key = key;
    hdr->seq = seq;
    hdr->value_len = static_cast<uint32_t>(value.size());
    hdr->type = static_cast<uint32_t>(type);
    if (!value.empty())  // a delete's empty value may have a null data()
        std::memcpy(hdr + 1, value.data(), value.size());
    Status st = wal_->append(rec.data(), static_cast<uint32_t>(rec.size()));
    if (!st.isOk())
        return st;

    std::shared_ptr<MemTable> mem;
    {
        std::lock_guard<std::mutex> lock(rotate_mu_);
        mem = mem_;
    }
    const uint64_t size = mem->add(key, seq, type, value);
    if (size >= opts_.memtable_bytes)
        maybeRotateMemtable();
    return Status::ok();
}

void
LsmTree::maybeRotateMemtable()
{
    {
        std::lock_guard<std::mutex> lock(rotate_mu_);
        if (mem_->sizeBytes() < opts_.memtable_bytes)
            return;  // someone else rotated first
        imm_.push_back(mem_);
        mem_ = std::make_shared<MemTable>();
    }
    bg_cv_.notify_all();
}

void
LsmTree::maybeStall()
{
    // Write stalls: too many immutable memtables or too many L0 files —
    // the behaviour whose absence in Prism drives the Fig. 7/Table 3 gap.
    uint64_t stall_start = 0;
    while (!stop_.load(std::memory_order_acquire)) {
        size_t imm_count;
        {
            std::lock_guard<std::mutex> lock(rotate_mu_);
            imm_count = imm_.size();
        }
        const uint64_t l0_bytes = levelBytes(0);
        if (imm_count < 3 &&
            l0_bytes < static_cast<uint64_t>(opts_.l0_stall_limit) *
                           opts_.memtable_bytes)
            break;
        if (stall_start == 0)
            stall_start = nowNs();
        bg_cv_.notify_all();
        delayFor(100 * 1000);
    }
    if (stall_start != 0) {
        const uint64_t stalled = nowNs() - stall_start;
        stats_.stall_ns.fetch_add(stalled, std::memory_order_relaxed);
        reg_stall_ns_->add(stalled);
    }
}

Status
LsmTree::get(uint64_t key, std::string *value)
{
    stats_.gets.fetch_add(1, std::memory_order_relaxed);
    if (opts_.sw_get_overhead_ns != 0)
        spinFor(TimeScale::scaled(opts_.sw_get_overhead_ns));

    std::shared_ptr<MemTable> mem;
    std::vector<std::shared_ptr<MemTable>> imms;
    {
        std::lock_guard<std::mutex> lock(rotate_mu_);
        mem = mem_;
        imms.assign(imm_.begin(), imm_.end());
    }
    auto finish = [&](const Entry &e) {
        if (e.type == EntryType::kDelete)
            return Status::notFound();
        *value = e.value;
        return Status::ok();
    };
    if (auto e = mem->get(key))
        return finish(*e);
    for (auto it = imms.rbegin(); it != imms.rend(); ++it) {
        if (auto e = (*it)->get(key))
            return finish(*e);
    }

    // Level traversal: newest-first through L0, then one candidate per
    // deeper level — the multi-level read cost of LSM designs (§7.2).
    std::shared_lock<std::shared_mutex> lock(version_mu_);
    for (const auto &table : levels_[0]) {
        if (auto e = table->get(key, &cache_))
            return finish(*e);
    }
    for (size_t level = 1; level < levels_.size(); level++) {
        const auto &tables = levels_[level];
        auto it = std::upper_bound(
            tables.begin(), tables.end(), key,
            [](uint64_t k, const std::shared_ptr<Table> &t) {
                return k < t->minKey();
            });
        if (it == tables.begin())
            continue;
        --it;
        if (key > (*it)->maxKey())
            continue;
        if (auto e = (*it)->get(key, &cache_))
            return finish(*e);
    }
    return Status::notFound();
}

Status
LsmTree::scan(uint64_t start_key, size_t count,
              std::vector<std::pair<uint64_t, std::string>> *out)
{
    stats_.scans.fetch_add(1, std::memory_order_relaxed);
    out->clear();
    const size_t slack = count + 8;

    // Gather candidates from every source, keep the newest per key.
    std::map<uint64_t, Entry> merged;
    auto offer = [&](const Entry &e) {
        auto [it, inserted] = merged.emplace(e.key, e);
        if (!inserted && e.seq > it->second.seq)
            it->second = e;
    };

    std::shared_ptr<MemTable> mem;
    std::vector<std::shared_ptr<MemTable>> imms;
    {
        std::lock_guard<std::mutex> lock(rotate_mu_);
        mem = mem_;
        imms.assign(imm_.begin(), imm_.end());
    }
    std::vector<Entry> tmp;
    mem->collectRange(start_key, slack, tmp);
    for (const auto &e : tmp)
        offer(e);
    for (const auto &imm : imms) {
        tmp.clear();
        imm->collectRange(start_key, slack, tmp);
        for (const auto &e : tmp)
            offer(e);
    }

    {
        std::shared_lock<std::shared_mutex> lock(version_mu_);
        // L0 runs overlap: every run contributes up to `slack` entries.
        for (const auto &table : levels_[0]) {
            if (!table->overlaps(start_key, UINT64_MAX))
                continue;
            Table::Iter iter(*table, &cache_);
            iter.seek(start_key);
            size_t taken = 0;
            while (iter.valid() && taken < slack) {
                offer(iter.entry());
                taken++;
                iter.next();
            }
        }
        // Deeper levels are sorted and disjoint: walk tables in key
        // order and stop once the level has yielded `slack` entries.
        for (size_t level = 1; level < levels_.size(); level++) {
            const auto &tables = levels_[level];
            auto it = std::upper_bound(
                tables.begin(), tables.end(), start_key,
                [](uint64_t k, const std::shared_ptr<Table> &t) {
                    return k < t->minKey();
                });
            if (it != tables.begin())
                --it;
            size_t taken = 0;
            for (; it != tables.end() && taken < slack; ++it) {
                if ((*it)->maxKey() < start_key)
                    continue;
                Table::Iter iter(**it, &cache_);
                iter.seek(start_key);
                while (iter.valid() && taken < slack) {
                    offer(iter.entry());
                    taken++;
                    iter.next();
                }
            }
        }
    }

    for (const auto &[key, e] : merged) {
        if (out->size() >= count)
            break;
        if (e.type == EntryType::kDelete)
            continue;
        out->emplace_back(key, e.value);
    }
    return Status::ok();
}

void
LsmTree::backgroundLoop()
{
    std::mutex idle_mu;
    while (!stop_.load(std::memory_order_acquire)) {
        bool worked = false;
        {
            std::lock_guard<std::mutex> lock(rotate_mu_);
            worked = !imm_.empty();
        }
        if (worked) {
            flushOneImm();
        } else if (pickAndRunCompaction()) {
            worked = true;
        }
        if (!worked) {
            std::unique_lock<std::mutex> lock(idle_mu);
            bg_cv_.wait_for(lock, std::chrono::milliseconds(1));
        }
    }
}

int
LsmTree::partitionOf(uint64_t key) const
{
    // Equal key-range slices of the 64-bit space.
    return static_cast<int>(
        (static_cast<__uint128_t>(key) *
         static_cast<uint64_t>(opts_.l0_partitions)) >> 64);
}

void
LsmTree::flushOneImm()
{
    std::shared_ptr<MemTable> m;
    {
        std::lock_guard<std::mutex> lock(rotate_mu_);
        if (imm_.empty())
            return;
        m = imm_.front();
    }
    // In matrix mode (MatrixKV) the flush is split into key-range
    // partitioned sub-tables — the cells of the matrix container.
    std::vector<std::shared_ptr<Table>> tables;
    std::unique_ptr<TableBuilder> builder;
    int cur_partition = -1;
    m->forEach([&](const Entry &e) {
        const int part =
            opts_.l0_partitions > 1 ? partitionOf(e.key) : 0;
        if (builder == nullptr || part != cur_partition) {
            if (builder != nullptr && builder->entryCount() > 0) {
                auto t = builder->finish();
                PRISM_CHECK(t != nullptr && "L0 store out of space");
                tables.push_back(std::move(t));
            }
            builder = std::make_unique<TableBuilder>(
                *l0_store_, m->entryCount(), opts_.bloom_bits_per_key);
            cur_partition = part;
        }
        builder->add(e);
    });
    if (builder != nullptr && builder->entryCount() > 0) {
        auto t = builder->finish();
        PRISM_CHECK(t != nullptr && "L0 store out of space");
        tables.push_back(std::move(t));
    }
    {
        std::unique_lock<std::shared_mutex> lock(version_mu_);
        levels_[0].insert(levels_[0].begin(), tables.begin(),
                          tables.end());
    }
    bool wal_clear;
    {
        std::lock_guard<std::mutex> lock(rotate_mu_);
        imm_.pop_front();
        wal_clear = imm_.empty();
    }
    if (wal_clear)
        wal_->truncate();
    stats_.flushes.fetch_add(1, std::memory_order_relaxed);
    reg_flushes_->inc();
    bg_cv_.notify_all();
}

uint64_t
LsmTree::levelTargetBytes(int level) const
{
    double target = static_cast<double>(opts_.level1_bytes);
    for (int i = 1; i < level; i++)
        target *= opts_.level_multiplier;
    return static_cast<uint64_t>(target);
}

uint64_t
LsmTree::levelBytes(int level) const
{
    std::shared_lock<std::shared_mutex> lock(version_mu_);
    uint64_t total = 0;
    for (const auto &t : levels_[static_cast<size_t>(level)])
        total += t->sizeBytes();
    return total;
}

size_t
LsmTree::levelTableCount(int level) const
{
    std::shared_lock<std::shared_mutex> lock(version_mu_);
    return levels_[static_cast<size_t>(level)].size();
}

bool
LsmTree::pickAndRunCompaction()
{
    if (levelBytes(0) >=
        static_cast<uint64_t>(opts_.l0_limit) * opts_.memtable_bytes) {
        compactL0();
        return true;
    }
    for (int level = 1; level < opts_.max_levels - 1; level++) {
        if (levelBytes(level) > levelTargetBytes(level)) {
            compactLevel(level);
            return true;
        }
    }
    return false;
}

void
LsmTree::mergeTables(const std::vector<std::shared_ptr<Table>> &inputs,
                     uint64_t lo, uint64_t hi, bool drop_tombstones,
                     ExtentStore &dest,
                     std::vector<std::shared_ptr<Table>> &out)
{
    // Compaction reads bypass the block cache so they do not evict the
    // read-path working set (RocksDB behaves likewise).
    std::vector<std::unique_ptr<Table::Iter>> iters;
    for (const auto &t : inputs) {
        if (!t->overlaps(lo, hi))
            continue;
        auto it = std::make_unique<Table::Iter>(*t, nullptr);
        it->seek(lo);
        if (it->valid())
            iters.push_back(std::move(it));
    }

    size_t expected = 0;
    for (const auto &t : inputs)
        expected += t->entryCount();

    auto builder = std::make_unique<TableBuilder>(
        dest, std::max<size_t>(64, expected), opts_.bloom_bits_per_key);

    while (true) {
        // Linear min-scan over the (few) input iterators.
        uint64_t min_key = UINT64_MAX;
        bool any = false;
        for (const auto &it : iters) {
            if (it->valid() && it->entry().key <= hi) {
                min_key = std::min(min_key, it->entry().key);
                any = true;
            }
        }
        if (!any)
            break;
        // Keep the newest version (largest seq) of min_key; advance all
        // iterators positioned at it.
        Entry newest;
        newest.seq = 0;
        for (auto &it : iters) {
            while (it->valid() && it->entry().key == min_key) {
                if (it->entry().seq > newest.seq)
                    newest = it->entry();
                it->next();
            }
        }
        if (!(drop_tombstones && newest.type == EntryType::kDelete)) {
            builder->add(newest);
            if (builder->sizeBytes() >= opts_.table_bytes) {
                auto table = builder->finish();
                PRISM_CHECK(table != nullptr &&
                            "table store out of space during compaction");
                stats_.compaction_bytes.fetch_add(
                    table->sizeBytes(), std::memory_order_relaxed);
                reg_compaction_bytes_->add(table->sizeBytes());
                out.push_back(std::move(table));
                builder = std::make_unique<TableBuilder>(
                    dest, std::max<size_t>(64, expected),
                    opts_.bloom_bits_per_key);
            }
        }
    }
    if (builder->entryCount() > 0) {
        auto table = builder->finish();
        PRISM_CHECK(table != nullptr &&
                    "table store out of space during compaction");
        stats_.compaction_bytes.fetch_add(table->sizeBytes(),
                                          std::memory_order_relaxed);
        reg_compaction_bytes_->add(table->sizeBytes());
        out.push_back(std::move(table));
    }
}

void
LsmTree::compactL0()
{
    std::vector<std::shared_ptr<Table>> l0, l1;
    {
        std::shared_lock<std::shared_mutex> lock(version_mu_);
        l0 = levels_[0];
        l1 = levels_[1];
    }
    if (l0.empty())
        return;

    uint64_t lo = 0;
    uint64_t hi = UINT64_MAX;
    std::vector<std::shared_ptr<Table>> l0_in;
    std::vector<std::shared_ptr<Table>> l0_keep;
    if (opts_.l0_partitions > 1) {
        // MatrixKV column compaction: pick the fullest column (key-range
        // partition) and merge only its sub-tables; the rest of L0 is
        // untouched — no rewrite, bounded per-pass work.
        std::vector<uint64_t> column_bytes(
            static_cast<size_t>(opts_.l0_partitions), 0);
        for (const auto &t : l0)
            column_bytes[partitionOf(t->minKey())] += t->sizeBytes();
        int best = 0;
        for (int p = 1; p < opts_.l0_partitions; p++) {
            if (column_bytes[p] > column_bytes[best])
                best = p;
        }
        const auto p_count =
            static_cast<uint64_t>(opts_.l0_partitions);
        lo = static_cast<uint64_t>(
            (static_cast<__uint128_t>(best) << 64) / p_count);
        hi = best + 1 == opts_.l0_partitions
                 ? UINT64_MAX
                 : static_cast<uint64_t>(
                       (static_cast<__uint128_t>(best + 1) << 64) /
                       p_count) - 1;
        for (const auto &t : l0) {
            if (partitionOf(t->minKey()) == best)
                l0_in.push_back(t);
            else
                l0_keep.push_back(t);
        }
        if (l0_in.empty())
            return;
    } else {
        l0_in = l0;
    }

    const bool bottom = [&] {
        std::shared_lock<std::shared_mutex> lock(version_mu_);
        for (size_t level = 2; level < levels_.size(); level++) {
            if (!levels_[level].empty())
                return false;
        }
        return true;
    }();

    // Inputs: the selected L0 run(s) plus the overlapping part of L1.
    std::vector<std::shared_ptr<Table>> inputs = l0_in;
    std::vector<std::shared_ptr<Table>> l1_keep;
    for (const auto &t : l1) {
        if (t->overlaps(lo, hi))
            inputs.push_back(t);
        else
            l1_keep.push_back(t);
    }
    std::vector<std::shared_ptr<Table>> outputs;
    mergeTables(inputs, lo, hi, bottom, *table_store_, outputs);

    {
        std::unique_lock<std::shared_mutex> lock(version_mu_);
        levels_[0] = l0_keep;
        l1_keep.insert(l1_keep.end(), outputs.begin(), outputs.end());
        std::sort(l1_keep.begin(), l1_keep.end(),
                  [](const auto &a, const auto &b) {
                      return a->minKey() < b->minKey();
                  });
        levels_[1] = std::move(l1_keep);
    }
    for (const auto &t : inputs)
        cache_.eraseTable(t->id());
    stats_.compactions.fetch_add(1, std::memory_order_relaxed);
    reg_compactions_->inc();
    bg_cv_.notify_all();
}

void
LsmTree::compactLevel(int level)
{
    std::shared_ptr<Table> victim;
    std::vector<std::shared_ptr<Table>> next_overlap, next_keep;
    {
        std::shared_lock<std::shared_mutex> lock(version_mu_);
        const auto &tables = levels_[static_cast<size_t>(level)];
        if (tables.empty())
            return;
        // Round-robin cursor over the key space for fairness.
        victim = tables.front();
        for (const auto &t : tables) {
            if (t->minKey() >= compact_cursor_) {
                victim = t;
                break;
            }
        }
        for (const auto &t : levels_[static_cast<size_t>(level) + 1]) {
            if (t->overlaps(victim->minKey(), victim->maxKey()))
                next_overlap.push_back(t);
            else
                next_keep.push_back(t);
        }
    }
    compact_cursor_ = victim->maxKey() == UINT64_MAX
                          ? 0
                          : victim->maxKey() + 1;

    const bool bottom = [&] {
        std::shared_lock<std::shared_mutex> lock(version_mu_);
        for (size_t l = static_cast<size_t>(level) + 2; l < levels_.size();
             l++) {
            if (!levels_[l].empty())
                return false;
        }
        return true;
    }();

    std::vector<std::shared_ptr<Table>> inputs;
    inputs.push_back(victim);
    inputs.insert(inputs.end(), next_overlap.begin(), next_overlap.end());
    std::vector<std::shared_ptr<Table>> outputs;
    mergeTables(inputs, 0, UINT64_MAX, bottom, *table_store_, outputs);

    {
        std::unique_lock<std::shared_mutex> lock(version_mu_);
        auto &cur = levels_[static_cast<size_t>(level)];
        cur.erase(std::remove(cur.begin(), cur.end(), victim), cur.end());
        next_keep.insert(next_keep.end(), outputs.begin(), outputs.end());
        std::sort(next_keep.begin(), next_keep.end(),
                  [](const auto &a, const auto &b) {
                      return a->minKey() < b->minKey();
                  });
        levels_[static_cast<size_t>(level) + 1] = std::move(next_keep);
    }
    for (const auto &t : inputs)
        cache_.eraseTable(t->id());
    stats_.compactions.fetch_add(1, std::memory_order_relaxed);
    reg_compactions_->inc();
    bg_cv_.notify_all();
}

void
LsmTree::flushAll()
{
    // Force-rotate whatever is buffered, then wait for quiescence.
    {
        std::lock_guard<std::mutex> lock(rotate_mu_);
        if (mem_->entryCount() > 0) {
            imm_.push_back(mem_);
            mem_ = std::make_shared<MemTable>();
        }
    }
    bg_cv_.notify_all();
    while (true) {
        bool busy;
        {
            std::lock_guard<std::mutex> lock(rotate_mu_);
            busy = !imm_.empty();
        }
        if (!busy &&
            levelBytes(0) < static_cast<uint64_t>(opts_.l0_limit) *
                                opts_.memtable_bytes) {
            bool over = false;
            for (int level = 1; level < opts_.max_levels - 1; level++) {
                if (levelBytes(level) > levelTargetBytes(level))
                    over = true;
            }
            if (!over)
                return;
        }
        delayFor(200 * 1000);
    }
}

uint64_t
LsmTree::ssdBytesWritten() const
{
    uint64_t total = 0;
    std::vector<const ExtentStore *> seen;
    for (const ExtentStore *s :
         {table_store_.get(), l0_store_.get(), wal_store_.get()}) {
        if (s->onNvm())
            continue;
        if (std::find(seen.begin(), seen.end(), s) != seen.end())
            continue;
        seen.push_back(s);
        total += s->mediaBytesWritten();
    }
    return total;
}

}  // namespace prism::lsm
