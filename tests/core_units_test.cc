/**
 * @file
 * Unit tests for Prism's core components in isolation: the packed
 * value-address encoding, HSIT protocols (including the dirty-bit
 * flush-on-read crash semantics), the PWB ring log, Value Storage
 * chunk management and GC, the ChunkWriter, and the read batcher.
 */
#include <gtest/gtest.h>

#include <thread>

#include "common/fault.h"
#include "common/rand.h"
#include "core/chunk_writer.h"
#include "core/hsit.h"
#include "core/pwb.h"
#include "core/read_batcher.h"
#include "core/value_storage.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

struct NvmFixture {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::unique_ptr<pmem::PmemRegion> region;
    std::unique_ptr<pmem::PmemAllocator> alloc;

    explicit NvmFixture(uint64_t bytes = 64 << 20, bool tracking = false)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            bytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_unique<pmem::PmemRegion>(nvm, true);
        if (tracking)
            region->enableTracking();
        alloc = std::make_unique<pmem::PmemAllocator>(*region);
    }
};

// ---------------------------------------------------------------------------
// ValueAddr

TEST(ValueAddrTest, EncodeDecodePwb)
{
    const ValueAddr a = ValueAddr::pwb(123456, 1024);
    EXPECT_TRUE(a.isPwb());
    EXPECT_FALSE(a.isVs());
    EXPECT_FALSE(a.isDirty());
    EXPECT_EQ(a.offset(), 123456u);
    EXPECT_EQ(a.recordBytes(), 1024u);
}

TEST(ValueAddrTest, EncodeDecodeVs)
{
    const ValueAddr a = ValueAddr::vs(13, (1ull << 40) + 64, 4096);
    EXPECT_TRUE(a.isVs());
    EXPECT_EQ(a.ssdId(), 13u);
    EXPECT_EQ(a.offset(), (1ull << 40) + 64);
    EXPECT_EQ(a.recordBytes(), 4096u);
}

TEST(ValueAddrTest, DirtyBitRoundtrip)
{
    const ValueAddr a = ValueAddr::vs(1, 128, 64);
    const ValueAddr dirty = a.withDirty();
    EXPECT_TRUE(dirty.isDirty());
    EXPECT_EQ(dirty.withoutDirty(), a);
    EXPECT_FALSE(ValueAddr().isDirty());
    EXPECT_TRUE(ValueAddr().isNull());
    EXPECT_TRUE(ValueAddr(ValueAddr::kDirtyBit).isNull());
}

TEST(ValueAddrTest, PropertySweepRoundtrips)
{
    Xorshift rng(2);
    for (int i = 0; i < 20000; i++) {
        const uint64_t off = rng.next() & ValueAddr::kOffsetMask;
        const uint32_t ssd = static_cast<uint32_t>(rng.nextUniform(64));
        const uint64_t bytes =
            (1 + rng.nextUniform(ValueAddr::kSizeMask)) *
            ValueAddr::kSizeUnit;
        const ValueAddr a = ValueAddr::vs(ssd, off, bytes);
        ASSERT_EQ(a.offset(), off);
        ASSERT_EQ(a.ssdId(), ssd);
        ASSERT_EQ(a.recordBytes(), bytes);
        ASSERT_TRUE(a.isVs());
    }
}

TEST(ValueAddrTest, RecordBytesAligns)
{
    const uint64_t hdr = sizeof(ValueRecordHeader);
    EXPECT_EQ(recordBytes(0), 64u);
    EXPECT_EQ(recordBytes(static_cast<uint32_t>(64 - hdr)), 64u);
    EXPECT_EQ(recordBytes(static_cast<uint32_t>(64 - hdr + 1)), 128u);
    EXPECT_EQ(recordBytes(1024), ((hdr + 1024 + 63) / 64) * 64);
}

// ---------------------------------------------------------------------------
// HSIT

TEST(HsitTest, AllocPublishFree)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 128);
    const uint64_t a = hsit->allocEntry();
    const uint64_t b = hsit->allocEntry();
    EXPECT_NE(a, b);
    EXPECT_EQ(hsit->liveCount(), 2u);

    hsit->storePrimaryDurable(a, ValueAddr::pwb(64, 64));
    EXPECT_EQ(hsit->loadPrimary(a).offset(), 64u);

    hsit->freeEntryImmediate(b);
    EXPECT_EQ(hsit->allocEntry(), b);  // recycled
}

TEST(HsitTest, CapacityExhaustion)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 4);
    for (int i = 0; i < 4; i++)
        EXPECT_NE(hsit->allocEntry(), Hsit::kInvalidIndex);
    EXPECT_EQ(hsit->allocEntry(), Hsit::kInvalidIndex);
}

TEST(HsitTest, DurableCasDetectsConflicts)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v1 = ValueAddr::pwb(64, 64);
    const ValueAddr v2 = ValueAddr::pwb(128, 64);
    hsit->storePrimaryDurable(e, v1);
    EXPECT_TRUE(hsit->casPrimaryDurable(e, v1, v2));
    EXPECT_FALSE(hsit->casPrimaryDurable(e, v1, v2));  // stale expected
    EXPECT_EQ(hsit->loadPrimary(e), v2);
}

TEST(HsitTest, UnfencedCasRevertsOnCrash)
{
    // The flush-on-read protocol: a CAS whose flush never happened must
    // roll back to the previous pointer at a crash.
    NvmFixture fx(64 << 20, /*tracking=*/true);
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v1 = ValueAddr::pwb(64, 64);
    hsit->storePrimaryDurable(e, v1);

    // Simulate a writer that crashed mid-protocol: CAS to dirty state
    // without the persist step.
    const ValueAddr v2 = ValueAddr::pwb(128, 64);
    uint64_t expected = v1.raw();
    hsit->entry(e).primary.compare_exchange_strong(
        expected, v2.withDirty().raw());

    fx.region->simulateCrash();
    auto recovered = Hsit::attach(*fx.region, hsit->rootOff());
    recovered->resetVolatile();
    EXPECT_EQ(recovered->loadPrimary(e), v1);
}

TEST(HsitTest, PersistedDirtyBitIsClearedAtRecovery)
{
    NvmFixture fx(64 << 20, /*tracking=*/true);
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v2 = ValueAddr::pwb(128, 64);
    // Writer persisted the dirty pointer but crashed before clearing
    // the bit: the pointer is durable and must survive, bit cleared.
    hsit->entry(e).primary.store(v2.withDirty().raw());
    fx.region->persist(&hsit->entry(e).primary, 8);

    fx.region->simulateCrash();
    auto recovered = Hsit::attach(*fx.region, hsit->rootOff());
    recovered->resetVolatile();
    EXPECT_EQ(recovered->loadPrimary(e), v2);
    EXPECT_FALSE(ValueAddr(recovered->entry(e).primary.load()).isDirty());
}

TEST(HsitTest, FlushOnReadCleansWriterDirtyState)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v = ValueAddr::vs(0, 64, 64);
    hsit->entry(e).primary.store(v.withDirty().raw());
    // A reader encountering the dirty bit must flush and clear it.
    EXPECT_EQ(hsit->loadPrimary(e), v);
    EXPECT_FALSE(ValueAddr(hsit->entry(e).primary.load()).isDirty());
}

TEST(HsitTest, RebuildFreeListFromReachability)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 8);
    for (int i = 0; i < 8; i++)
        hsit->allocEntry();
    std::vector<bool> reachable(8, false);
    reachable[2] = reachable[5] = true;
    hsit->rebuildFreeList(reachable);
    EXPECT_EQ(hsit->liveCount(), 2u);
    // Allocations must hand out only unreachable indices.
    std::set<uint64_t> given;
    for (int i = 0; i < 6; i++)
        given.insert(hsit->allocEntry());
    EXPECT_EQ(given.count(2), 0u);
    EXPECT_EQ(given.count(5), 0u);
    EXPECT_EQ(given.size(), 6u);
}

TEST(HsitTest, SvcPointerCas)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 8);
    const uint64_t e = hsit->allocEntry();
    int dummy1, dummy2;
    EXPECT_EQ(hsit->svcLoad(e), nullptr);
    EXPECT_TRUE(hsit->svcCas(e, nullptr, &dummy1));
    EXPECT_FALSE(hsit->svcCas(e, nullptr, &dummy2));
    EXPECT_EQ(hsit->svcLoad(e), &dummy1);
    EXPECT_TRUE(hsit->svcCas(e, &dummy1, nullptr));
}

// ---------------------------------------------------------------------------
// PWB

TEST(PwbTest, AppendAndReadBack)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 1 << 20);
    const std::string value = "pwb payload";
    const ValueAddr a = pwb->append(7, 42, value.data(),
                                    static_cast<uint32_t>(value.size()));
    pwb->markPublished();
    ASSERT_FALSE(a.isNull());
    EXPECT_TRUE(a.isPwb());
    const auto *hdr = pwb->headerAt(a);
    EXPECT_EQ(hdr->backward, 7u);
    EXPECT_EQ(hdr->key, 42u);
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(hdr + 1),
                          hdr->value_size),
              value);
}

TEST(PwbTest, FillsThenRejects)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 64 * 1024);
    std::string value(1000, 'x');
    int appended = 0;
    while (!pwb->append(1, appended, value.data(), 1000).isNull()) {
        pwb->markPublished();
        appended++;
    }
    EXPECT_GT(appended, 50);
    EXPECT_LE(pwb->usedBytes(), 64 * 1024u);
    EXPECT_GE(pwb->utilization(), 0.95);
}

TEST(PwbTest, CollectSkipsPadsAndStopsAtTail)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 64 * 1024);
    std::string value(900, 'y');  // forces a wrap pad eventually
    std::vector<ValueAddr> addrs;
    for (int i = 0; i < 40; i++) {
        const ValueAddr a = pwb->append(static_cast<uint64_t>(i), i,
                                        value.data(), 900);
        pwb->markPublished();
        ASSERT_FALSE(a.isNull());
        addrs.push_back(a);
    }
    std::vector<Pwb::RecordRef> refs;
    const uint64_t new_head = pwb->collect(UINT64_MAX, refs);
    EXPECT_EQ(refs.size(), 40u);
    EXPECT_EQ(new_head, pwb->tailLogical());
    for (size_t i = 0; i < refs.size(); i++) {
        EXPECT_EQ(refs[i].hdr->backward, i);
        EXPECT_EQ(refs[i].addr.raw(), addrs[i].raw());
    }
}

TEST(PwbTest, RingReusesSpaceAfterHeadAdvance)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 64 * 1024);
    std::string value(1000, 'z');
    for (int round = 0; round < 20; round++) {
        int appended = 0;
        while (!pwb->append(1, appended, value.data(), 1000).isNull()) {
            pwb->markPublished();
            appended++;
        }
        ASSERT_GT(appended, 10) << "ring did not recycle";
        std::vector<Pwb::RecordRef> refs;
        pwb->advanceHead(pwb->collect(UINT64_MAX, refs));
    }
}

TEST(PwbTest, UnpublishedRecordFencesReclamation)
{
    // A record that has been appended but whose HSIT forward pointer is
    // not yet installed looks ill-coupled; reclamation judging it would
    // free live space mid-publish. collect() must stop at the oldest
    // unpublished append and resume once it is marked published.
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 1 << 20);
    std::string value(100, 'u');
    pwb->append(1, 1, value.data(), 100);
    pwb->markPublished();
    pwb->append(2, 2, value.data(), 100);  // publish pending

    std::vector<Pwb::RecordRef> refs;
    uint64_t upto = pwb->collect(UINT64_MAX, refs);
    EXPECT_EQ(refs.size(), 1u);            // only the published record
    EXPECT_LT(upto, pwb->tailLogical());
    EXPECT_EQ(upto, pwb->inflightLogical());

    pwb->markPublished();
    refs.clear();
    upto = pwb->collect(UINT64_MAX, refs);
    EXPECT_EQ(refs.size(), 2u);
    EXPECT_EQ(upto, pwb->tailLogical());
}

TEST(PwbTest, HeadTailSurviveReattach)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 1 << 20);
    std::string value(100, 'a');
    for (int i = 0; i < 10; i++) {
        pwb->append(1, i, value.data(), 100);
        pwb->markPublished();
    }
    const uint64_t tail = pwb->tailLogical();
    const pmem::POff root = pwb->rootOff();
    pwb.reset();
    auto attached = Pwb::attach(*fx.region, root);
    EXPECT_EQ(attached->tailLogical(), tail);
    EXPECT_EQ(attached->headLogical(), 0u);
}

// ---------------------------------------------------------------------------
// ValueStorage + ChunkWriter

struct VsFixture {
    NvmFixture nvm;  // for the HSIT used by GC
    PrismOptions opts;
    EpochManager epochs;
    std::shared_ptr<sim::SsdDevice> ssd;
    std::unique_ptr<ValueStorage> vs;
    std::unique_ptr<Hsit> hsit;

    VsFixture()
    {
        opts.chunk_bytes = 64 * 1024;
        ssd = std::make_shared<sim::SsdDevice>(
            8 << 20, sim::kSamsung980ProProfile, /*timing=*/false);
        vs = std::make_unique<ValueStorage>(0, ssd, opts, epochs);
        hsit = Hsit::create(*nvm.region, *nvm.alloc, 4096);
    }

    // Deferred chunk recycles name the Value Storage: run them while it
    // is still alive.
    ~VsFixture() { epochs.drain(); }

    /** Read a whole record (header + payload) straight off the device. */
    Status
    readBack(ValueAddr a, std::vector<uint8_t> &buf)
    {
        buf.resize(a.recordBytes());
        return ssd->readSync(a.offset(), buf.data(),
                             static_cast<uint32_t>(a.recordBytes()));
    }
};

TEST(ValueStorageTest, ChunkLifecycle)
{
    VsFixture fx;
    EXPECT_EQ(fx.vs->totalChunks(), (8 << 20) / (64 * 1024));
    const int64_t c = fx.vs->allocChunk();
    ASSERT_GE(c, 0);
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks() - 1);

    std::vector<uint8_t> buf(64 * 1024, 0xAA);
    WriteTicket ticket;
    ASSERT_TRUE(fx.vs->submitChunkWrite(c, 0, buf.data(), 64 * 1024,
                                        &ticket)
                    .isOk());
    ticket.wait();
    fx.vs->sealChunk(c, 64 * 1024);
    fx.vs->settleChunk(c);

    fx.vs->freeChunkDeferred(c);
    fx.epochs.drain();
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks());
}

TEST(ValueStorageTest, DoubleFreeIsIgnored)
{
    VsFixture fx;
    const int64_t c = fx.vs->allocChunk();
    fx.vs->sealChunk(c, 0);
    fx.vs->freeChunkDeferred(c);
    fx.vs->freeChunkDeferred(c);  // must be a no-op
    fx.epochs.drain();
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks());
}

TEST(ValueStorageTest, ValidityBitmapAccounting)
{
    VsFixture fx;
    fx.vs->setValid(0, 128);
    fx.vs->setValid(128, 256);
    EXPECT_TRUE(fx.vs->isValid(0));
    EXPECT_TRUE(fx.vs->isValid(128));
    EXPECT_EQ(fx.vs->liveUnits(0), (128 + 256) / 64);
    fx.vs->setValid(0, 128);  // idempotent
    EXPECT_EQ(fx.vs->liveUnits(0), (128 + 256) / 64);
    fx.vs->clearValid(0, 128);
    fx.vs->clearValid(0, 128);  // idempotent
    EXPECT_EQ(fx.vs->liveUnits(0), 256u / 64);
    EXPECT_FALSE(fx.vs->isValid(0));
}

TEST(ChunkWriterTest, PacksRecordsAndReadsBack)
{
    VsFixture fx;
    ChunkWriter writer({fx.vs.get()});
    std::string value(5000, 'q');
    std::vector<ValueAddr> addrs;
    for (int i = 0; i < 50; i++) {
        const ValueAddr a = writer.add(static_cast<uint64_t>(i),
                                       static_cast<uint64_t>(i) * 10,
                                       value.data(), 5000);
        ASSERT_FALSE(a.isNull());
        addrs.push_back(a);
    }
    ASSERT_TRUE(writer.finish().isOk());
    // 250 KB over 64 KB chunks
    EXPECT_NE(addrs.front().offset() / (64 * 1024),
              addrs.back().offset() / (64 * 1024));

    std::vector<uint8_t> buf;
    for (int i = 0; i < 50; i++) {
        ASSERT_TRUE(fx.readBack(addrs[static_cast<size_t>(i)], buf).isOk());
        const auto *hdr =
            reinterpret_cast<const ValueRecordHeader *>(buf.data());
        EXPECT_EQ(hdr->backward, static_cast<uint64_t>(i));
        EXPECT_EQ(hdr->key, static_cast<uint64_t>(i) * 10);
        EXPECT_EQ(hdr->value_size, 5000u);
    }
}

TEST(ValueStorageTest, GcRelocatesLiveValues)
{
    VsFixture fx;
    // Write three chunks of values; register them in the HSIT; kill most
    // of them; GC must compact the survivors and free victims. The last
    // chunk stays open, so the victims are the first two.
    ChunkWriter writer({fx.vs.get()});
    std::string value(3000, 'g');
    struct Item {
        uint64_t h;
        ValueAddr addr;
    };
    std::vector<Item> items;
    for (int i = 0; i < 63; i++) {
        const uint64_t h = fx.hsit->allocEntry();
        const ValueAddr a = writer.add(h, static_cast<uint64_t>(i),
                                       value.data(), 3000);
        ASSERT_FALSE(a.isNull());
        items.push_back({h, a});
    }
    ASSERT_TRUE(writer.finish().isOk());
    for (const auto &it : items) {
        fx.vs->setValid(it.addr.offset(), it.addr.recordBytes());
        fx.hsit->storePrimaryDurable(it.h, it.addr);
    }
    writer.settleAll();

    // Invalidate all but every 8th value.
    for (size_t i = 0; i < items.size(); i++) {
        if (i % 8 == 0)
            continue;
        fx.vs->clearValid(items[i].addr.offset(),
                          items[i].addr.recordBytes());
        fx.hsit->storePrimaryDurable(items[i].h, ValueAddr());
    }
    const size_t free_before = fx.vs->freeChunks();
    const size_t reclaimed = fx.vs->runGcPass(*fx.hsit);
    fx.epochs.drain();
    EXPECT_GT(reclaimed, 0u);
    EXPECT_GT(fx.vs->freeChunks(), free_before);

    // Survivors must still be readable via their *new* HSIT pointers.
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < items.size(); i += 8) {
        const ValueAddr now = fx.hsit->loadPrimary(items[i].h);
        ASSERT_FALSE(now.isNull());
        ASSERT_TRUE(fx.readBack(now, buf).isOk());
        const auto *hdr =
            reinterpret_cast<const ValueRecordHeader *>(buf.data());
        EXPECT_EQ(hdr->backward, items[i].h);
    }
}

/**
 * A GC pass reads its victims through the SSD's read queue, which
 * retries a transient error: a victim whose first read fails is still
 * relocated and reclaimed by the same pass.
 */
TEST(ValueStorageTest, GcVictimReadErrorIsRetriedByTheReadQueue)
{
    VsFixture fx;
    // Three chunks of 21 records each; the last stays open, so the
    // victims are the first two, each with three survivors.
    ChunkWriter writer({fx.vs.get()});
    const std::string value(3000, 'r');
    struct Item {
        uint64_t h;
        ValueAddr addr;
    };
    std::vector<Item> items;
    for (int i = 0; i < 63; i++) {
        const uint64_t h = fx.hsit->allocEntry();
        const ValueAddr a = writer.add(h, static_cast<uint64_t>(i),
                                       value.data(), 3000);
        ASSERT_FALSE(a.isNull());
        items.push_back({h, a});
    }
    ASSERT_TRUE(writer.finish().isOk());
    for (const auto &it : items) {
        fx.vs->setValid(it.addr.offset(), it.addr.recordBytes());
        fx.hsit->storePrimaryDurable(it.h, it.addr);
    }
    writer.settleAll();
    for (size_t i = 0; i < items.size(); i++) {
        if (i % 8 == 0)
            continue;
        fx.vs->clearValid(items[i].addr.offset(),
                          items[i].addr.recordBytes());
        fx.hsit->storePrimaryDurable(items[i].h, ValueAddr());
    }

    // The pass's first device request is its first victim read.
    auto &faults = fault::FaultRegistry::global();
    fault::FaultSpec once;
    once.trigger = fault::Trigger::kOnce;
    faults.arm("ssd." + std::to_string(fx.ssd->deviceNumber()) +
                   ".io_error",
               once);
    auto &reg = stats::StatsRegistry::global();
    const auto before = reg.snapshot();
    const size_t reclaimed = fx.vs->runGcPass(*fx.hsit);
    const auto after = reg.snapshot();
    faults.disarmAll();
    fx.epochs.drain();

    EXPECT_EQ(after.counterDelta(before, "sim.ssd.io_errors"), 1u);
    EXPECT_EQ(after.counterDelta(before, "prism.vs.retries"), 1u);
    EXPECT_EQ(reclaimed, 2u);
    const uint64_t chunk_bytes = fx.opts.chunk_bytes;
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < items.size(); i += 8) {
        const ValueAddr old_addr = items[i].addr;
        if (old_addr.offset() / chunk_bytes == 2)
            continue;  // in the open chunk: not a victim
        const ValueAddr now = fx.hsit->loadPrimary(items[i].h);
        EXPECT_NE(now.offset() / chunk_bytes, old_addr.offset() / chunk_bytes)
            << "survivor " << i << " was not moved";
        ASSERT_TRUE(fx.readBack(now, buf).isOk());
        EXPECT_EQ(reinterpret_cast<const ValueRecordHeader *>(buf.data())
                      ->backward,
                  items[i].h);
    }
}

/**
 * One barrier writer's whole protocol: append @p n records of @p size
 * bytes (keys and backward pointers from @p key0), finish, mark the
 * landed ones live and settle, which hands the open chunk back. A
 * record whose write failed comes back as a null address.
 */
std::vector<ValueAddr>
publishBatch(VsFixture &fx, int n, uint32_t size, uint64_t key0)
{
    ChunkWriter writer({fx.vs.get()});
    const std::string value(size, 'o');
    std::vector<ValueAddr> addrs;
    for (int i = 0; i < n; i++) {
        const uint64_t k = key0 + static_cast<uint64_t>(i);
        const ValueAddr a = writer.add(k, k, value.data(), size);
        EXPECT_FALSE(a.isNull());
        addrs.push_back(a);
    }
    EXPECT_TRUE(writer.finish().isOk());
    for (size_t i = 0; i < addrs.size(); i++) {
        if (writer.recordFailed(i))
            addrs[i] = ValueAddr();
        else
            fx.vs->setValid(addrs[i].offset(), addrs[i].recordBytes());
    }
    writer.settleAll();
    return addrs;
}

/** Every non-null record reads back with its key and a good CRC. */
void
expectReadable(VsFixture &fx, const std::vector<ValueAddr> &addrs,
               uint64_t key0)
{
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < addrs.size(); i++) {
        if (addrs[i].isNull())
            continue;
        ASSERT_TRUE(fx.readBack(addrs[i], buf).isOk());
        const auto *hdr =
            reinterpret_cast<const ValueRecordHeader *>(buf.data());
        EXPECT_EQ(hdr->key, key0 + i);
        EXPECT_TRUE(recordCrcOk(*hdr, hdr + 1)) << i;
    }
}

uint64_t
chunkOf(const VsFixture &fx, ValueAddr a)
{
    return a.offset() / fx.opts.chunk_bytes;
}

TEST(ChunkWriterTest, BarrierWritersShareTheOpenChunk)
{
    VsFixture fx;
    const auto first = publishBatch(fx, 3, 1000, 0);
    const auto before = stats::StatsRegistry::global().snapshot();
    const auto second = publishBatch(fx, 4, 1000, 100);
    const auto after = stats::StatsRegistry::global().snapshot();

    // The second writer appended right behind the first, in its chunk,
    // and wrote only its own records' bytes.
    EXPECT_EQ(second.front().offset(),
              first.back().offset() + first.back().recordBytes());
    EXPECT_EQ(chunkOf(fx, second.back()), chunkOf(fx, first.front()));
    EXPECT_EQ(after.counterDelta(before, "sim.ssd.bytes_written"),
              4 * recordBytes(1000));
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks() - 1);
    expectReadable(fx, first, 0);
    expectReadable(fx, second, 100);
}

TEST(ChunkWriterTest, FullOpenChunkIsSealedAtItsFill)
{
    VsFixture fx;
    // Fill the open chunk until the next record no longer fits.
    const uint64_t rb = recordBytes(3000);
    const int per_chunk = static_cast<int>(fx.opts.chunk_bytes / rb);
    ASSERT_GT(fx.opts.chunk_bytes % rb, 0u);
    const auto first = publishBatch(fx, per_chunk, 3000, 0);
    ASSERT_EQ(chunkOf(fx, first.front()), chunkOf(fx, first.back()));

    const auto before = stats::StatsRegistry::global().snapshot();
    const auto second = publishBatch(fx, 1, 3000, 1000);
    const auto sealed =
        stats::StatsRegistry::global().snapshot().histogramDelta(
            before, "prism.vs.sealed_chunk_bytes");

    // The taken chunk was sealed at its fill; the record went to the
    // start of a fresh chunk, not past the end of the full one.
    EXPECT_EQ(sealed.count(), 1u);
    EXPECT_EQ(sealed.sum(), static_cast<uint64_t>(per_chunk) * rb);
    EXPECT_NE(chunkOf(fx, second[0]), chunkOf(fx, first[0]));
    EXPECT_EQ(second[0].offset() % fx.opts.chunk_bytes, 0u);
    expectReadable(fx, first, 0);
    expectReadable(fx, second, 1000);
}

TEST(ChunkWriterTest, FailedAppendKeepsEarlierRecords)
{
    VsFixture fx;
    const auto first = publishBatch(fx, 5, 1000, 0);
    const auto before = stats::StatsRegistry::global().snapshot();

    // Every write of the next writer fails after its retries.
    auto &faults = fault::FaultRegistry::global();
    fault::FaultSpec always;
    always.trigger = fault::Trigger::kProbability;
    always.probability = 1.0;
    faults.arm("pwb.chunk_write", always);
    const auto failed = publishBatch(fx, 3, 1000, 100);
    faults.disarmAll();
    for (const ValueAddr a : failed)
        EXPECT_TRUE(a.isNull());

    // The shared chunk was sealed at the first writer's durable prefix,
    // whose records still read back; the next writer starts afresh.
    const auto sealed =
        stats::StatsRegistry::global().snapshot().histogramDelta(
            before, "prism.vs.sealed_chunk_bytes");
    EXPECT_EQ(sealed.count(), 1u);
    EXPECT_EQ(sealed.sum(), 5 * recordBytes(1000));
    expectReadable(fx, first, 0);
    const auto third = publishBatch(fx, 1, 1000, 200);
    EXPECT_NE(chunkOf(fx, third[0]), chunkOf(fx, first[0]));
    expectReadable(fx, third, 200);
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks() - 2);
}

// ---------------------------------------------------------------------------
// ReadBatcher

class ReadBatcherTest : public ::testing::TestWithParam<ReadBatchMode> {};

/** An 8 MB SSD whose first 256 4 KB blocks hold their own index. */
std::shared_ptr<sim::SsdDevice>
stampedSsd()
{
    auto ssd = std::make_shared<sim::SsdDevice>(
        8 << 20, sim::kSamsung980ProProfile, /*timing=*/false);
    for (uint64_t b = 0; b < 256; b++) {
        std::vector<uint64_t> block(512, b);
        ssd->writeSync(b * 4096, block.data(), 4096);
    }
    return ssd;
}

/** Hands a device's completions to their handlers, as ValueStorage does. */
class CompletionThread {
  public:
    explicit CompletionThread(io::IoBackend &device)
        : thread_([this, &device] {
              std::vector<io::IoCompletion> done;
              while (!stop_.load()) {
                  done.clear();
                  device.waitCompletions(done, 64, 100);
                  for (const auto &c : done)
                      reinterpret_cast<AsyncIoHandler *>(c.user_data)
                          ->onIoComplete(c.status);
              }
          })
    {
    }

    ~CompletionThread()
    {
        stop_.store(true);
        thread_.join();
    }

    CompletionThread(const CompletionThread &) = delete;
    CompletionThread &operator=(const CompletionThread &) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * A 4 KB read of one stamped block. Waited reads live on their issuer's
 * stack and raise `done`; fire-and-forget reads free themselves.
 */
struct BlockRead : ReadBatcher::Read {
    uint64_t block = 0;
    std::vector<uint64_t> data = std::vector<uint64_t>(512);
    std::atomic<int> *completions = nullptr;  ///< this request's count
    std::atomic<int> *failed = nullptr;       ///< the round's failures
    bool fire_and_forget = false;
    std::atomic<uint32_t> done{0};

    BlockRead(uint64_t b, std::atomic<int> *count, std::atomic<int> *fails,
              bool forget)
        : block(b), completions(count), failed(fails),
          fire_and_forget(forget)
    {
        req.offset = b * 4096;
        req.length = 4096;
        req.buf = data.data();
    }

    void
    onRead(const Status &st) override
    {
        if (st.isOk()) {
            EXPECT_EQ(data[0], block);
            EXPECT_EQ(data[511], block);
        } else {
            // Only a transient error that outlasted all three retries.
            EXPECT_EQ(st.code(), StatusCode::kIoError);
            EXPECT_EQ(retries, 3) << "the queue gave up early";
            failed->fetch_add(1);
        }
        completions->fetch_add(1);
        if (fire_and_forget) {
            delete this;
            return;
        }
        done.store(1, std::memory_order_release);
        done.notify_all();
    }
};

/**
 * 8 threads issue 500 reads each through @p batcher, every other one
 * waited for and the rest fire-and-forget, and this returns once every
 * request has completed (10 s at most). Counts each request's
 * completions in @p completions and the failed reads in @p failed.
 */
void
issueMixedReads(sim::SsdDevice &ssd, ReadBatcher &batcher,
                std::vector<std::atomic<int>> &completions,
                std::atomic<int> &failed)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 500;
    ASSERT_EQ(completions.size(), size_t{kThreads * kPerThread});
    std::vector<std::thread> issuers;
    for (int t = 0; t < kThreads; t++) {
        issuers.emplace_back([&, t] {
            Xorshift rng(static_cast<uint64_t>(t));
            for (int i = 0; i < kPerThread; i++) {
                const uint64_t b = rng.nextUniform(256);
                std::atomic<int> *count = &completions[static_cast<size_t>(
                    t * kPerThread + i)];
                if (i % 2 == 1) {
                    batcher.enqueue(*new BlockRead(b, count, &failed, true));
                    continue;
                }
                BlockRead read(b, count, &failed, false);
                batcher.enqueue(read);
                while (read.done.load(std::memory_order_acquire) == 0)
                    read.done.wait(0, std::memory_order_acquire);
            }
        });
    }
    for (auto &t : issuers)
        t.join();
    // Fire-and-forget reads may still be in flight: wait them out.
    const auto all_done = [&] {
        for (const auto &c : completions)
            if (c.load() == 0)
                return false;
        return ssd.inflight() == 0;
    };
    for (int spin = 0; !all_done() && spin < 10000; spin++)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (size_t i = 0; i < completions.size(); i++)
        ASSERT_EQ(completions[i].load(), 1) << "request " << i;
}

TEST_P(ReadBatcherTest, ConcurrentReadsAllCorrect)
{
    auto ssd = stampedSsd();
    ReadBatcher batcher(*ssd, GetParam(), 16);
    CompletionThread completer(*ssd);
    constexpr uint64_t kReads = 4000;
    auto &reg = stats::StatsRegistry::global();

    // Fault-free: every read succeeds with its block's data, once.
    {
        std::vector<std::atomic<int>> completions(kReads);
        std::atomic<int> failed{0};
        const auto before = reg.snapshot();
        issueMixedReads(*ssd, batcher, completions, failed);
        EXPECT_EQ(failed.load(), 0);
        const auto after = reg.snapshot();
        EXPECT_EQ(after.counterDelta(before, "prism.vs.retries"), 0u);
        const uint64_t requests =
            after.counterDelta(before, "prism.tcq.requests");
        EXPECT_EQ(requests, kReads);
        EXPECT_LE(after.counterDelta(before, "prism.tcq.batches"), requests);
    }

    // Every 10th request errors, so retries resubmit through the queue
    // while issuers keep enqueueing. Each request still completes once,
    // and a read fails only after its three retries.
    {
        auto &faults = fault::FaultRegistry::global();
        fault::FaultSpec every10;
        every10.trigger = fault::Trigger::kEvery;
        every10.n = 10;
        faults.arm("ssd." + std::to_string(ssd->deviceNumber()) +
                       ".io_error",
                   every10);
        std::vector<std::atomic<int>> completions(kReads);
        std::atomic<int> failed{0};
        const auto before = reg.snapshot();
        issueMixedReads(*ssd, batcher, completions, failed);
        faults.disarmAll();
        const auto after = reg.snapshot();
        const uint64_t retries =
            after.counterDelta(before, "prism.vs.retries");
        EXPECT_GT(retries, 0u);
        const uint64_t requests =
            after.counterDelta(before, "prism.tcq.requests");
        EXPECT_EQ(requests, kReads + retries);
        EXPECT_LE(after.counterDelta(before, "prism.tcq.batches"), requests);
    }
}

/**
 * A chain with one malformed read (beyond the device): that read fails
 * alone, without reaching the device, and the rest go on as one batch,
 * which is all the TCQ counters count.
 */
TEST_P(ReadBatcherTest, MalformedReadFailsAlone)
{
    struct WaitedRead : ReadBatcher::Read {
        std::vector<uint64_t> data = std::vector<uint64_t>(512);
        Status status;
        std::atomic<uint32_t> done{0};

        void
        onRead(const Status &st) override
        {
            status = st;
            done.store(1, std::memory_order_release);
            done.notify_all();
        }
    };
    auto ssd = stampedSsd();
    ReadBatcher batcher(*ssd, GetParam(), 16);
    CompletionThread completer(*ssd);
    std::vector<WaitedRead> reads(4);
    std::vector<ReadBatcher::Read *> chain;
    for (size_t i = 0; i < reads.size(); i++) {
        reads[i].req.offset = i == 2 ? ssd->capacity() : i * 4096;
        reads[i].req.length = 4096;
        reads[i].req.buf = reads[i].data.data();
        chain.push_back(&reads[i]);
    }
    auto &reg = stats::StatsRegistry::global();
    const auto before = reg.snapshot();
    batcher.enqueue(chain);
    for (auto &r : reads) {
        while (r.done.load(std::memory_order_acquire) == 0)
            r.done.wait(0, std::memory_order_acquire);
    }
    for (size_t i = 0; i < reads.size(); i++) {
        if (i == 2) {
            EXPECT_EQ(reads[i].status.code(), StatusCode::kInvalidArgument);
            continue;
        }
        ASSERT_TRUE(reads[i].status.isOk()) << "read " << i;
        EXPECT_EQ(reads[i].data[0], i);
    }
    const auto after = reg.snapshot();
    EXPECT_EQ(after.counterDelta(before, "prism.tcq.batches"), 1u);
    EXPECT_EQ(after.counterDelta(before, "prism.tcq.requests"), 3u);
    EXPECT_EQ(after.counterDelta(before, "prism.vs.retries"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReadBatcherTest,
                         ::testing::Values(
                             ReadBatchMode::kThreadCombining,
                             ReadBatchMode::kTimeoutAsync,
                             ReadBatchMode::kNone),
                         [](const auto &info) {
                             switch (info.param) {
                               case ReadBatchMode::kThreadCombining:
                                 return "ThreadCombining";
                               case ReadBatchMode::kTimeoutAsync:
                                 return "TimeoutAsync";
                               default:
                                 return "None";
                             }
                         });

}  // namespace
}  // namespace prism::core
