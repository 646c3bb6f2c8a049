/**
 * @file
 * Tests for the in-process profiler (common/prof.h): sampler
 * lifecycle, the per-thread sample ring, CPU attribution of a busy
 * spin, lock-contention accounting, the collapsed-stack export, and
 * the disabled-is-free contract.
 *
 * The profiler is process-wide, so every test tears it back down; the
 * suite is written to pass in any order but not concurrently with
 * itself.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/prof.h"
#include "common/stats.h"
#include "common/thread_util.h"
#include "common/trace.h"

using namespace prism;

// Sanitizers intercept signals and slow everything down unevenly;
// attribution thresholds relax there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PRISM_PROF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PRISM_PROF_SANITIZED 1
#endif
#endif

namespace {

struct ProfilerGuard {
    ~ProfilerGuard() { prof::Profiler::global().stop(); }
};

void
spinMillis(uint64_t ms, const std::atomic<bool> *stop = nullptr)
{
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    volatile uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < end) {
        for (int i = 0; i < 4096; i++)
            sink = sink * 2654435761u + static_cast<uint64_t>(i);
        if (stop != nullptr && stop->load(std::memory_order_relaxed))
            return;
    }
}

}  // namespace

// External linkage + noinline so the frame both survives optimization
// and resolves through dladdr (the dynamic symbol table only carries
// external symbols).
__attribute__((noinline)) void
profTestBusySpin(uint64_t ms)
{
    spinMillis(ms);
    // Keep the call from being tail-call-folded out of the stack.
    std::atomic_signal_fence(std::memory_order_seq_cst);
}

TEST(ProfilerLifecycle, StartStopRestart)
{
    ProfilerGuard guard;
    auto &p = prof::Profiler::global();
    ASSERT_FALSE(p.running());

    ASSERT_TRUE(p.start(99));
    EXPECT_TRUE(p.running());
    EXPECT_EQ(p.hz(), 99);
    // Second start is refused: the first owner stops it.
    EXPECT_FALSE(p.start(50));
    EXPECT_EQ(p.hz(), 99);

    p.stop();
    EXPECT_FALSE(p.running());
    EXPECT_EQ(p.hz(), 0);

    // Restart works and re-arms registered threads.
    ASSERT_TRUE(p.start(200));
    EXPECT_TRUE(p.running());
    EXPECT_EQ(p.hz(), 200);
    ThreadId::self();  // ensure this thread is registered
    spinMillis(50);
    EXPECT_GE(p.threadsArmed(), 1);
    p.stop();
    EXPECT_FALSE(p.running());
}

TEST(ProfilerLifecycle, HzClamped)
{
    ProfilerGuard guard;
    auto &p = prof::Profiler::global();
    ASSERT_TRUE(p.start(100000));
    EXPECT_LE(p.hz(), 1000);
    p.stop();
    EXPECT_FALSE(p.start(0));
    EXPECT_FALSE(p.start(-5));
    EXPECT_FALSE(p.running());
}

TEST(ProfilerLifecycle, ResolveHzPrecedence)
{
    ::unsetenv("PRISM_PROF_HZ");
    EXPECT_EQ(prof::resolveHz(), 0);
    ::setenv("PRISM_PROF_HZ", "77", 1);
    EXPECT_EQ(prof::resolveHz(), 77);
    ::unsetenv("PRISM_PROF_HZ");
}

TEST(SampleRing, WrapKeepsNewestAndCountsAll)
{
    prof::SampleRing ring(64);
    ASSERT_EQ(ring.capacity(), 64u);

    uint64_t frames[4] = {0x1000, 0x2000, 0x3000, 0x4000};
    for (uint32_t i = 0; i < 200; i++)
        ring.emit(1, /*leaf_id=*/i, frames, 4);

    // head() is monotonic: wraparound never loses the *count*, only
    // old payloads. (ThreadId recycling hands a ring to a new thread;
    // mark()-based deltas stay correct because head never resets.)
    EXPECT_EQ(ring.head(), 200u);

    std::vector<prof::SampleRing::Sample> out;
    ring.snapshot(0, out);
    ASSERT_EQ(out.size(), 64u);
    // The retained window is the newest 64 emits (leaf ids 136..199).
    for (const auto &s : out) {
        EXPECT_GE(s.leaf_id, 136u);
        EXPECT_LT(s.leaf_id, 200u);
        ASSERT_EQ(s.nframes, 4u);
        EXPECT_EQ(s.frames[0], 0x1000u);
        EXPECT_EQ(s.frames[3], 0x4000u);
    }

    // since-cursor past the window -> only the tail.
    out.clear();
    ring.snapshot(198, out);
    EXPECT_EQ(out.size(), 2u);
}

TEST(SampleRing, FrameCapTruncates)
{
    prof::SampleRing ring(8);
    std::vector<uint64_t> frames(prof::detail::kMaxFrames + 16);
    for (size_t i = 0; i < frames.size(); i++)
        frames[i] = 0x1000 + i;
    ring.emit(2, 7, frames.data(),
              static_cast<uint32_t>(frames.size()));
    std::vector<prof::SampleRing::Sample> out;
    ring.snapshot(0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].nframes, prof::detail::kMaxFrames);
    EXPECT_EQ(out[0].layer, 2);
    EXPECT_EQ(out[0].leaf_id, 7u);
}

TEST(Profiler, AttributesBusySpin)
{
    ProfilerGuard guard;
    auto &p = prof::Profiler::global();
    const auto marks = p.mark();
    ASSERT_TRUE(p.start(500));

    std::thread worker([] {
        ThreadId::self();  // register -> the sampler arms this thread
        profTestBusySpin(600);
    });
    worker.join();

    const std::string folded = p.collectFolded(&marks);
    p.stop();

    // Aggregate sample weight attributed to the spinning frame vs all.
    uint64_t total = 0, spin = 0;
    size_t pos = 0;
    while (pos < folded.size()) {
        size_t eol = folded.find('\n', pos);
        if (eol == std::string::npos)
            eol = folded.size();
        const std::string line = folded.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        const uint64_t n = std::strtoull(line.c_str() + sp + 1,
                                         nullptr, 10);
        total += n;
        if (line.find("profTestBusySpin") != std::string::npos ||
            line.find("spinMillis") != std::string::npos)
            spin += n;
    }
    ASSERT_GT(total, 10u) << folded;
#ifdef PRISM_PROF_SANITIZED
    const double min_frac = 0.25;
#else
    const double min_frac = 0.50;
#endif
    EXPECT_GE(static_cast<double>(spin) / static_cast<double>(total),
              min_frac)
        << "spin=" << spin << " total=" << total << "\n"
        << folded;
}

TEST(Profiler, CollapsedExportParsesAndIsMostlySymbolized)
{
    ProfilerGuard guard;
    auto &p = prof::Profiler::global();
    const auto marks = p.mark();
    ASSERT_TRUE(p.start(500));
    std::thread worker([] {
        ThreadId::self();
        profTestBusySpin(400);
    });
    worker.join();
    const std::string folded = p.collectFolded(&marks);
    p.stop();

    bool saw_header = false;
    uint64_t sym = 0, unsym = 0, stacks = 0;
    size_t pos = 0;
    while (pos < folded.size()) {
        size_t eol = folded.find('\n', pos);
        if (eol == std::string::npos)
            eol = folded.size();
        const std::string line = folded.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            if (line.find("prism cpu profile") != std::string::npos)
                saw_header = true;
            continue;
        }
        stacks++;
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_GT(std::strtoull(line.c_str() + sp + 1, nullptr, 10), 0u)
            << line;
        // Root frame is a layer name; frames never contain spaces.
        const std::string head = line.substr(0, sp);
        const std::string root = head.substr(0, head.find(';'));
        bool known = false;
        for (size_t l = 0; l < trace::kNumLayers; l++)
            if (root == trace::layerName(l))
                known = true;
        EXPECT_TRUE(known) << "unknown layer root: " << root;
        for (size_t fp = 0; fp < head.size();) {
            size_t fe = head.find(';', fp);
            if (fe == std::string::npos)
                fe = head.size();
            const std::string frame = head.substr(fp, fe - fp);
            EXPECT_EQ(frame.find(' '), std::string::npos) << frame;
            if (frame.rfind("0x", 0) == 0)
                unsym++;
            else
                sym++;
            fp = fe + 1;
        }
    }
    EXPECT_TRUE(saw_header) << folded;
    ASSERT_GT(stacks, 0u) << folded;
    EXPECT_GE(static_cast<double>(sym),
              0.8 * static_cast<double>(sym + unsym))
        << folded;
}

TEST(LockProf, ContentionAccounting)
{
    ProfilerGuard guard;
    prof::setLockProfiling(true);

    static prof::LockSite *site =
        prof::internLockSite("test.contention");
    prof::TimedMutex mu(site);

    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    const auto snap0 = stats::StatsRegistry::global().snapshot();

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&mu] {
            ThreadId::self();
            for (int i = 0; i < kIters; i++) {
                std::lock_guard<prof::TimedMutex> lock(mu);
                // Hold long enough that someone else queues up.
                volatile uint64_t sink = 0;
                for (int k = 0; k < 2000; k++)
                    sink = sink + static_cast<uint64_t>(k);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // The storm above proves the counters under parallel load (and
    // gives TSan real concurrency), but its iterations are short
    // enough that on a fast machine the threads can serialize without
    // ever overlapping. Force one guaranteed contended acquisition:
    // hold the lock while a waiter blocks on it.
    mu.lock();
    std::thread waiter([&mu] {
        ThreadId::self();
        std::lock_guard<prof::TimedMutex> lock(mu);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    mu.unlock();
    waiter.join();
    prof::setLockProfiling(false);

    const auto snap1 = stats::StatsRegistry::global().snapshot();
    const uint64_t acqs = snap1.counterDelta(
        snap0, "prism.lock.test.contention.acquisitions");
    const uint64_t contended = snap1.counterDelta(
        snap0, "prism.lock.test.contention.contended");
    const uint64_t wait_ns = snap1.counterDelta(
        snap0, "prism.lock.test.contention.wait_ns_total");

    EXPECT_EQ(acqs, static_cast<uint64_t>(kThreads) * kIters + 2);
    // The forced handoff makes contention certain, and every
    // contended acquisition must account >0 wait.
    EXPECT_GT(contended, 0u);
    EXPECT_GT(wait_ns, 0u);

    const std::string folded = prof::renderContentionFolded();
    EXPECT_NE(folded.find("test.contention"), std::string::npos)
        << folded;
    EXPECT_NE(folded.find("lock:test.contention"), std::string::npos)
        << folded;
}

TEST(LockProf, DisabledCountsNothing)
{
    ASSERT_FALSE(prof::lockProfilingEnabled());
    static prof::LockSite *site =
        prof::internLockSite("test.disabled");
    prof::TimedMutex mu(site);
    const auto snap0 = stats::StatsRegistry::global().snapshot();
    for (int i = 0; i < 100; i++) {
        std::lock_guard<prof::TimedMutex> lock(mu);
    }
    const auto snap1 = stats::StatsRegistry::global().snapshot();
    EXPECT_EQ(snap1.counterDelta(
                  snap0, "prism.lock.test.disabled.acquisitions"),
              0u);
}

TEST(Profiler, DisabledIsFree)
{
    auto &p = prof::Profiler::global();
    ASSERT_FALSE(p.running());
    EXPECT_EQ(p.threadsArmed(), 0);
    EXPECT_FALSE(prof::lockProfilingEnabled());

    // No new samples accumulate while off.
    const uint64_t before = p.samplesTaken();
    std::thread worker([] {
        ThreadId::self();
        profTestBusySpin(150);
    });
    worker.join();
    EXPECT_EQ(p.samplesTaken(), before);

    // An off profiler exports an empty (header-only) profile.
    const auto marks = p.mark();
    const std::string folded = p.collectFolded(&marks);
    for (size_t pos = 0; pos < folded.size();) {
        size_t eol = folded.find('\n', pos);
        if (eol == std::string::npos)
            eol = folded.size();
        const std::string line = folded.substr(pos, eol - pos);
        EXPECT_TRUE(line.empty() || line[0] == '#') << line;
        pos = eol + 1;
    }
}

TEST(Profiler, ProfileForWindowCollects)
{
    ProfilerGuard guard;
    std::atomic<bool> stop{false};
    std::thread worker([&stop] {
        ThreadId::self();
        spinMillis(5000, &stop);
    });
    const std::string folded =
        prof::Profiler::global().profileForWindow(500, 0.4);
    stop.store(true, std::memory_order_relaxed);
    worker.join();
    EXPECT_FALSE(prof::Profiler::global().running());
    EXPECT_NE(folded.find("prism cpu profile"), std::string::npos)
        << folded;
    // The window had a spinning thread; expect at least one stack.
    bool has_stack = false;
    for (size_t pos = 0; pos < folded.size();) {
        size_t eol = folded.find('\n', pos);
        if (eol == std::string::npos)
            eol = folded.size();
        if (eol > pos && folded[pos] != '#')
            has_stack = true;
        pos = eol + 1;
    }
    EXPECT_TRUE(has_stack) << folded;
}
