#include "memento/recoverable_map.h"
#include "memento/recoverable_queue.h"

#include <gtest/gtest.h>

#include "small_geometry.h"

namespace {

using memento::RecoverableMap;
using memento::RecoverableQueue;
using pod::ThreadCrashed;

struct MementoRig {
    MementoRig() : b(bench::make_bundle("cxlalloc", geometry()))
    {
        // Queue + map metadata and the bucket array live in the bundle's
        // extra region past the heap. The queue's detectable CAS needs
        // coherent words there, so the rig runs under FullHwcc — matching
        // the paper, whose Fig. 7 experiment runs on regular DRAM.
        cxl::HeapOffset at = b.extra_base;
        queue = std::make_unique<RecoverableQueue>(*b.pod, at, b.alloc.get());
        at += RecoverableQueue::meta_size();
        cxl::HeapOffset mmeta = at;
        at += RecoverableMap::meta_size();
        map = std::make_unique<RecoverableMap>(*b.pod, mmeta, at, kBuckets,
                                               b.alloc.get());
    }

    static constexpr std::uint64_t kBuckets = 512;

    static bench::Geometry
    geometry()
    {
        bench::Geometry geom = apptest::small_geometry(
            RecoverableQueue::meta_size() + RecoverableMap::meta_size() +
            kv::HashTable::footprint(kBuckets));
        geom.full_hwcc = true;
        return geom;
    }

    /// Crashes ctx at app point @p point while running @p op, then adopts
    /// and fully recovers (allocator first, then the structure).
    template <typename F>
    bool
    crash_and_recover(std::unique_ptr<pod::ThreadContext>& ctx, F&& op,
                      int point, bool use_map)
    {
        ctx->arm_crash(point, 1);
        bool crashed = false;
        try {
            op(*ctx);
        } catch (const ThreadCrashed&) {
            crashed = true;
        }
        ctx->disarm_crash();
        if (!crashed) {
            return false;
        }
        cxl::ThreadId tid = ctx->tid();
        b.pod->mark_crashed(std::move(ctx));
        ctx = b.pod->adopt_thread(b.host_process[0], tid);
        b.heap->recover(*ctx);
        if (use_map) {
            map->recover(*ctx);
        } else {
            queue->recover(*ctx);
        }
        return true;
    }

    bench::Bundle b;
    std::unique_ptr<RecoverableQueue> queue;
    std::unique_ptr<RecoverableMap> map;
};

TEST(MementoQueue, PushPopRoundTrip)
{
    MementoRig m;
    auto t = m.b.thread();
    for (int i = 0; i < 100; i++) {
        ASSERT_TRUE(m.queue->push(*t, 64 + i, 0xab));
    }
    EXPECT_EQ(m.queue->approximate_size(*t), 100u);
    for (int i = 0; i < 100; i++) {
        ASSERT_TRUE(m.queue->pop(*t));
    }
    EXPECT_FALSE(m.queue->pop(*t));
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

class QueueCrash : public ::testing::TestWithParam<int> {};

TEST_P(QueueCrash, PushCrashNeverLosesOrLeaksObjects)
{
    MementoRig m;
    auto t = m.b.thread();
    for (int i = 0; i < 10; i++) {
        ASSERT_TRUE(m.queue->push(*t, 128, 1));
    }
    bool crashed = m.crash_and_recover(
        t, [&](pod::ThreadContext& c) { m.queue->push(c, 128, 2); },
        GetParam(), /*use_map=*/false);
    std::uint64_t size = m.queue->approximate_size(*t);
    if (crashed && GetParam() == memento::qcrash::kAfterAlloc) {
        // Crash before the app record: the allocator-level leak of one
        // block is the documented App-recovery boundary; the queue itself
        // is unchanged.
        EXPECT_EQ(size, 10u);
    } else {
        // Record written: recovery completes the push exactly once.
        EXPECT_EQ(size, 11u);
    }
    // Everything still pops and frees cleanly.
    while (m.queue->pop(*t)) {
    }
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

INSTANTIATE_TEST_SUITE_P(Points, QueueCrash,
                         ::testing::Values(memento::qcrash::kAfterAlloc,
                                           memento::qcrash::kAfterRecord,
                                           memento::qcrash::kAfterLink));

TEST(MementoQueue, PopCrashFreesUnlinkedNode)
{
    MementoRig m;
    auto t = m.b.thread();
    for (int i = 0; i < 5; i++) {
        ASSERT_TRUE(m.queue->push(*t, 256, 3));
    }
    bool crashed = m.crash_and_recover(
        t, [&](pod::ThreadContext& c) { m.queue->pop(c); },
        memento::qcrash::kAfterUnlink, /*use_map=*/false);
    EXPECT_TRUE(crashed);
    EXPECT_EQ(m.queue->approximate_size(*t), 4u);
    // The unlinked node was freed by recovery: repeated crash-free cycles
    // must not exhaust the heap (checked implicitly by churn below).
    for (int i = 0; i < 2000; i++) {
        ASSERT_TRUE(m.queue->push(*t, 256, 4));
        ASSERT_TRUE(m.queue->pop(*t));
    }
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

TEST(MementoMap, InsertRemoveContains)
{
    MementoRig m;
    auto t = m.b.thread();
    for (std::uint64_t id = 0; id < 200; id++) {
        ASSERT_TRUE(m.map->insert(*t, id, 64 + id % 512));
    }
    for (std::uint64_t id = 0; id < 200; id++) {
        EXPECT_TRUE(m.map->contains(*t, id));
    }
    for (std::uint64_t id = 0; id < 200; id++) {
        EXPECT_TRUE(m.map->remove(*t, id));
    }
    EXPECT_FALSE(m.map->contains(*t, 0));
    m.map->clear(*t);
    m.b.pod->release_thread(std::move(t));
}

class MapCrash : public ::testing::TestWithParam<int> {};

TEST_P(MapCrash, InsertCrashRecoversWithoutLoss)
{
    MementoRig m;
    auto t = m.b.thread();
    for (std::uint64_t id = 0; id < 10; id++) {
        ASSERT_TRUE(m.map->insert(*t, id, 64));
    }
    bool crashed = m.crash_and_recover(
        t, [&](pod::ThreadContext& c) { m.map->insert(c, 99, 64); },
        GetParam(), /*use_map=*/true);
    ASSERT_TRUE(crashed);
    if (GetParam() != memento::mcrash::kMapAfterAlloc) {
        // Once the record exists, the insert must complete exactly once.
        EXPECT_TRUE(m.map->contains(*t, 99));
    }
    for (std::uint64_t id = 0; id < 10; id++) {
        EXPECT_TRUE(m.map->contains(*t, id));
    }
    m.map->clear(*t);
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

INSTANTIATE_TEST_SUITE_P(Points, MapCrash,
                         ::testing::Values(memento::mcrash::kMapAfterAlloc,
                                           memento::mcrash::kMapAfterRecord,
                                           memento::mcrash::kMapAfterLink));

TEST(MementoQueue, GcRootsWalkMatchesContents)
{
    MementoRig m;
    auto t = m.b.thread();
    for (int i = 0; i < 25; i++) {
        ASSERT_TRUE(m.queue->push(*t, 64, 1));
    }
    int walked = 0;
    m.queue->for_each(*t, [&](cxl::HeapOffset) { walked++; });
    EXPECT_EQ(walked, 25);
    m.queue->drain(*t);
    m.b.pod->release_thread(std::move(t));
}

} // namespace
