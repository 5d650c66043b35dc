/// Concurrent Memento-structure tests: multiple threads pushing/popping
/// and inserting/removing while crashes strike, end-state checked exactly.

#include <gtest/gtest.h>
#include <atomic>
#include <thread>

#include "common/random.h"
#include "memento/recoverable_map.h"
#include "memento/recoverable_queue.h"
#include "small_geometry.h"

namespace {

using memento::RecoverableMap;
using memento::RecoverableQueue;
using pod::ThreadCrashed;

struct MRig {
    MRig() : b(bench::make_bundle("cxlalloc", geometry()))
    {
        cxl::HeapOffset at = b.extra_base;
        queue = std::make_unique<RecoverableQueue>(*b.pod, at, b.alloc.get());
        at += RecoverableQueue::meta_size();
        cxl::HeapOffset mmeta = at;
        at += RecoverableMap::meta_size();
        map = std::make_unique<RecoverableMap>(*b.pod, mmeta, at, kBuckets,
                                               b.alloc.get());
    }

    static constexpr std::uint64_t kBuckets = 2048;

    static bench::Geometry
    geometry()
    {
        bench::Geometry geom = apptest::small_geometry(
            RecoverableQueue::meta_size() + RecoverableMap::meta_size() +
            kv::HashTable::footprint(kBuckets));
        geom.full_hwcc = true;
        return geom;
    }

    bench::Bundle b;
    std::unique_ptr<RecoverableQueue> queue;
    std::unique_ptr<RecoverableMap> map;
};

TEST(MementoConcurrent, QueuePushPopBalanceAcrossThreads)
{
    MRig m;
    constexpr int kThreads = 4;
    constexpr int kPer = 3000;
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> pops{0};
    for (int w = 0; w < kThreads; w++) {
        workers.emplace_back([&] {
            auto t = m.b.thread();
            for (int i = 0; i < kPer; i++) {
                ASSERT_TRUE(m.queue->push(*t, 64, 1));
                if (m.queue->pop(*t)) {
                    pops.fetch_add(1);
                }
            }
            m.b.pod->release_thread(std::move(t));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    auto t = m.b.thread();
    std::uint64_t remaining = m.queue->approximate_size(*t);
    EXPECT_EQ(pops.load() + remaining,
              static_cast<std::uint64_t>(kThreads) * kPer);
    m.queue->drain(*t);
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

TEST(MementoConcurrent, CrashWhileOthersKeepPushing)
{
    MRig m;
    std::atomic<bool> crashed_done{false};
    std::atomic<std::uint64_t> victim_pushes{0};
    std::thread victim_thread([&] {
        auto t = m.b.thread();
        t->arm_crash(memento::qcrash::kAfterLink, 500);
        try {
            for (int i = 0; i < 100000; i++) {
                m.queue->push(*t, 64, 2);
                victim_pushes.fetch_add(1);
            }
        } catch (const ThreadCrashed&) {
            // The armed push completed its link before the crash fired.
            victim_pushes.fetch_add(1);
            cxl::ThreadId tid = t->tid();
            m.b.pod->mark_crashed(std::move(t));
            auto recovered = m.b.pod->adopt_thread(m.b.host_process[0], tid);
            m.b.heap->recover(*recovered);
            m.queue->recover(*recovered);
            m.b.pod->release_thread(std::move(recovered));
        }
        crashed_done.store(true);
    });
    std::uint64_t live_pushes = 0;
    {
        auto t = m.b.thread();
        while (!crashed_done.load()) {
            ASSERT_TRUE(m.queue->push(*t, 32, 3));
            live_pushes++;
        }
        m.b.pod->release_thread(std::move(t));
    }
    victim_thread.join();
    auto t = m.b.thread();
    EXPECT_EQ(m.queue->approximate_size(*t),
              victim_pushes.load() + live_pushes);
    m.queue->drain(*t);
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

TEST(MementoConcurrent, MapParallelDistinctKeyRanges)
{
    MRig m;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPer = 1500;
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; w++) {
        workers.emplace_back([&, w] {
            auto t = m.b.thread();
            for (std::uint64_t i = 0; i < kPer; i++) {
                ASSERT_TRUE(m.map->insert(*t, w * kPer + i, 40 + w));
            }
            m.b.pod->release_thread(std::move(t));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    auto t = m.b.thread();
    for (std::uint64_t id = 0; id < kThreads * kPer; id++) {
        EXPECT_TRUE(m.map->contains(*t, id)) << "id " << id;
    }
    for (std::uint64_t id = 0; id < kThreads * kPer; id++) {
        EXPECT_TRUE(m.map->remove(*t, id));
    }
    m.map->clear(*t);
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

TEST(MementoConcurrent, RepeatedCrashesAcrossBothStructures)
{
    MRig m;
    auto t = m.b.thread();
    cxlcommon::Xoshiro rng(12);
    int crashes = 0;
    std::uint64_t next_id = 0;
    for (int round = 0; round < 30; round++) {
        int point = (round % 2 == 0) ? memento::qcrash::kAfterRecord
                                     : memento::mcrash::kMapAfterRecord;
        t->arm_crash(point, 1 + static_cast<std::uint32_t>(
                                   rng.next_below(50)));
        try {
            for (int i = 0; i < 120; i++) {
                if (round % 2 == 0) {
                    m.queue->push(*t, 48, 1);
                } else {
                    m.map->insert(*t, next_id++, 48);
                }
            }
            t->disarm_crash();
        } catch (const ThreadCrashed&) {
            crashes++;
            cxl::ThreadId tid = t->tid();
            m.b.pod->mark_crashed(std::move(t));
            t = m.b.pod->adopt_thread(m.b.host_process[0], tid);
            m.b.heap->recover(*t);
            m.queue->recover(*t);
            m.map->recover(*t);
            m.b.heap->check_invariants(t->mem());
        }
    }
    EXPECT_GT(crashes, 10);
    m.queue->drain(*t);
    m.map->clear(*t);
    m.b.heap->check_invariants(t->mem());
    m.b.pod->release_thread(std::move(t));
}

} // namespace
