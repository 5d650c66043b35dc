#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "fixture.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

TEST(HugeAlloc, BasicAllocateFree)
{
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(rig.alloc.layout().in_huge_data(p));
    std::byte* data = rig.alloc.pointer(*t, p, 1 << 20);
    std::memset(data, 0x77, 1 << 20);
    auto stats = rig.alloc.stats(t->mem());
    EXPECT_EQ(stats.huge.live_allocations, 1u);
    EXPECT_EQ(stats.huge.live_bytes, 1u << 20);
    rig.alloc.deallocate(*t, p);
    EXPECT_EQ(rig.alloc.stats(t->mem()).huge.live_allocations, 0u);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, MappingInstalledAndRemoved)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(rig.process->is_mapped(p));
    rig.alloc.deallocate(*t, p);
    EXPECT_FALSE(rig.process->is_mapped(p));
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, AddressSpaceAndDescriptorsRecycle)
{
    Rig rig;
    auto t = rig.thread();
    // Many more alloc/free cycles than there are descriptors or regions:
    // only reclamation (cleanup) makes this terminate successfully.
    for (int i = 0; i < 200; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 2 << 20);
        ASSERT_NE(p, 0u) << "iteration " << i;
        rig.alloc.deallocate(*t, p);
        rig.alloc.cleanup(*t);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, RemotelyFreedRegionsAreReusedBeforeClaimingNew)
{
    // A producer whose huge objects another thread frees must reclaim that
    // space before claiming a fresh region; claiming first hoards every
    // region (the xmalloc-huge pattern) and a third thread finds none.
    Rig rig;
    auto producer = rig.thread();
    auto consumer = rig.thread();
    const std::uint64_t region = rig.config.huge_region_size;
    for (std::uint32_t i = 0; i < rig.config.huge_regions; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*producer, region);
        ASSERT_NE(p, 0u) << "iteration " << i;
        rig.alloc.deallocate(*consumer, p);
    }
    auto third = rig.thread();
    cxl::HeapOffset q = rig.alloc.allocate(*third, region);
    ASSERT_NE(q, 0u) << "producer hoarded every huge region";
    rig.alloc.deallocate(*third, q);
    rig.alloc.check_invariants(third->mem());
    rig.pod.release_thread(std::move(producer));
    rig.pod.release_thread(std::move(consumer));
    rig.pod.release_thread(std::move(third));
}

TEST(HugeAlloc, PcTFaultInstallsMappingInOtherProcess)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);

    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    std::byte* w = rig.alloc.pointer(*t1, p, 8);
    w[0] = std::byte{42};

    // Process 2 has no mapping; dereferencing faults through the handler,
    // which walks the huge descriptor lists (paper §3.3.2).
    EXPECT_FALSE(proc2->is_mapped(p));
    const std::byte* r = rig.alloc.pointer(*t2, p, 8);
    EXPECT_EQ(r[0], std::byte{42});
    EXPECT_TRUE(proc2->is_mapped(p));
    EXPECT_GE(proc2->faults_resolved(), 1u);

    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, HazardBlocksReclamationUntilUnmap)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);

    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    // Process 2 faults the mapping in: its thread publishes a hazard.
    (void)rig.alloc.pointer(*t2, p, 8);
    ASSERT_TRUE(proc2->is_mapped(p));

    // Free from the owner. The descriptor is marked free, but process 2's
    // hazard must prevent reclamation.
    rig.alloc.deallocate(*t1, p);
    rig.alloc.cleanup(*t1);
    std::uint64_t free_before = rig.alloc.thread_state(t1->tid()).huge_free
                                    .total();

    // Process 2 eventually runs its own cleanup: unmaps and removes the
    // hazard; now the owner can reclaim descriptor + address space.
    rig.alloc.cleanup(*t2);
    EXPECT_FALSE(proc2->is_mapped(p));
    rig.alloc.cleanup(*t1);
    EXPECT_GT(rig.alloc.thread_state(t1->tid()).huge_free.total(),
              free_before);

    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, CrossThreadFree)
{
    Rig rig;
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    rig.alloc.deallocate(*t2, p); // non-owner free: walks owner's desc list
    EXPECT_EQ(rig.alloc.stats(t1->mem()).huge.live_allocations, 0u);
    // Owner reclaims on its next cleanup.
    rig.alloc.cleanup(*t1);
    rig.alloc.check_invariants(t1->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, RegionsGrantExclusiveOwnership)
{
    Rig rig;
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    cxl::HeapOffset p1 = rig.alloc.allocate(*t1, 1 << 20);
    cxl::HeapOffset p2 = rig.alloc.allocate(*t2, 1 << 20);
    ASSERT_NE(p1, 0u);
    ASSERT_NE(p2, 0u);
    // Different threads claim different reservation regions.
    std::uint64_t region_size = rig.config.huge_region_size;
    cxl::HeapOffset base = rig.alloc.layout().huge_data();
    EXPECT_NE((p1 - base) / region_size, (p2 - base) / region_size);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeAlloc, ExhaustionReturnsNullThenRecovers)
{
    Rig rig;
    auto t = rig.thread();
    // 8 regions x 4 MiB; each allocation takes a full region.
    std::vector<cxl::HeapOffset> held;
    while (true) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 4 << 20);
        if (p == 0) {
            break;
        }
        held.push_back(p);
    }
    EXPECT_EQ(held.size(), 8u);
    for (auto p : held) {
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.cleanup(*t);
    EXPECT_NE(rig.alloc.allocate(*t, 4 << 20), 0u);
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, OversizedRequestRejected)
{
    Rig rig;
    auto t = rig.thread();
    EXPECT_EQ(rig.alloc.allocate(*t, rig.config.huge_region_size + 1), 0u);
    rig.pod.release_thread(std::move(t));
}

TEST(HugeAlloc, ConcurrentHugeChurn)
{
    Rig rig;
    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; w++) {
        workers.emplace_back([&rig] {
            auto t = rig.thread();
            for (int i = 0; i < 40; i++) {
                cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
                ASSERT_NE(p, 0u);
                rig.alloc.deallocate(*t, p);
                rig.alloc.cleanup(*t);
            }
            rig.pod.release_thread(std::move(t));
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    auto checker = rig.thread();
    rig.alloc.check_invariants(checker->mem());
    EXPECT_EQ(rig.alloc.stats(checker->mem()).huge.live_allocations, 0u);
    rig.pod.release_thread(std::move(checker));
}

} // namespace
