/// Deeper huge-heap tests: descriptor pool exhaustion/recycling, fault
/// behaviour for freed allocations, multi-region usage, and hazard
/// lifecycle across the fault handler.

#include <gtest/gtest.h>
#include <vector>

#include "fixture.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

TEST(HugeEdge, DescriptorPoolExhaustsAndRecyclesViaCleanup)
{
    Rig rig; // 16 descriptors per thread in the fixture config
    auto t = rig.thread();
    std::vector<cxl::HeapOffset> live;
    // Hold 6 live allocations (hazard slots bound concurrent mappings per
    // thread), then churn well past the pool size: only cleanup-based
    // descriptor recycling lets this succeed.
    for (int i = 0; i < 6; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 600 << 10);
        ASSERT_NE(p, 0u);
        live.push_back(p);
    }
    for (int i = 0; i < 100; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 600 << 10);
        ASSERT_NE(p, 0u) << "churn iteration " << i;
        rig.alloc.deallocate(*t, p);
    }
    for (auto p : live) {
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.cleanup(*t);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(HugeEdge, FaultOnFreedAllocationIsARealSegfault)
{
    // PC-T must NOT resurrect freed memory: once a huge allocation is
    // freed, a process without the mapping faulting on it gets a genuine
    // segfault (the descriptor walk finds no live allocation).
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);
    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    rig.alloc.deallocate(*t1, p);
    EXPECT_DEATH((void)rig.alloc.pointer(*t2, p, 8), "segfault");
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeEdge, SeveralAllocationsShareOneRegion)
{
    // Regions are 4 MiB in the fixture; four 600 KiB allocations must be
    // carved from ONE reservation region (the interval set at work), not
    // one region each.
    Rig rig;
    auto t = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 4; i++) {
        ptrs.push_back(rig.alloc.allocate(*t, 600 << 10));
    }
    auto stats = rig.alloc.stats(t->mem());
    EXPECT_EQ(stats.huge.regions_claimed, 1u);
    EXPECT_EQ(stats.huge.live_allocations, 4u);
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t, p);
    }
    rig.pod.release_thread(std::move(t));
}

TEST(HugeEdge, FaultingProcessHazardRemovedByItsCleanup)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);
    cxl::HeapOffset p = rig.alloc.allocate(*t1, 1 << 20);
    (void)rig.alloc.pointer(*t2, p, 8); // t2 faults -> publishes hazard
    rig.alloc.deallocate(*t1, p);
    // t2's cleanup finds the freed descriptor, unmaps, removes the hazard.
    rig.alloc.cleanup(*t2);
    EXPECT_FALSE(proc2->is_mapped(p));
    // Now t1 can reclaim (cleanup) and reuse the space.
    rig.alloc.cleanup(*t1);
    cxl::HeapOffset q = rig.alloc.allocate(*t1, 4 << 20); // full region
    EXPECT_NE(q, 0u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(HugeEdge, PageRoundingOfOddSizes)
{
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, (512 << 10) + 12345);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(p % cxl::kPageSize, 0u) << "huge allocations page-aligned";
    // The entire rounded extent is writable.
    std::memset(rig.alloc.pointer(*t, p, (512 << 10) + 12345), 1,
                (512 << 10) + 12345);
    rig.alloc.deallocate(*t, p);
    rig.pod.release_thread(std::move(t));
}

TEST(HugeEdge, RemoteFreeFollowedByOwnerReuse)
{
    Rig rig;
    auto owner = rig.thread();
    auto other = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*owner, 2 << 20);
    rig.alloc.deallocate(*other, p); // non-owner free
    rig.alloc.cleanup(*owner);       // owner reclaims desc + space
    cxl::HeapOffset q = rig.alloc.allocate(*owner, 2 << 20);
    EXPECT_EQ(q, p) << "address space should be reused after reclaim";
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(other));
}

TEST(HugeEdge, LargeHeapRemoteFreesAndSteal)
{
    // The large heap runs the same remote-free protocol as the small heap;
    // exercise it explicitly with 512 KiB slabs of 128 KiB blocks.
    Rig rig;
    auto owner = rig.thread();
    auto other = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 4; i++) { // exactly one large slab (4 x 128 KiB)
        cxl::HeapOffset p = rig.alloc.allocate(*owner, 128 << 10);
        ASSERT_NE(p, 0u);
        EXPECT_TRUE(rig.alloc.layout().in_large_data(p));
        ptrs.push_back(p);
    }
    rig.alloc.detach_thread(*owner); // the full slab: disowned, unpinned
    std::uint32_t len = rig.alloc.stats(owner->mem()).large.length;
    for (auto p : ptrs) {
        rig.alloc.deallocate(*other, p); // all remote -> steal
    }
    for (int i = 0; i < 4; i++) {
        ASSERT_NE(rig.alloc.allocate(*other, 128 << 10), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(other->mem()).large.length, len)
        << "stolen large slab should be reused, not extended past";
    rig.alloc.check_invariants(owner->mem());
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(other));
}

} // namespace
