/// Tests of the SWcc protocol (paper §3.2.2) under the simulated
/// incoherent per-thread caches: the allocator must stay correct when
/// stale reads are possible, flushing exactly at ownership transitions.

#include <gtest/gtest.h>
#include <vector>

#include "fixture.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

RigOptions
swcc_options(cxl::CoherenceMode mode = cxl::CoherenceMode::PartialHwcc)
{
    RigOptions opt;
    opt.mode = mode;
    opt.simulate_cache = true;
    return opt;
}

TEST(SwccProtocol, GlobalListHandoffAcrossIncoherentCaches)
{
    // Thread 1 builds slabs and spills them to the global free list; the
    // flush-on-ownership-change protocol must make the descriptors visible
    // to thread 2 despite fully incoherent caches.
    Rig rig(swcc_options());
    auto t1 = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 32 * 8; i++) {
        ptrs.push_back(rig.alloc.allocate(*t1, 1024));
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t1, p);
    }
    ASSERT_GT(rig.alloc.stats(t1->mem()).small.global_free, 0u);

    auto t2 = rig.thread();
    std::uint32_t len = rig.alloc.stats(t2->mem()).small.length;
    for (int i = 0; i < 64; i++) {
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len)
        << "thread 2 failed to consume global slabs (stale metadata?)";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(SwccProtocol, RemoteFreeWithStaleOwnerIsSafe)
{
    // The paper's §3.2.2 case analysis: a freeing thread may act on a
    // stale cached SWccDesc.owner. Construct the stale-cache scenario
    // explicitly and verify the remote path still works.
    Rig rig(swcc_options());
    auto owner = rig.thread();
    auto freer = rig.thread();

    cxl::HeapOffset p = rig.alloc.allocate(*owner, 512);
    // The freer caches the descriptor line (via a first remote free of a
    // sibling block).
    cxl::HeapOffset p2 = rig.alloc.allocate(*owner, 512);
    rig.alloc.deallocate(*freer, p2);
    // Remote free of p with whatever cached owner value the freer holds.
    rig.alloc.deallocate(*freer, p);
    rig.alloc.check_invariants(owner->mem());
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(freer));
}

TEST(SwccProtocol, StealAcrossIncoherentCaches)
{
    Rig rig(swcc_options());
    auto owner = rig.thread();
    auto thief = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 64; i++) {
        ptrs.push_back(rig.alloc.allocate(*owner, 512));
    }
    rig.alloc.detach_thread(*owner); // disowned, written back, unpinned
    for (auto p : ptrs) {
        rig.alloc.deallocate(*thief, p);
    }
    // The thief stole the fully-remotely-freed slab; it must be able to
    // initialize and allocate from it even though the previous owner's
    // cache held (flushed) descriptor state.
    std::uint32_t len = rig.alloc.stats(thief->mem()).small.length;
    for (int i = 0; i < 64; i++) {
        ASSERT_NE(rig.alloc.allocate(*thief, 512), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(thief->mem()).small.length, len);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(thief));
}

TEST(SwccProtocol, OwnerKeepsDescriptorCached)
{
    // The performance claim behind the case analysis: local operations
    // neither flush nor fence. The recovery record is DEFERRED (store
    // only; process-crash recovery writes the cache back, see
    // RecoveryLog::log_local), so the steady-state alloc/free cycle is
    // completely free of ordering instructions.
    Rig rig(swcc_options());
    auto t = rig.thread();
    for (int i = 0; i < 10; i++) {
        rig.alloc.deallocate(*t, rig.alloc.allocate(*t, 64)); // warm-up
    }
    std::uint64_t flushes_before = t->mem().counters().flushes;
    std::uint64_t fences_before = t->mem().counters().fences;
    for (int i = 0; i < 100; i++) {
        rig.alloc.deallocate(*t, rig.alloc.allocate(*t, 64));
    }
    EXPECT_EQ(t->mem().counters().flushes - flushes_before, 0u)
        << "local fast path must not flush (record is deferred)";
    EXPECT_EQ(t->mem().counters().fences - fences_before, 0u)
        << "local fast path must not fence";
    // The deferred record still exists on the fast path: it must ride the
    // NEXT publication's fence, not vanish. Force one (slab transitions)
    // and verify the allocator still passes its global invariants.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 3000; i++) {
        ptrs.push_back(rig.alloc.allocate(*t, 64));
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t, p);
    }
    EXPECT_GT(t->mem().counters().flushes, flushes_before);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(SwccProtocol, WorksUnderMcasMode)
{
    // No HWcc at all: every counter update goes through the NMP.
    Rig rig(swcc_options(cxl::CoherenceMode::NoHwcc));
    auto a = rig.thread();
    auto b = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 500; i++) {
        ptrs.push_back(rig.alloc.allocate(*a, 256));
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*b, p);
    }
    EXPECT_GT(a->mem().counters().mcas_ops + b->mem().counters().mcas_ops,
              0u);
    EXPECT_EQ(a->mem().counters().cas_ops + b->mem().counters().cas_ops, 0u);
    rig.alloc.check_invariants(a->mem());
    rig.pod.release_thread(std::move(a));
    rig.pod.release_thread(std::move(b));
}

TEST(SwccProtocol, HostCrashLosesOnlyUnflushedLocalState)
{
    // Under a HOST crash (cache dropped, not written back), everything the
    // protocol flushed — global free list descriptors, recovery record —
    // survives; thread-local list heads may be stale, which is the
    // documented limitation of host-level failures.
    Rig rig(swcc_options());
    auto t1 = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 32 * 8; i++) {
        ptrs.push_back(rig.alloc.allocate(*t1, 1024));
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t1, p);
    }
    std::uint32_t global_before = rig.alloc.stats(t1->mem()).small.global_free;
    ASSERT_GT(global_before, 0u);
    rig.pod.mark_crashed(std::move(t1), pod::Pod::CrashSeverity::Host);
    // Slabs that reached the global free list were flushed there: another
    // thread can still consume every one of them.
    auto t2 = rig.thread();
    std::uint32_t len = rig.alloc.stats(t2->mem()).small.length;
    for (std::uint32_t i = 0; i < global_before * 32; i++) {
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len);
    rig.pod.release_thread(std::move(t2));
}

} // namespace
