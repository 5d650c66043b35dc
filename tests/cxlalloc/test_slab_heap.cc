#include <gtest/gtest.h>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fixture.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

TEST(SlabAlloc, BasicAllocateFree)
{
    Rig rig;
    auto t = rig.pod.create_thread(rig.process);
    rig.alloc.attach_thread(*t);
    cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(rig.alloc.layout().in_small_data(p));
    // Writable through the data pointer.
    std::byte* data = rig.alloc.pointer(*t, p, 64);
    std::memset(data, 0xab, 64);
    rig.alloc.deallocate(*t, p);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, DistinctLiveAllocationsDoNotOverlap)
{
    Rig rig;
    auto t = rig.thread();
    std::set<cxl::HeapOffset> seen;
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 5000; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 48);
        ASSERT_NE(p, 0u);
        ASSERT_TRUE(seen.insert(p).second) << "duplicate allocation";
        // 48 -> class 48: offsets must be 48 apart at least
        ptrs.push_back(p);
    }
    for (auto it = seen.begin(); std::next(it) != seen.end(); ++it) {
        EXPECT_GE(*std::next(it) - *it, 48u);
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, FreedMemoryIsReused)
{
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 128);
    rig.alloc.deallocate(*t, p);
    cxl::HeapOffset q = rig.alloc.allocate(*t, 128);
    EXPECT_EQ(p, q) << "same-class free then alloc should reuse the block";
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, AllocationAlignedToClassSize)
{
    Rig rig;
    auto t = rig.thread();
    const cxl::HeapOffset base = rig.alloc.layout().small_data();
    for (std::uint64_t size : {8u, 16u, 64u, 256u, 1024u}) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, size);
        ASSERT_NE(p, 0u);
        EXPECT_EQ((p - base) % size, 0u) << "size " << size;
    }
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, LargeHeapServesBigBlocks)
{
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 100 << 10); // 100 KiB
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(rig.alloc.layout().in_large_data(p));
    std::byte* data = rig.alloc.pointer(*t, p, 100 << 10);
    std::memset(data, 0x5a, 100 << 10);
    rig.alloc.deallocate(*t, p);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, FullSlabDetachesAndLocalFreeRelinks)
{
    Rig rig;
    auto t = rig.thread();
    const cxl::HeapOffset base = rig.alloc.layout().small_data();
    auto slab_of = [&](cxl::HeapOffset p) { return (p - base) / (32 << 10); };
    // Fill exactly one slab of 1 KiB blocks (32 per slab).
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 32; i++) {
        ptrs.push_back(rig.alloc.allocate(*t, 1024));
    }
    // The next allocation must come from a different slab.
    cxl::HeapOffset next = rig.alloc.allocate(*t, 1024);
    EXPECT_NE(slab_of(ptrs[0]), slab_of(next));
    std::uint32_t len = rig.alloc.stats(t->mem()).small.length;
    // Free one block of the full (detached) slab: it relinks at the tail,
    // so the head slab's 31 free blocks are served first, then its block,
    // all before the heap extends.
    rig.alloc.deallocate(*t, ptrs[5]);
    for (int i = 0; i < 31; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 1024);
        ASSERT_EQ(slab_of(p), slab_of(next)) << "allocation " << i;
    }
    cxl::HeapOffset reuse = rig.alloc.allocate(*t, 1024);
    EXPECT_EQ(reuse, ptrs[5]);
    EXPECT_EQ(rig.alloc.stats(t->mem()).small.length, len);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, RelinkedSlabWaitsBehindFullerSlabs)
{
    Rig rig;
    auto t = rig.thread();
    // Eight full slabs of 1 KiB blocks; slabs 4-7 get 4 free blocks each.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 8 * 32; i++) {
        ptrs.push_back(rig.alloc.allocate(*t, 1024));
    }
    for (int slab = 4; slab < 8; slab++) {
        for (int b = 0; b < 4; b++) {
            rig.alloc.deallocate(*t, ptrs[slab * 32 + b]);
        }
    }
    std::uint32_t len = rig.alloc.stats(t->mem()).small.length;
    // Each round relinks or refills one of slabs 0-3 by one block, then
    // allocates. A relinked slab served first would fill and detach (flush
    // + fence) every round; behind the fuller slabs it stays linked.
    std::uint64_t fences_before = t->mem().counters().fences;
    for (int i = 0; i < 32; i++) {
        rig.alloc.deallocate(*t, ptrs[(i % 4) * 32 + 4 + i / 4]);
        ASSERT_NE(rig.alloc.allocate(*t, 1024), 0u);
    }
    std::uint64_t fences = t->mem().counters().fences - fences_before;
    EXPECT_LE(fences, 8u);
    EXPECT_EQ(rig.alloc.stats(t->mem()).small.length, len);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, EmptiedSlabRecyclesToOtherClass)
{
    Rig rig;
    auto t = rig.thread();
    std::uint32_t slabs_before = 0;
    {
        std::vector<cxl::HeapOffset> ptrs;
        for (int i = 0; i < 64; i++) {
            ptrs.push_back(rig.alloc.allocate(*t, 1024));
        }
        slabs_before = rig.alloc.stats(t->mem()).small.length;
        for (auto p : ptrs) {
            rig.alloc.deallocate(*t, p);
        }
    }
    // Allocating a different class should reuse the recycled slabs rather
    // than extend the heap.
    std::vector<cxl::HeapOffset> other;
    for (int i = 0; i < 1000; i++) {
        other.push_back(rig.alloc.allocate(*t, 8));
    }
    EXPECT_LE(rig.alloc.stats(t->mem()).small.length, slabs_before + 1);
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, RemoteFreeDecrementsAndStealReclaims)
{
    Rig rig;
    auto producer = rig.thread();
    auto consumer = rig.thread();
    // Producer fills one whole slab (32 KiB / 512 B = 64 blocks), hands
    // every block to the consumer and leaves: its slab is disowned and its
    // pin freed.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 64; i++) {
        ptrs.push_back(rig.alloc.allocate(*producer, 512));
    }
    rig.alloc.detach_thread(*producer);
    std::uint32_t len_before = rig.alloc.stats(producer->mem()).small.length;
    // Consumer remote-frees everything; the last free steals the slab.
    for (auto p : ptrs) {
        rig.alloc.deallocate(*consumer, p);
    }
    // Consumer can now allocate from the stolen slab without extending.
    for (int i = 0; i < 64; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*consumer, 512);
        ASSERT_NE(p, 0u);
    }
    EXPECT_EQ(rig.alloc.stats(consumer->mem()).small.length, len_before)
        << "steal should recycle the slab instead of extending the heap";
    rig.alloc.check_invariants(producer->mem());
    rig.pod.release_thread(std::move(producer));
    rig.pod.release_thread(std::move(consumer));
}

class ReleasedSlabs : public ::testing::TestWithParam<cxl::CoherenceMode> {};

TEST_P(ReleasedSlabs, ServeAnotherThreadOnceTheirBlocksAreFreed)
{
    // A leaving thread holds a full (Detached) 512 B slab, a partly free
    // 1 KiB slab and an 8 B slab with 4093 of its 4096 blocks free. Its
    // release disowns all three: free blocks marked allocated and freed
    // remotely with the pin (under NoHwcc in pending entries of at most a
    // row's capacity). Once another thread frees every live block, it
    // steals each slab, and they serve it without growing the heap.
    cxltest::RigOptions opt;
    opt.mode = GetParam();
    Rig rig(opt);
    auto leaver = rig.thread();
    auto other = rig.thread();
    std::vector<cxl::HeapOffset> live;
    std::vector<std::uint32_t> slabs;
    for (auto [size, n] : {std::pair<std::uint64_t, int>{512, 64},
                           {1024, 4},
                           {8, 3}}) {
        for (int i = 0; i < n; i++) {
            live.push_back(rig.alloc.allocate(*leaver, size));
            ASSERT_NE(live.back(), 0u);
        }
        slabs.push_back(static_cast<std::uint32_t>(
            (live.back() - rig.alloc.layout().small_data()) /
            cxlalloc::kSmallSlabSize));
    }
    cxlalloc::SlabHeap& heap = rig.alloc.small_heap();
    ASSERT_EQ(heap.debug_owner(leaver->mem(), slabs[0]), leaver->tid());
    rig.alloc.detach_thread(*leaver);
    for (std::uint32_t slab : slabs) {
        EXPECT_EQ(heap.debug_owner(leaver->mem(), slab), cxl::kNoThread);
        EXPECT_EQ(heap.debug_free_blocks(leaver->mem(), slab), 0u);
    }
    cxlalloc::AuditReport r = rig.alloc.audit(other->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.live_blocks, live.size());
    EXPECT_EQ(r.pending_frees, 0u);
    rig.pod.release_thread(std::move(leaver));
    const std::uint32_t len = rig.alloc.stats(other->mem()).small.length;
    for (cxl::HeapOffset p : live) {
        rig.alloc.deallocate(*other, p);
    }
    rig.alloc.cleanup(*other);
    r = rig.alloc.audit(other->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.live_blocks, 0u);
    EXPECT_EQ(r.pending_frees, 0u);
    for (std::uint32_t slab : slabs) {
        EXPECT_EQ(heap.debug_owner(other->mem(), slab), other->tid())
            << "slab " << slab << " was not stolen";
    }
    for (auto [size, n] : {std::pair<std::uint64_t, int>{512, 64},
                           {1024, 32},
                           {8, 4096}}) {
        for (int i = 0; i < n; i++) {
            ASSERT_NE(rig.alloc.allocate(*other, size), 0u);
        }
    }
    EXPECT_EQ(rig.alloc.stats(other->mem()).small.length, len)
        << "the released slabs did not serve the other thread";
    rig.alloc.check_invariants(other->mem());
    rig.pod.release_thread(std::move(other));
}

INSTANTIATE_TEST_SUITE_P(Modes, ReleasedSlabs,
                         ::testing::Values(cxl::CoherenceMode::PartialHwcc,
                                           cxl::CoherenceMode::NoHwcc),
                         [](const auto& info) {
                             return info.param == cxl::CoherenceMode::NoHwcc
                                        ? std::string("NoHwcc")
                                        : std::string("PartialHwcc");
                         });

TEST(SlabAlloc, MixedLocalRemoteFreesDisownAndReclaim)
{
    Rig rig;
    auto a = rig.thread();
    auto b = rig.thread();
    // Thread a fills a slab; frees one block locally BEFORE the slab fills,
    // then the slab fills with a remote free in the history -> disowned.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 63; i++) {
        ptrs.push_back(rig.alloc.allocate(*a, 512));
    }
    rig.alloc.deallocate(*b, ptrs[0]); // one remote free while non-full
    // Fill the slab back up (reuses nothing: remote frees are not visible
    // to the owner's bitset), so the slab goes disowned at the fill point.
    ptrs[0] = rig.alloc.allocate(*a, 512);
    ptrs.push_back(rig.alloc.allocate(*a, 512));
    // All remaining frees from the owner now take the remote path too.
    for (auto p : ptrs) {
        rig.alloc.deallocate(*a, p);
    }
    rig.alloc.check_invariants(a->mem());
    rig.pod.release_thread(std::move(a));
    rig.pod.release_thread(std::move(b));
}

TEST(SlabAlloc, UnsizedOverflowSpillsToGlobalList)
{
    Rig rig;
    auto t = rig.thread();
    // Create and fully free many slabs of one class; the unsized list is
    // capped, so the surplus must reach the global free list.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 32 * 12; i++) {
        ptrs.push_back(rig.alloc.allocate(*t, 1024));
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t, p);
    }
    auto stats = rig.alloc.stats(t->mem());
    EXPECT_GT(stats.small.global_free, 0u);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, GlobalListFeedsOtherThreads)
{
    Rig rig;
    auto t1 = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 32 * 12; i++) {
        ptrs.push_back(rig.alloc.allocate(*t1, 1024));
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t1, p);
    }
    std::uint32_t len_before = rig.alloc.stats(t1->mem()).small.length;
    std::uint32_t global_before = rig.alloc.stats(t1->mem()).small.global_free;
    ASSERT_GT(global_before, 0u);
    // A fresh thread should draw from the global list, not extend.
    auto t2 = rig.thread();
    for (int i = 0; i < 32; i++) {
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len_before);
    EXPECT_LT(rig.alloc.stats(t2->mem()).small.global_free, global_before);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(SlabAlloc, GlobalPopCasFailsAfterHeadAba)
{
    // Treiber-stack ABA on the global free list: t1 reads head A and
    // next(A) = B; before its CAS, t2 pops A, pops B and pushes A back.
    // The head again holds A, but B now belongs to t2 — the CAS must fail
    // rather than install B.
    RigOptions opt;
    opt.unsized_limit = 0; // every recycled slab goes straight to global
    Rig rig(opt);
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    constexpr int kPerSlab = 32; // 1 KiB blocks in a 32 KiB slab
    std::vector<cxl::HeapOffset> blocks;
    for (int i = 0; i < 3 * kPerSlab; i++) {
        blocks.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(blocks.back(), 0u);
    }
    for (cxl::HeapOffset p : blocks) {
        rig.alloc.deallocate(*t1, p);
    }
    // The first slab stays warm in its class; the other two are global.
    ASSERT_EQ(rig.alloc.stats(t1->mem()).small.global_free, 2u);

    cxl::HeapOffset head = rig.alloc.layout().small_free();
    cxltest::FireOnce aba(
        [head](const sched::Event& e) {
            return e.op == sched::Op::DcasTry && e.addr == head;
        },
        [&] {
            std::vector<cxl::HeapOffset> mine;
            for (int i = 0; i < kPerSlab + 1; i++) { // pops A, then B
                mine.push_back(rig.alloc.allocate(*t2, 1024));
            }
            for (int i = 0; i < kPerSlab; i++) { // A empties: pushed back
                rig.alloc.deallocate(*t2, mine[i]);
            }
        });
    sched::t_listener = &aba;
    cxl::HeapOffset p = rig.alloc.allocate(*t1, 64); // pops the head
    sched::t_listener = nullptr;
    ASSERT_TRUE(aba.fired());
    ASSERT_NE(p, 0u);

    cxlalloc::AuditReport r = rig.alloc.audit(t1->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(SlabAlloc, HeapExhaustionReturnsNull)
{
    Rig rig;
    auto t = rig.thread();
    // 16 large slabs of 512 KiB, one 512 KiB block each.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 16; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 512 << 10);
        ASSERT_NE(p, 0u);
        ptrs.push_back(p);
    }
    EXPECT_EQ(rig.alloc.allocate(*t, 512 << 10), 0u);
    for (auto p : ptrs) {
        rig.alloc.deallocate(*t, p);
    }
    // After freeing, allocation succeeds again.
    EXPECT_NE(rig.alloc.allocate(*t, 512 << 10), 0u);
    rig.pod.release_thread(std::move(t));
}

TEST(SlabAlloc, ZeroedHeapNeedsNoInitialization)
{
    // Paper §4: zeroed memory is a valid heap. The fixture performs no
    // initialization pass — the first allocation on a fresh device must
    // just work, including from a second process attached concurrently.
    Rig rig;
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);
    cxl::HeapOffset p1 = rig.alloc.allocate(*t1, 64);
    cxl::HeapOffset p2 = rig.alloc.allocate(*t2, 64);
    EXPECT_NE(p1, 0u);
    EXPECT_NE(p2, 0u);
    EXPECT_NE(p1, p2);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(SlabAlloc, CrossProcessSharedData)
{
    // PC-S: an offset allocated in one process names the same bytes in
    // another.
    Rig rig;
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);
    cxl::HeapOffset p = rig.alloc.allocate(*t1, 256);
    std::byte* w = rig.alloc.pointer(*t1, p, 256);
    std::memcpy(w, "cross-process hello", 20);
    const std::byte* r = rig.alloc.pointer(*t2, p, 256);
    EXPECT_EQ(std::memcmp(r, "cross-process hello", 20), 0);
    rig.alloc.deallocate(*t2, p); // remote free from the other process
    rig.alloc.check_invariants(t1->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(SlabAlloc, MultithreadedChurn)
{
    for (cxl::CoherenceMode mode :
         {cxl::CoherenceMode::PartialHwcc, cxl::CoherenceMode::NoHwcc}) {
        // One worker's working set extends the heap to ~44 slabs, so four
        // running at once need room for four of them.
        RigOptions opt;
        opt.mode = mode;
        opt.small_slabs = 256;
        Rig rig(opt);
        constexpr int kThreads = 4;
        constexpr int kOps = 4000;
        std::vector<std::thread> workers;
        for (int w = 0; w < kThreads; w++) {
            workers.emplace_back([&rig, w] {
                auto t = rig.thread();
                cxlcommon::Xoshiro rng(w + 1);
                std::vector<cxl::HeapOffset> live;
                for (int i = 0; i < kOps; i++) {
                    if (rng.next_below(3) != 0 || live.empty()) {
                        std::uint64_t size = 8 + rng.next_below(1017);
                        cxl::HeapOffset p = rig.alloc.allocate(*t, size);
                        ASSERT_NE(p, 0u);
                        live.push_back(p);
                    } else {
                        std::size_t pick = rng.next_below(live.size());
                        rig.alloc.deallocate(*t, live[pick]);
                        live[pick] = live.back();
                        live.pop_back();
                    }
                }
                for (auto p : live) {
                    rig.alloc.deallocate(*t, p);
                }
                rig.pod.release_thread(std::move(t));
            });
        }
        for (auto& w : workers) {
            w.join();
        }
        auto checker = rig.thread();
        cxlalloc::AuditReport audit = rig.alloc.audit(checker->mem());
        EXPECT_TRUE(audit.ok()) << audit.to_string();
        EXPECT_EQ(audit.live_blocks, 0u);
        rig.pod.release_thread(std::move(checker));
    }
}

TEST(SlabAlloc, ProducerConsumerPipeline)
{
    // The xmalloc pattern: every block allocated on one thread is freed on
    // another, hammering the remote-free/steal path concurrently.
    Rig rig;
    constexpr int kItems = 20000;
    std::vector<cxl::HeapOffset> queue(kItems, 0);
    std::atomic<int> produced{0};
    std::thread producer([&] {
        auto t = rig.thread();
        for (int i = 0; i < kItems; i++) {
            cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
            ASSERT_NE(p, 0u);
            queue[i] = p;
            produced.store(i + 1, std::memory_order_release);
        }
        rig.alloc.detach_thread(*t);
        rig.pod.release_thread(std::move(t));
    });
    std::thread consumer([&] {
        auto t = rig.thread();
        for (int i = 0; i < kItems; i++) {
            while (produced.load(std::memory_order_acquire) <= i) {
            }
            rig.alloc.deallocate(*t, queue[i]);
        }
        rig.alloc.detach_thread(*t);
        rig.pod.release_thread(std::move(t));
    });
    producer.join();
    consumer.join();
    auto checker = rig.thread();
    rig.alloc.check_invariants(checker->mem());
    auto stats = rig.alloc.stats(checker->mem());
    // The heap never needs more slabs than the live working set plus the
    // scheduling lag (on one core the producer can run ahead of the
    // consumer, so the bound is the full footprint: 20000 * 64 B = 40
    // slabs). Crucially, every fully-remotely-freed slab must have been
    // reclaimed, stolen or handed back when its thread left: after the run
    // they sit on free lists instead of being leaked in the
    // disowned/detached limbo.
    EXPECT_LE(stats.small.length, 41u);
    EXPECT_GT(stats.small.global_free, 0u)
        << "consumer's steals never recycled slabs to the global list";
    rig.pod.release_thread(std::move(checker));
}

} // namespace
