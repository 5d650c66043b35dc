/// Heavier cross-process tests: pointer consistency over shared data
/// structures, heap extension visibility, and remote frees from many
/// processes — all with per-access PC-T checking enabled.

#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "common/offset_ptr.h"
#include "common/random.h"
#include "fixture.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

RigOptions
checked()
{
    RigOptions opt;
    opt.checked_mappings = true;
    return opt;
}

TEST(MultiProcess, SharedLinkedListAcrossFourProcesses)
{
    // Each process appends nodes to one shared list using offset-based
    // next pointers, then every process walks and validates the whole
    // list. This is the PC-S + PC-T end-to-end story.
    Rig rig(checked());
    struct Node {
        std::uint64_t value;
        cxl::HeapOffset next; // offset pointer (0 = null)
    };
    constexpr int kProcs = 4;
    constexpr int kPerProc = 50;

    std::vector<pod::Process*> procs{rig.process};
    for (int i = 1; i < kProcs; i++) {
        procs.push_back(rig.new_process());
    }
    cxl::HeapOffset head = 0;
    std::uint64_t counter = 0;
    for (int p = 0; p < kProcs; p++) {
        auto t = rig.thread(procs[p]);
        for (int i = 0; i < kPerProc; i++) {
            cxl::HeapOffset n = rig.alloc.allocate(*t, sizeof(Node));
            ASSERT_NE(n, 0u);
            auto* node = reinterpret_cast<Node*>(
                rig.alloc.pointer(*t, n, sizeof(Node)));
            node->value = counter++;
            node->next = head;
            head = n;
        }
        rig.pod.release_thread(std::move(t));
    }
    // Every process can walk the full list (faulting in mappings of slabs
    // extended by other processes).
    for (int p = 0; p < kProcs; p++) {
        auto t = rig.thread(procs[p]);
        std::uint64_t expect = counter;
        cxl::HeapOffset cursor = head;
        while (cursor != 0) {
            auto* node = reinterpret_cast<Node*>(
                rig.alloc.pointer(*t, cursor, sizeof(Node)));
            EXPECT_EQ(node->value, --expect);
            cursor = node->next;
        }
        EXPECT_EQ(expect, 0u);
        rig.pod.release_thread(std::move(t));
    }
    // Tear down: free every node from a process that allocated none of
    // the others' (all remote frees work cross-process).
    auto t = rig.thread(procs[kProcs - 1]);
    cxl::HeapOffset cursor = head;
    while (cursor != 0) {
        auto* node = reinterpret_cast<Node*>(
            rig.alloc.pointer(*t, cursor, sizeof(Node)));
        cxl::HeapOffset next = node->next;
        rig.alloc.deallocate(*t, cursor);
        cursor = next;
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(MultiProcess, SelfRelativeOffsetPtrInSharedHeap)
{
    // OffsetPtr<T> works inside allocator-served shared memory: built in
    // one process, resolved in another.
    Rig rig(checked());
    auto* proc2 = rig.new_process();
    auto t1 = rig.thread();
    auto t2 = rig.thread(proc2);
    struct Cell {
        int value;
        cxlcommon::OffsetPtr<Cell> next;
    };
    cxl::HeapOffset a = rig.alloc.allocate(*t1, sizeof(Cell));
    cxl::HeapOffset c = rig.alloc.allocate(*t1, sizeof(Cell));
    auto* cell_a = reinterpret_cast<Cell*>(
        rig.alloc.pointer(*t1, a, sizeof(Cell)));
    auto* cell_c = reinterpret_cast<Cell*>(
        rig.alloc.pointer(*t1, c, sizeof(Cell)));
    cell_a->value = 1;
    cell_c->value = 2;
    cell_a->next = cell_c;
    // Process 2 resolves the self-relative pointer through its own view.
    auto* seen = reinterpret_cast<Cell*>(
        rig.alloc.pointer(*t2, a, sizeof(Cell)));
    ASSERT_TRUE(seen->next);
    EXPECT_EQ(seen->next->value, 2);
    rig.alloc.deallocate(*t2, a);
    rig.alloc.deallocate(*t2, c);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(MultiProcess, HeapExtensionVisibleViaFaults)
{
    // Process A extends the small heap far past what B has mapped; B can
    // still read every allocation, faulting per slab.
    Rig rig(checked());
    auto* proc_b = rig.new_process();
    auto ta = rig.thread();
    auto tb = rig.thread(proc_b);
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 2000; i++) { // ~ 32 slabs of 512 B blocks
        cxl::HeapOffset p = rig.alloc.allocate(*ta, 512);
        ASSERT_NE(p, 0u);
        *rig.alloc.pointer(*ta, p, 1) = std::byte{0x7e};
        ptrs.push_back(p);
    }
    std::uint64_t faults_before = proc_b->faults_resolved();
    for (auto p : ptrs) {
        EXPECT_EQ(*rig.alloc.pointer(*tb, p, 1), std::byte{0x7e});
    }
    EXPECT_GT(proc_b->faults_resolved(), faults_before);
    for (auto p : ptrs) {
        rig.alloc.deallocate(*tb, p); // remote frees from process B
    }
    rig.alloc.check_invariants(ta->mem());
    rig.pod.release_thread(std::move(ta));
    rig.pod.release_thread(std::move(tb));
}

TEST(MultiProcess, LargeDescriptorOnTheSmallArraysLastPageFaultsIn)
{
    // The large descriptor array starts mid-page, right after the small
    // one. Process B's first touch of large slab 0's descriptor faults on
    // that shared page, whose first byte is a small descriptor past the
    // small heap's length: the fault resolves by the byte B touched, not
    // by the page start. (With the default 16 large slabs the whole array
    // shares the eagerly mapped page of the huge descriptors.)
    RigOptions opt = checked();
    opt.large_slabs = 128;
    Rig rig(opt);
    ASSERT_NE(rig.alloc.layout().large_swcc_desc(0) % cxl::kPageSize, 0u)
        << "the descriptor arrays share no page";
    auto* proc_b = rig.new_process();
    auto ta = rig.thread();
    auto tb = rig.thread(proc_b);
    cxl::HeapOffset p = rig.alloc.allocate(*ta, 4096);
    ASSERT_TRUE(rig.alloc.layout().in_large_data(p));
    std::uint64_t faults_before = proc_b->faults_resolved();
    rig.alloc.deallocate(*tb, p); // a remote free: loads the owner word
    EXPECT_GT(proc_b->faults_resolved(), faults_before);
    rig.alloc.check_invariants(ta->mem());
    rig.pod.release_thread(std::move(ta));
    rig.pod.release_thread(std::move(tb));
}

TEST(MultiProcess, ConcurrentProcessesChurnConcurrently)
{
    Rig rig(checked());
    constexpr int kProcs = 3;
    std::vector<pod::Process*> procs{rig.process};
    for (int i = 1; i < kProcs; i++) {
        procs.push_back(rig.new_process());
    }
    std::vector<std::thread> workers;
    for (int p = 0; p < kProcs; p++) {
        workers.emplace_back([&rig, &procs, p] {
            auto t = rig.thread(procs[p]);
            cxlcommon::Xoshiro rng(p + 5);
            std::vector<cxl::HeapOffset> live;
            for (int i = 0; i < 3000; i++) {
                if (rng.next_below(2) == 0 || live.empty()) {
                    cxl::HeapOffset q =
                        rig.alloc.allocate(*t, 8 + rng.next_below(1016));
                    ASSERT_NE(q, 0u);
                    live.push_back(q);
                } else {
                    std::size_t pick = rng.next_below(live.size());
                    rig.alloc.deallocate(*t, live[pick]);
                    live[pick] = live.back();
                    live.pop_back();
                }
            }
            for (auto q : live) {
                rig.alloc.deallocate(*t, q);
            }
            rig.pod.release_thread(std::move(t));
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    auto checker = rig.thread();
    rig.alloc.check_invariants(checker->mem());
    rig.pod.release_thread(std::move(checker));
}

TEST(MultiProcess, CrashInOneProcessRecoveredFromAnother)
{
    // The paper's recovery model allows a DIFFERENT process to adopt a
    // crashed thread's slot (e.g. the process died entirely).
    Rig rig(checked());
    auto* proc2 = rig.new_process();
    auto victim = rig.thread();
    for (int i = 0; i < 100; i++) {
        rig.alloc.allocate(*victim, 256);
    }
    victim->arm_crash(cxlalloc::crashpoint::kAfterRecord, 1);
    try {
        rig.alloc.allocate(*victim, 256);
    } catch (const pod::ThreadCrashed&) {
    }
    cxl::ThreadId dead = victim->tid();
    rig.pod.mark_crashed(std::move(victim));

    auto rescuer = rig.pod.adopt_thread(proc2, dead);
    rig.alloc.recover(*rescuer);
    cxl::HeapOffset p = rig.alloc.allocate(*rescuer, 256);
    EXPECT_NE(p, 0u);
    rig.alloc.check_invariants(rescuer->mem());
    rig.pod.release_thread(std::move(rescuer));
}

} // namespace
