/// @file
/// Every audit law fires: one raw store breaks one law, and the report
/// holds exactly its violations; a leaked block is one live block.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cxlalloc/size_class.h"
#include "fixture.h"
#include "sync/detectable_cas.h"

namespace {

using cxlalloc::AuditHeap;
using cxlalloc::AuditLaw;
using cxlalloc::AuditReport;
using cxlsync::DcasWord;

/// A rig whose thread holds one live 64 B block in small slab `slab`.
struct AuditRig {
    cxltest::Rig rig;
    std::unique_ptr<pod::ThreadContext> t = rig.thread();
    cxl::HeapOffset block = rig.alloc.allocate(*t, 64);
    const cxlalloc::Layout& l = rig.alloc.layout();
    std::uint32_t slab = static_cast<std::uint32_t>(
        (block - l.small_data()) / cxlalloc::kSmallSlabSize);
    cxl::HeapOffset free_at =
        l.small_swcc_desc(slab) + cxlalloc::DescField::kFree;
    cxl::MemSession& mem = t->mem();

    AuditReport audit() { return rig.alloc.audit(mem); }

    /// Fills and empties eight 1 KiB slabs: one stays warm on its sized
    /// list, the unsized list keeps its limit and the rest spill onto the
    /// global list. Returns the global list's slabs, head first.
    std::vector<std::uint32_t>
    spill()
    {
        std::vector<cxl::HeapOffset> blocks;
        for (int i = 0; i < 8 * 32; i++) {
            blocks.push_back(rig.alloc.allocate(*t, 1024));
        }
        for (cxl::HeapOffset p : blocks) {
            rig.alloc.deallocate(*t, p);
        }
        std::vector<std::uint32_t> global;
        for (auto raw = DcasWord::value(mem.atomic_load64(l.small_free()));
             raw != 0; raw = mem.load<std::uint32_t>(next_at(raw - 1))) {
            global.push_back(raw - 1);
        }
        return global;
    }

    cxl::HeapOffset
    next_at(std::uint32_t s) const
    {
        return l.small_swcc_desc(s) + cxlalloc::DescField::kNext;
    }
};

/// @p report holds exactly one violation: shard 0, @p heap, @p slab, @p law.
void
expect_only(const AuditReport& report, AuditHeap heap, std::uint32_t slab,
            AuditLaw law)
{
    ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
    const cxlalloc::AuditViolation& v = report.violations[0];
    EXPECT_TRUE(v.shard == 0 && v.heap == heap && v.slab == slab &&
                v.law == law)
        << report.to_string();
}

TEST(Audit, LeakedBlockIsOneLiveBlock)
{
    AuditRig r;
    AuditReport report = r.audit();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.live_blocks, 1u);
    r.rig.alloc.deallocate(*r.t, r.block);
    EXPECT_EQ(r.audit().live_blocks, 0u);
}

TEST(Audit, CorruptedFreeCounterBreaksTheFreeCounterLaw)
{
    AuditRig r;
    auto free = r.mem.load<std::uint16_t>(r.free_at);
    r.mem.store(r.free_at, static_cast<std::uint16_t>(free - 1));
    AuditReport report = r.audit();
    expect_only(report, AuditHeap::Small, r.slab, AuditLaw::FreeCounter);
    EXPECT_EQ(report.violations[0].expected, free);
    EXPECT_EQ(report.violations[0].actual, free - 1u);
}

TEST(Audit, LoweredRemoteCounterBreaksTheRemoteBalance)
{
    // Fewer blocks outstanding than the free counter admits: a double free.
    AuditRig r;
    auto free = r.mem.load<std::uint16_t>(r.free_at);
    r.mem.atomic_store64(r.l.small_hwcc_desc(r.slab),
                         DcasWord::pack(free - 1, 0, 0));
    expect_only(r.audit(), AuditHeap::Small, r.slab, AuditLaw::RemoteBalance);
}

TEST(Audit, PinnedSlabThatLostItsPinBreaksTheRemoteBalance)
{
    // An owned slab's counter holds one more than its outstanding blocks:
    // its owner's pin. An empty owned slab whose counter reads just its
    // free blocks has lost it, and its last remote free could steal it
    // from under its owner.
    AuditRig r;
    r.rig.alloc.deallocate(*r.t, r.block); // empty, still owned (warm)
    ASSERT_TRUE(r.audit().ok()) << r.audit().to_string();
    auto free = r.mem.load<std::uint16_t>(r.free_at);
    r.mem.atomic_store64(r.l.small_hwcc_desc(r.slab),
                         DcasWord::pack(free, 0, 0));
    AuditReport report = r.audit();
    expect_only(report, AuditHeap::Small, r.slab, AuditLaw::RemoteBalance);
    EXPECT_EQ(report.violations[0].expected, free + 1u);
    EXPECT_EQ(report.violations[0].actual, free);
}

TEST(Audit, PendingFreeIsNeitherLiveNorLanded)
{
    // A NoHwcc remote free waits in the freeing thread's pending list: the
    // block is no longer live, its counter has not moved, and cleanup
    // lands it.
    cxltest::RigOptions opt;
    opt.mode = cxl::CoherenceMode::NoHwcc;
    cxltest::Rig rig(opt);
    auto owner = rig.thread();
    auto freer = rig.thread();
    cxl::HeapOffset block = rig.alloc.allocate(*owner, 64);
    ASSERT_NE(block, 0u);
    AuditReport before = rig.alloc.audit(owner->mem());
    rig.alloc.deallocate(*freer, block);
    AuditReport pending = rig.alloc.audit(owner->mem());
    EXPECT_TRUE(pending.ok()) << pending.to_string();
    EXPECT_EQ(pending.pending_frees, 1u);
    EXPECT_EQ(pending.live_blocks, before.live_blocks - 1);
    rig.alloc.cleanup(*freer);
    AuditReport landed = rig.alloc.audit(owner->mem());
    EXPECT_TRUE(landed.ok()) << landed.to_string();
    EXPECT_EQ(landed.pending_frees, 0u);
    EXPECT_EQ(landed.live_blocks, before.live_blocks - 1);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(freer));
}

TEST(Audit, PendingEntryBeyondItsCounterBreaksTheRemoteBalance)
{
    // A doctored pending-list entry claims more frees of the slab than its
    // counter has blocks outstanding: landing it would double free.
    AuditRig r;
    cxl::HeapOffset row = r.rig.alloc.small_heap().pending_line(r.t->tid());
    cxlalloc::PendingList list;
    list.add(r.slab, 2); // the slab has one live block
    r.mem.write_bytes(row, &list, sizeof list);
    AuditReport report = r.audit();
    expect_only(report, AuditHeap::Small, r.slab, AuditLaw::RemoteBalance);
    EXPECT_EQ(report.pending_frees, 2u);
}

TEST(Audit, SecondEntryOfASlabInAnotherLineBreaksThePendingEntryLaw)
{
    // A NoHwcc remote free leaves one entry of the slab in line 0 of the
    // freer's row; a raw store of line 1 with a second entry of the same
    // slab breaks the one-entry-per-row law (and nothing else: the slab
    // has blocks enough for both).
    cxltest::RigOptions opt;
    opt.mode = cxl::CoherenceMode::NoHwcc;
    cxltest::Rig rig(opt);
    auto owner = rig.thread();
    auto freer = rig.thread();
    cxl::HeapOffset a = rig.alloc.allocate(*owner, 64);
    cxl::HeapOffset b = rig.alloc.allocate(*owner, 64);
    ASSERT_TRUE(a != 0 && b != 0);
    const cxlalloc::Layout& l = rig.alloc.layout();
    auto slab = static_cast<std::uint32_t>((a - l.small_data()) /
                                           cxlalloc::kSmallSlabSize);
    rig.alloc.deallocate(*freer, a);
    cxlalloc::PendingList line;
    line.add(slab, 1);
    freer->mem().write_bytes(
        rig.alloc.small_heap().pending_line(freer->tid(), 1), &line,
        sizeof line);
    AuditReport report = rig.alloc.audit(owner->mem());
    expect_only(report, AuditHeap::Small, slab, AuditLaw::PendingEntry);
    EXPECT_EQ(report.pending_frees, 2u);
    EXPECT_EQ(report.live_blocks, 0u);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(freer));
}

/// @p report holds, after @p first others, one SlabHome violation per slab
/// of @p cut (listed, on no list), in slab order.
void
expect_homeless(const AuditReport& report, std::size_t first,
                std::vector<std::uint32_t> cut)
{
    std::sort(cut.begin(), cut.end());
    ASSERT_EQ(report.violations.size(), first + cut.size())
        << report.to_string();
    for (std::size_t i = 0; i < cut.size(); i++) {
        const cxlalloc::AuditViolation& v = report.violations[first + i];
        EXPECT_TRUE(v.slab == cut[i] && v.law == AuditLaw::SlabHome &&
                    v.expected == 1 && v.actual == 0)
            << report.to_string();
    }
}

TEST(Audit, CyclicGlobalListBreaksTheGlobalListLaw)
{
    // The global list's head links to itself: the walk stops at the loop,
    // counting the head once, and the slabs behind it are on no list.
    AuditRig r;
    std::vector<std::uint32_t> global = r.spill();
    ASSERT_GE(global.size(), 2u) << "too few slabs reached the global list";
    r.mem.store(r.next_at(global[0]), global[0] + 1);
    AuditReport report = r.audit();
    ASSERT_FALSE(report.violations.empty());
    const cxlalloc::AuditViolation& v = report.violations[0];
    EXPECT_TRUE(v.slab == global[0] && v.law == AuditLaw::GlobalList)
        << report.to_string();
    expect_homeless(report, 1, {global.begin() + 1, global.end()});
}

TEST(Audit, ClearedGlobalNextBreaksTheSlabHomeLaw)
{
    // The head's next word cleared: the list ends at the head, and each
    // slab that followed it is a Global slab on no list.
    AuditRig r;
    std::vector<std::uint32_t> global = r.spill();
    ASSERT_GE(global.size(), 2u) << "too few slabs reached the global list";
    ASSERT_TRUE(r.audit().ok()) << r.audit().to_string();
    r.mem.store<std::uint32_t>(r.next_at(global[0]), 0);
    expect_homeless(r.audit(), 0, {global.begin() + 1, global.end()});
}

TEST(Audit, SizedHeadNamingItselfBreaksTheLocalListLaw)
{
    // Two full 1 KiB slabs, each relinked by one free: the class's list
    // holds the first (head) then the second (tail), and the head's prev
    // word names the tail. Point it at the head itself.
    AuditRig r;
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 64; i++) {
        ptrs.push_back(r.rig.alloc.allocate(*r.t, 1024));
    }
    r.rig.alloc.deallocate(*r.t, ptrs[0]);
    r.rig.alloc.deallocate(*r.t, ptrs[32]);
    ASSERT_TRUE(r.audit().ok()) << r.audit().to_string();
    auto slab_of = [&](cxl::HeapOffset p) {
        return static_cast<std::uint32_t>((p - r.l.small_data()) /
                                          cxlalloc::kSmallSlabSize);
    };
    const std::uint32_t head = slab_of(ptrs[0]);
    r.mem.store<std::uint32_t>(r.l.small_swcc_desc(head) + 12, head + 1);
    AuditReport report = r.audit();
    expect_only(report, AuditHeap::Small, head, AuditLaw::LocalList);
    EXPECT_EQ(report.violations[0].expected, slab_of(ptrs[32]) + 1u);
    EXPECT_EQ(report.violations[0].actual, head + 1u);
}

TEST(Audit, WrongUnsizedCountBreaksTheLocalListLaw)
{
    AuditRig r;
    r.spill();
    const cxl::HeapOffset row = r.l.small_local(r.t->tid());
    const cxl::HeapOffset count_at =
        row + 4 + 4 * static_cast<cxl::HeapOffset>(cxlalloc::kNumSmallClasses);
    const auto count = r.mem.load<std::uint32_t>(count_at);
    ASSERT_GT(count, 0u);
    r.mem.store<std::uint32_t>(count_at, count + 1);
    AuditReport report = r.audit();
    expect_only(report, AuditHeap::Small,
                r.mem.load<std::uint32_t>(row) - 1u, AuditLaw::LocalList);
    EXPECT_EQ(report.violations[0].expected, count);
    EXPECT_EQ(report.violations[0].actual, count + 1u);
}

TEST(Audit, ForeignRegionOwnerBreaksTheHugeDescLaw)
{
    AuditRig r;
    cxl::HeapOffset huge = r.rig.alloc.allocate(*r.t, 1 << 20);
    ASSERT_NE(huge, 0u);
    auto region = static_cast<std::uint32_t>(
        (huge - r.l.huge_data()) / r.rig.config.huge_region_size);
    r.mem.atomic_store64(r.l.huge_reservation(region),
                         DcasWord::pack(r.t->tid() + 1, 0, 0));
    std::uint32_t desc = r.mem.load<std::uint32_t>(r.l.huge_local(r.t->tid()));
    expect_only(r.audit(), AuditHeap::Huge, desc - 1, AuditLaw::HugeDesc);
}

} // namespace
