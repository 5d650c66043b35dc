/// White-box and black-box recovery tests (paper §5.1): crash a thread at
/// defined (or random) points inside allocator operations, adopt its slot,
/// run recovery, and verify the heap is consistent and nothing is lost
/// except at most the in-flight block.

#include <gtest/gtest.h>
#include <cstring>
#include <vector>

#include "common/cacheline.h"
#include "common/random.h"
#include "cxl/cache_model.h"
#include "cxlalloc/recovery.h"
#include "cxlalloc/size_class.h"
#include "fixture.h"

namespace {

using cxlalloc::crashpoint::kAfterDcas;
using cxlalloc::crashpoint::kAfterRecord;
using cxlalloc::crashpoint::kMidAlloc;
using cxlalloc::crashpoint::kMidDetach;
using cxlalloc::crashpoint::kMidFreeLocal;
using cxlalloc::crashpoint::kMidHugeAlloc;
using cxlalloc::crashpoint::kMidHugeFree;
using cxlalloc::crashpoint::kMidHugeMap;
using cxlalloc::crashpoint::kMidInit;
using cxlalloc::crashpoint::kMidPushGlobal;
using cxlalloc::crashpoint::kMidSteal;
using cxltest::Rig;
using cxltest::RigOptions;
using pod::ThreadCrashed;

/// Crashes `ctx` while running `op`, then adopts + recovers the slot.
/// Returns false if the armed point was never reached (op completed).
template <typename F>
bool
crash_and_recover(Rig& rig, std::unique_ptr<pod::ThreadContext>& ctx, F&& op,
                  int point, std::uint32_t countdown = 1)
{
    ctx->arm_crash(point, countdown);
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
    rig.pod.mark_crashed(std::move(ctx));
    ctx = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*ctx);
    return true;
}

void
verify_consistent(Rig& rig, pod::ThreadContext& ctx)
{
    rig.alloc.check_invariants(ctx.mem());
    // The heap must still be fully usable from the recovered slot.
    cxl::HeapOffset p = rig.alloc.allocate(ctx, 64);
    ASSERT_NE(p, 0u);
    rig.alloc.deallocate(ctx, p);
}

class WhiteBoxCrash : public ::testing::TestWithParam<int> {};

TEST_P(WhiteBoxCrash, CrashInsideAllocThenRecover)
{
    Rig rig;
    auto t = rig.thread();
    // Warm up so every code path (init, detach, ...) is reachable.
    std::vector<cxl::HeapOffset> warm;
    for (int i = 0; i < 100; i++) {
        warm.push_back(rig.alloc.allocate(*t, 512));
    }
    bool crashed = crash_and_recover(
        rig, t, [&](pod::ThreadContext& c) { rig.alloc.allocate(c, 512); },
        GetParam());
    (void)crashed; // some points are not on this path; that is fine
    verify_consistent(rig, *t);
    for (auto p : warm) {
        rig.alloc.deallocate(*t, p);
    }
    verify_consistent(rig, *t);
    rig.pod.release_thread(std::move(t));
}

INSTANTIATE_TEST_SUITE_P(Points, WhiteBoxCrash,
                         ::testing::Values(kAfterRecord, kMidInit,
                                           kAfterDcas, kMidAlloc,
                                           kMidDetach));

TEST(CrashRecovery, CrashDuringInitSlabRedoesTransition)
{
    Rig rig;
    auto t = rig.thread();
    // First allocation goes: extend -> unsized -> init. Crash mid-init.
    bool crashed = crash_and_recover(
        rig, t, [&](pod::ThreadContext& c) { rig.alloc.allocate(c, 64); },
        kMidInit);
    EXPECT_TRUE(crashed);
    // After recovery the slab must be usable: allocations proceed without
    // extending the heap again.
    cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(rig.alloc.stats(t->mem()).small.length, 1u);
    verify_consistent(rig, *t);
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, CrashAfterExtendDcasKeepsSlab)
{
    Rig rig;
    auto t = rig.thread();
    bool crashed = crash_and_recover(
        rig, t, [&](pod::ThreadContext& c) { rig.alloc.allocate(c, 64); },
        kAfterDcas);
    EXPECT_TRUE(crashed);
    // The length CAS landed before the crash; recovery must hand the slab
    // to the recovered thread rather than leak it.
    EXPECT_EQ(rig.alloc.stats(t->mem()).small.length, 1u);
    cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(rig.alloc.stats(t->mem()).small.length, 1u)
        << "recovered slab was leaked: allocation extended the heap again";
    verify_consistent(rig, *t);
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, CrashDuringLocalFree)
{
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 256);
    bool crashed = crash_and_recover(
        rig, t, [&](pod::ThreadContext& c) { rig.alloc.deallocate(c, p); },
        kMidFreeLocal);
    EXPECT_TRUE(crashed);
    // Recovery completes the free: the same block is allocatable again.
    cxl::HeapOffset q = rig.alloc.allocate(*t, 256);
    EXPECT_EQ(q, p);
    verify_consistent(rig, *t);
    rig.pod.release_thread(std::move(t));
}

/// Reads an 8-byte word straight from the device array, bypassing every
/// simulated thread cache — i.e. the state a HOST crash preserves.
std::uint64_t
device_word(Rig& rig, cxl::HeapOffset off)
{
    std::uint64_t w;
    std::memcpy(&w, rig.pod.device().raw(off), sizeof(w));
    return w;
}

/// Reads `want` distinct small-data lines that map to cache set
/// `target_set`: enough clean conflict fills to cycle the set's ways and
/// evict everything previously resident there, dirty lines included.
/// Returns how many conflict lines were actually found and read.
int
churn_cache_set(Rig& rig, pod::ThreadContext& ctx, std::uint32_t target_set,
                int want)
{
    const cxlalloc::Layout& layout = rig.alloc.layout();
    cxl::HeapOffset begin = layout.small_data();
    cxl::HeapOffset end =
        begin + rig.config.small_slabs * cxlalloc::kSmallSlabSize;
    int read = 0;
    for (cxl::HeapOffset line = begin; line < end && read < want;
         line += cxlcommon::kCacheLine) {
        if (cxl::ThreadCache::set_of(line) == target_set) {
            (void)ctx.mem().load<std::uint64_t>(line);
            read++;
        }
    }
    return read;
}

TEST(CrashRecovery, HostCrashEvictionCannotResurrectStaleRecord)
{
    // The deferred (log_local) recovery record is host-crash sound only if
    // no later operation's effect can become durable while the device still
    // holds an older record. Explicit flushes are protocol-ordered, so the
    // dangerous channel is a capacity EVICTION writing an effect line back
    // early. Construct exactly that interleaving and host-crash on it.
    RigOptions opt;
    opt.simulate_cache = true;
    Rig rig(opt);
    auto t = rig.thread();
    const cxlalloc::Layout& layout = rig.alloc.layout();

    // Fill one 256 B slab completely (the final allocation detaches it,
    // writing nothing back), then write its descriptor's first line back,
    // making the class byte and the all-zero first bitset word durable.
    constexpr int kBlocks = 128; // 32 KiB slab / 256 B blocks
    std::vector<cxl::HeapOffset> warm;
    for (int i = 0; i < kBlocks; i++) {
        warm.push_back(rig.alloc.allocate(*t, 256));
        ASSERT_NE(warm.back(), 0u);
    }
    auto slab = static_cast<std::uint32_t>(
        (warm[0] - layout.small_data()) / cxlalloc::kSmallSlabSize);
    cxl::HeapOffset desc = layout.small_swcc_desc(slab);
    t->mem().flush(desc, cxlcommon::kCacheLine);
    cxl::HeapOffset record_row = layout.recovery_row(t->tid());
    std::uint32_t record_set = cxl::ThreadCache::set_of(record_row);
    std::uint32_t desc_set = cxl::ThreadCache::set_of(desc);
    // Geometry precondition: evicting the descriptor line must not drag the
    // record row out with it (that write-back would mask the hazard).
    ASSERT_NE(record_set, desc_set);

    // Free blocks 1 then 0: the cache now holds dirty bitset bits for both
    // and a deferred FreeLocal(block 0) record; nothing was flushed.
    rig.alloc.deallocate(*t, warm[1]);
    rig.alloc.deallocate(*t, warm[0]);

    // Make THAT record durable by evicting its row, as steady-state cache
    // pressure would.
    std::uint64_t detach_rec = device_word(rig, record_row);
    ASSERT_EQ(churn_cache_set(rig, *t, record_set, 24), 24);
    std::uint64_t freelocal_rec = device_word(rig, record_row);
    ASSERT_NE(freelocal_rec, detach_rec)
        << "conflict reads failed to evict the dirty record row";

    // Re-allocate: hands block 0 back (lowest free bit). The Alloc record
    // and the cleared bitset bit exist only in the cache.
    cxl::HeapOffset a = rig.alloc.allocate(*t, 256);
    ASSERT_EQ(a, warm[0]);

    // Evict the descriptor's first line: the cleared bit goes durable while
    // the device record still says FreeLocal(block 0) — unless the cache
    // persists the registered durable line (the record row) first.
    ASSERT_EQ(device_word(rig, desc + cxlalloc::DescField::kBitset), 0u);
    std::uint64_t evictions = t->mem().cache().evictions();
    ASSERT_EQ(churn_cache_set(rig, *t, desc_set, 24), 24);
    EXPECT_GT(t->mem().cache().evictions(), evictions);
    ASSERT_EQ(device_word(rig, desc + cxlalloc::DescField::kBitset),
              std::uint64_t{1} << 1)
        << "descriptor bitset line was not written back as constructed";
    EXPECT_GE(t->mem().cache().durable_writebacks(), 1u);
    EXPECT_NE(device_word(rig, record_row), freelocal_rec)
        << "an effect line went durable ahead of the newer Alloc record";

    // Host crash: everything still cached is lost.
    cxl::ThreadId tid = t->tid();
    rig.pod.mark_crashed(std::move(t), pod::Pod::CrashSeverity::Host);
    t = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t);
    rig.alloc.check_invariants(t->mem());

    // Block 0 is live application memory across the crash. Replaying a
    // stale FreeLocal would mark it free again — a double allocation.
    std::uint64_t word0 =
        t->mem().load<std::uint64_t>(desc + cxlalloc::DescField::kBitset);
    EXPECT_EQ(word0 & 1u, 0u)
        << "host-crash recovery resurrected a stale FreeLocal record";
    for (int i = 0; i < kBlocks; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t, 256);
        ASSERT_NE(p, 0u);
        EXPECT_NE(p, a) << "live block handed out twice after recovery";
    }
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, CrashDuringRemoteFreeCompletesDecrement)
{
    Rig rig;
    auto owner = rig.thread();
    auto other = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*owner, 512);
    bool crashed = crash_and_recover(
        rig, other, [&](pod::ThreadContext& c) { rig.alloc.deallocate(c, p); },
        kAfterRecord);
    EXPECT_TRUE(crashed);
    verify_consistent(rig, *other);
    verify_consistent(rig, *owner);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(other));
}

TEST(CrashRecovery, CrashMidStealCompletesSteal)
{
    Rig rig;
    auto owner = rig.thread();
    auto other = rig.thread();
    // Fill one whole 512 B slab (64 blocks), give it up (its owner leaves:
    // disowned, pin freed) and remote-free all of it; the final decrement
    // triggers the steal, where we crash.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 64; i++) {
        ptrs.push_back(rig.alloc.allocate(*owner, 512));
    }
    rig.alloc.detach_thread(*owner);
    for (int i = 0; i < 63; i++) {
        rig.alloc.deallocate(*other, ptrs[i]);
    }
    bool crashed = crash_and_recover(
        rig, other,
        [&](pod::ThreadContext& c) { rig.alloc.deallocate(c, ptrs[63]); },
        kMidSteal);
    EXPECT_TRUE(crashed);
    // The steal completed during recovery: the recovered thread can
    // allocate 64 blocks without extending the heap.
    std::uint32_t len = rig.alloc.stats(other->mem()).small.length;
    for (int i = 0; i < 64; i++) {
        ASSERT_NE(rig.alloc.allocate(*other, 512), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(other->mem()).small.length, len);
    verify_consistent(rig, *other);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(other));
}

/// Kills @p ctx between operations (its record is its last finished
/// operation's), then adopts and recovers the slot.
void
die_idle_and_recover(Rig& rig, std::unique_ptr<pod::ThreadContext>& ctx)
{
    cxl::ThreadId tid = ctx->tid();
    rig.pod.mark_crashed(std::move(ctx));
    ctx = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*ctx);
}

TEST(CrashRecovery, FinishedDetachRecordLeavesTheReclaimableSlabAlone)
{
    Rig rig;
    auto owner = rig.thread();
    auto other = rig.thread();
    // The 64th allocation fills the slab and detaches it: the owner's
    // record stays Detach while the other thread frees every block. The
    // owner's pin keeps the slab from being stolen: it holds only the pin.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 64; i++) {
        ptrs.push_back(rig.alloc.allocate(*owner, 512));
    }
    const std::uint32_t slab = static_cast<std::uint32_t>(
        (ptrs[0] - rig.alloc.layout().small_data()) /
        cxlalloc::kSmallSlabSize);
    for (cxl::HeapOffset p : ptrs) {
        rig.alloc.deallocate(*other, p);
    }
    cxlalloc::SlabHeap& heap = rig.alloc.small_heap();
    ASSERT_EQ(heap.debug_owner(other->mem(), slab), owner->tid())
        << "a remote freer stole a pinned slab";
    ASSERT_EQ(heap.debug_remote_free(other->mem(), slab), 0u);
    die_idle_and_recover(rig, owner);
    rig.alloc.check_invariants(owner->mem());
    // The recovered owner takes the slab back before growing the heap: a
    // slab's worth of 512 B blocks reuses it.
    std::uint32_t len = rig.alloc.stats(owner->mem()).small.length;
    for (int i = 0; i < 64; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*owner, 512);
        ASSERT_NE(p, 0u);
        EXPECT_EQ(p, ptrs[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(rig.alloc.stats(owner->mem()).small.length, len);
    verify_consistent(rig, *owner);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(other));
}

TEST(CrashRecovery, FinishedDisownRecordLeavesTheStolenSlabAlone)
{
    Rig rig;
    auto owner = rig.thread();
    auto other = rig.thread();
    // One remote free before the slab fills: the filling allocation
    // disowns it. The other thread then frees the rest and steals it.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 63; i++) {
        ptrs.push_back(rig.alloc.allocate(*owner, 512));
    }
    rig.alloc.deallocate(*other, ptrs[0]);
    ptrs[0] = rig.alloc.allocate(*owner, 512);
    for (cxl::HeapOffset p : ptrs) {
        rig.alloc.deallocate(*other, p);
    }
    die_idle_and_recover(rig, owner);
    verify_consistent(rig, *owner);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(other));
}

TEST(CrashRecovery, CrashInsideStealAcquireCompletesSteal)
{
    // As above, but the crash lands inside the steal's acquire: the slab
    // is already ours (owner field written) yet on no list. Recovery must
    // still link it, or the slab is lost to every thread.
    Rig rig;
    auto owner = rig.thread();
    auto other = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 64; i++) {
        ptrs.push_back(rig.alloc.allocate(*owner, 512));
    }
    rig.alloc.detach_thread(*owner);
    for (int i = 0; i < 63; i++) {
        rig.alloc.deallocate(*other, ptrs[i]);
    }
    const cxlalloc::Layout& l = rig.alloc.layout();
    auto slab = static_cast<std::uint32_t>((ptrs[0] - l.small_data()) /
                                           cxlalloc::kSmallSlabSize);
    cxl::HeapOffset class_field =
        l.small_swcc_desc(slab) + cxlalloc::DescField::kClass;
    // acquire_to_unsized stores the owner, then the class: die between.
    cxltest::FireOnce die(
        [class_field](const sched::Event& e) {
            return e.op == sched::Op::Store && e.addr == class_field;
        },
        [] { throw ThreadCrashed{-1}; });
    sched::t_listener = &die;
    EXPECT_THROW(rig.alloc.deallocate(*other, ptrs[63]), ThreadCrashed);
    sched::t_listener = nullptr;
    ASSERT_TRUE(die.fired());
    ASSERT_EQ(rig.alloc.small_heap().debug_owner(other->mem(), slab),
              other->tid());
    cxl::ThreadId tid = other->tid();
    rig.pod.mark_crashed(std::move(other));
    other = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*other);

    std::uint32_t len = rig.alloc.stats(other->mem()).small.length;
    for (int i = 0; i < 64; i++) {
        ASSERT_NE(rig.alloc.allocate(*other, 512), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(other->mem()).small.length, len);
    verify_consistent(rig, *other);
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(other));
}

TEST(CrashRecovery, CrashDuringPushGlobalFinishesPush)
{
    Rig rig;
    auto t = rig.thread();
    // Build up enough empty slabs that a free triggers the global spill.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 32 * 8; i++) {
        ptrs.push_back(rig.alloc.allocate(*t, 1024));
    }
    bool crashed = false;
    for (auto p : ptrs) {
        if (!crashed) {
            t->arm_crash(kMidPushGlobal, 1);
            try {
                rig.alloc.deallocate(*t, p);
                t->disarm_crash();
            } catch (const ThreadCrashed&) {
                crashed = true;
                cxl::ThreadId tid = t->tid();
                rig.pod.mark_crashed(std::move(t));
                t = rig.pod.adopt_thread(rig.process, tid);
                rig.alloc.recover(*t);
            }
        } else {
            rig.alloc.deallocate(*t, p);
        }
    }
    EXPECT_TRUE(crashed);
    // The mid-push slab must be on the global list (not lost).
    verify_consistent(rig, *t);
    rig.pod.release_thread(std::move(t));
}

/// Adopts @p ctx's dead slot in a fresh context and recovers it.
void
adopt_and_recover(Rig& rig, std::unique_ptr<pod::ThreadContext>& ctx)
{
    cxl::ThreadId tid = ctx->tid();
    rig.pod.mark_crashed(std::move(ctx));
    ctx = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*ctx);
}

class AdopterDeath : public ::testing::TestWithParam<cxl::CoherenceMode> {};

TEST_P(AdopterDeath, RepushedSlabIsNotPushedAgainBySecondAdopter)
{
    // A trim dies between its pop and its CAS (kMidPushGlobal). Its
    // adopter pushes the slab, then dies at its next record-row store,
    // before the record is cleared. The second adopter must find the push
    // landed: a CAS under a version no record holds would look failed to
    // it, and pushing the slab again would link it to itself.
    RigOptions opt;
    opt.mode = GetParam();
    opt.unsized_limit = 0; // an emptied spare slab goes straight global
    Rig rig(opt);
    auto t = rig.thread();
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 40; i++) {
        ptrs.push_back(rig.alloc.allocate(*t, 1024)); // 32 + 8 blocks
    }
    t->arm_crash(kMidPushGlobal, 1);
    EXPECT_THROW(
        {
            for (int i = 0; i < 32; i++) {
                rig.alloc.deallocate(*t, ptrs[i]); // empties the first
            }
        },
        ThreadCrashed);
    t->disarm_crash();
    cxl::ThreadId tid = t->tid();
    const cxlalloc::Layout& l = rig.alloc.layout();
    bool cas_seen = false;
    cxltest::FireOnce die(
        [&](const sched::Event& e) {
            cas_seen |= e.op == sched::Op::Cas && e.addr == l.small_free();
            return cas_seen && e.op == sched::Op::Store &&
                   e.addr == l.recovery_row(tid);
        },
        [] { throw ThreadCrashed{-1}; });
    rig.pod.mark_crashed(std::move(t));
    t = rig.pod.adopt_thread(rig.process, tid);
    sched::t_listener = &die;
    EXPECT_THROW(rig.alloc.recover(*t), ThreadCrashed);
    sched::t_listener = nullptr;
    ASSERT_TRUE(die.fired());
    adopt_and_recover(rig, t);
    cxlalloc::AuditReport r = rig.alloc.audit(t->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(rig.alloc.stats(t->mem()).small.global_free, 1u);
    verify_consistent(rig, *t);
    rig.pod.release_thread(std::move(t));
}

INSTANTIATE_TEST_SUITE_P(Modes, AdopterDeath,
                         ::testing::Values(cxl::CoherenceMode::PartialHwcc,
                                           cxl::CoherenceMode::NoHwcc),
                         [](const auto& info) {
                             return info.param == cxl::CoherenceMode::NoHwcc
                                        ? std::string("NoHwcc")
                                        : std::string("PartialHwcc");
                         });

TEST(CrashRecovery, HugeAllocRedoWithAFullHazardRowRollsBack)
{
    // Eight live huge allocations fill the rig's eight hazard slots, and
    // the ninth dies between its descriptor publish and its link. Its
    // redo must take allocate's own path: a cleanup that frees no slot,
    // then the roll-back, not an abort on the full row.
    Rig rig;
    auto t = rig.thread();
    ASSERT_EQ(rig.config.hazard_slots_per_thread, 8u);
    for (int i = 0; i < 8; i++) {
        ASSERT_NE(rig.alloc.allocate(*t, 1 << 20), 0u);
    }
    ASSERT_TRUE(crash_and_recover(
        rig, t, [&](pod::ThreadContext& c) { rig.alloc.allocate(c, 1 << 20); },
        kMidHugeAlloc));
    cxlalloc::AuditReport r = rig.alloc.audit(t->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(rig.alloc.stats(t->mem()).huge.live_allocations, 8u)
        << "the ninth allocation was not rolled back";
    EXPECT_EQ(rig.alloc.allocate(*t, 1 << 20), 0u) << "the row is still full";
    verify_consistent(rig, *t);
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, FreshOccupantsFailedPopGlobalIsNotCalledLanded)
{
    // Occupant A of slot s extends the heap at its version 1, and t1's
    // extension displaces A's tag, recording help[s] = 1. A detaches and
    // leaves; B takes slot s and dies in its first PopGlobal between the
    // record and the CAS. Had B's versions restarted at 0, that pop would
    // be B's version 1, which help[s] calls landed: recovery would link a
    // slab still on the global list into B's unsized list.
    RigOptions opt;
    opt.unsized_limit = 0; // an emptied spare slab goes straight global
    Rig rig(opt);
    auto t1 = rig.thread();
    auto a = rig.thread();
    cxl::ThreadId tid = a->tid();
    ASSERT_NE(rig.alloc.allocate(*a, 1024), 0u); // A's Extend
    // t1 fills one 1 KiB slab and opens a second (both Extends), then
    // empties the first: it spills to the global list.
    std::vector<cxl::HeapOffset> first;
    for (int i = 0; i < 32; i++) {
        first.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(first.back(), 0u);
    }
    ASSERT_NE(rig.alloc.allocate(*t1, 1024), 0u);
    for (cxl::HeapOffset p : first) {
        rig.alloc.deallocate(*t1, p);
    }
    ASSERT_EQ(rig.alloc.stats(t1->mem()).small.global_free, 1u);
    rig.alloc.detach_thread(*a);
    rig.pod.release_thread(std::move(a));

    auto b = rig.thread();
    ASSERT_EQ(b->tid(), tid);
    ASSERT_TRUE(crash_and_recover(
        rig, b, [&](pod::ThreadContext& c) { rig.alloc.allocate(c, 64); },
        kAfterRecord));
    cxlalloc::AuditReport r = rig.alloc.audit(b->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(rig.alloc.stats(b->mem()).small.global_free, 1u)
        << "the failed pop took the slab off the global list";
    verify_consistent(rig, *b);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(b));
}

/// Slot @p a extends the heap twice (versions 1 and 2, the second for a
/// 1 KiB slab); t1's first extension displaces A's tag, recording
/// help[A] = 2; t1 then fills a 1 KiB slab, opens a second and empties
/// the first, which spills to the global list (unsized_limit 0). Returns
/// A's first 64 B block.
cxl::HeapOffset
help_entry_at_two(Rig& rig, pod::ThreadContext& a, pod::ThreadContext& t1)
{
    cxl::HeapOffset small = rig.alloc.allocate(a, 64);
    EXPECT_NE(rig.alloc.allocate(a, 1024), 0u);
    std::vector<cxl::HeapOffset> first;
    for (int i = 0; i < 32; i++) {
        first.push_back(rig.alloc.allocate(t1, 1024));
        EXPECT_NE(first.back(), 0u);
    }
    EXPECT_NE(rig.alloc.allocate(t1, 1024), 0u);
    for (cxl::HeapOffset p : first) {
        rig.alloc.deallocate(t1, p);
    }
    EXPECT_EQ(rig.alloc.stats(t1.mem()).small.global_free, 1u);
    return small;
}

/// The slot's next PopGlobal dies between its record and its CAS: its
/// version must be past help[A] = 2, or recovery calls it landed and links
/// a slab still on the global list.
void
failed_pop_is_not_called_landed(Rig& rig,
                                std::unique_ptr<pod::ThreadContext>& a)
{
    ASSERT_TRUE(crash_and_recover(
        rig, a, [&](pod::ThreadContext& c) { rig.alloc.allocate(c, 512); },
        kAfterRecord));
    cxlalloc::AuditReport r = rig.alloc.audit(a->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(rig.alloc.stats(a->mem()).small.global_free, 1u)
        << "the failed pop took the slab off the global list";
}

TEST(CrashRecovery, VersionlessRecordDoesNotRestartVersionsBelowHelp)
{
    // A's full transition logs Detach, a record without a CAS. A dies
    // after it: recovery resumes past that record's version, which must
    // be A's newest (2), not 0.
    RigOptions opt;
    opt.unsized_limit = 0;
    Rig rig(opt);
    auto t1 = rig.thread();
    auto a = rig.thread();
    help_entry_at_two(rig, *a, *t1);
    ASSERT_TRUE(crash_and_recover(
        rig, a,
        [&](pod::ThreadContext& c) {
            for (int i = 0; i < 31; i++) {
                rig.alloc.allocate(c, 1024); // fills the slab: Detach
            }
        },
        kMidDetach));
    EXPECT_EQ(rig.alloc.pending_record(*a).op, cxlalloc::Op::None);
    failed_pop_is_not_called_landed(rig, a);
    verify_consistent(rig, *a);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(a));
}

TEST(CrashRecovery, SecondAdopterDoesNotRestartVersionsBelowHelp)
{
    // A dies in a local free (version 2 recorded); its adopter recovers
    // and dies before logging anything. The cleared record must keep the
    // version, or the next adopter restarts at 1.
    RigOptions opt;
    opt.unsized_limit = 0;
    Rig rig(opt);
    auto t1 = rig.thread();
    auto a = rig.thread();
    cxl::HeapOffset small = help_entry_at_two(rig, *a, *t1);
    ASSERT_TRUE(crash_and_recover(
        rig, a, [&](pod::ThreadContext& c) { rig.alloc.deallocate(c, small); },
        kMidFreeLocal));
    cxl::ThreadId tid = a->tid();
    rig.pod.mark_crashed(std::move(a));
    a = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*a);
    failed_pop_is_not_called_landed(rig, a);
    verify_consistent(rig, *a);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(a));
}

TEST(CrashRecovery, CrashDuringHugeAllocCompletesAllocation)
{
    Rig rig;
    auto t = rig.thread();
    for (int point : {kAfterRecord, kMidHugeAlloc, kMidHugeMap}) {
        auto live_before = rig.alloc.stats(t->mem()).huge.live_allocations;
        bool crashed = crash_and_recover(
            rig, t,
            [&](pod::ThreadContext& c) { rig.alloc.allocate(c, 1 << 20); },
            point);
        EXPECT_TRUE(crashed) << "point " << point;
        rig.alloc.check_invariants(t->mem());
        auto live_after = rig.alloc.stats(t->mem()).huge.live_allocations;
        // Either nothing happened or the allocation completed during
        // recovery (the pointer is leaked to the app's recovery, §5.2.1).
        EXPECT_LE(live_after, live_before + 1);
        // Heap still serves huge allocations afterwards.
        cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
        ASSERT_NE(p, 0u);
        rig.alloc.deallocate(*t, p);
        rig.alloc.cleanup(*t);
    }
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, HugeFreeRedoLeavesTheReusedDescriptorAlone)
{
    // The freer dies idle after its free, its record still HugeFree. The
    // owner's cleanup reclaims the descriptor, and its next allocation
    // takes the same descriptor and range back. The freer's redo must see
    // that the descriptor now holds another allocation.
    Rig rig;
    auto owner = rig.thread();
    auto freer = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*owner, 1 << 20);
    ASSERT_NE(p, 0u);
    rig.alloc.deallocate(*freer, p);
    cxl::ThreadId dead = freer->tid();
    rig.pod.mark_crashed(std::move(freer));
    rig.alloc.cleanup(*owner);
    cxl::HeapOffset q = rig.alloc.allocate(*owner, 1 << 20);
    ASSERT_EQ(q, p) << "the allocation did not reuse the range";
    freer = rig.pod.adopt_thread(rig.process, dead);
    rig.alloc.recover(*freer);
    EXPECT_EQ(rig.alloc.stats(owner->mem()).huge.live_allocations, 1u);
    rig.alloc.deallocate(*owner, q);
    rig.alloc.cleanup(*owner);
    rig.alloc.check_invariants(owner->mem());
    rig.pod.release_thread(std::move(owner));
    rig.pod.release_thread(std::move(freer));
}

TEST(CrashRecovery, CrashDuringHugeFreeCompletesFree)
{
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset p = rig.alloc.allocate(*t, 1 << 20);
    bool crashed = crash_and_recover(
        rig, t, [&](pod::ThreadContext& c) { rig.alloc.deallocate(c, p); },
        kMidHugeFree);
    EXPECT_TRUE(crashed);
    EXPECT_EQ(rig.alloc.stats(t->mem()).huge.live_allocations, 0u);
    rig.alloc.cleanup(*t);
    // The address space is reusable.
    cxl::HeapOffset q = rig.alloc.allocate(*t, 1 << 20);
    ASSERT_NE(q, 0u);
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, LiveThreadsNeverBlockOnCrashedThread)
{
    // The paper's core liveness claim (§3.4.1): a thread crashing inside
    // an allocator operation must not block other live threads.
    Rig rig;
    auto victim = rig.thread();
    auto live = rig.thread();
    // Crash the victim mid-operation and do NOT recover it.
    victim->arm_crash(kAfterRecord, 1);
    try {
        rig.alloc.allocate(*victim, 64);
    } catch (const ThreadCrashed&) {
    }
    rig.pod.mark_crashed(std::move(victim));
    // The live thread allocates and frees at will.
    std::vector<cxl::HeapOffset> ptrs;
    for (int i = 0; i < 1000; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*live, 8 + (i % 1000));
        ASSERT_NE(p, 0u);
        ptrs.push_back(p);
    }
    for (auto p : ptrs) {
        rig.alloc.deallocate(*live, p);
    }
    rig.alloc.check_invariants(live->mem());
    rig.pod.release_thread(std::move(live));
}

TEST(CrashRecovery, BlackBoxRandomCrashes)
{
    // Black-box testing (paper §5.1): crash at random points during a
    // random workload, recover, and check invariants after every crash.
    Rig rig;
    cxlcommon::Xoshiro rng(2026);
    auto t = rig.thread();
    std::vector<cxl::HeapOffset> live;
    int crashes = 0;
    for (int i = 0; i < 8000; i++) {
        t->arm_random_crash(rng.next(), 0.002);
        bool freeing = rng.next_below(3) == 0 && !live.empty();
        std::size_t pick = freeing ? rng.next_below(live.size()) : 0;
        try {
            if (!freeing) {
                std::uint64_t size = 8 + rng.next_below(2040);
                cxl::HeapOffset p = rig.alloc.allocate(*t, size);
                if (p != 0) {
                    live.push_back(p);
                }
            } else {
                rig.alloc.deallocate(*t, live[pick]);
                live[pick] = live.back();
                live.pop_back();
            }
            t->disarm_crash();
        } catch (const ThreadCrashed&) {
            crashes++;
            cxl::ThreadId tid = t->tid();
            rig.pod.mark_crashed(std::move(t));
            t = rig.pod.adopt_thread(rig.process, tid);
            rig.alloc.recover(*t);
            rig.alloc.check_invariants(t->mem());
            // Semantics after recovery: an interrupted allocation leaks at
            // most its in-flight block (never entered `live`); an
            // interrupted free is COMPLETED by recovery, so the offset
            // must leave `live` exactly as if the call had returned.
            if (freeing) {
                live[pick] = live.back();
                live.pop_back();
            }
        }
    }
    EXPECT_GT(crashes, 3) << "crash probability too low to be meaningful";
    for (auto p : live) {
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, NonrecoverableVariantSkipsLogging)
{
    RigOptions opt;
    opt.recoverable = false;
    Rig rig(opt);
    auto t = rig.thread();
    std::uint64_t flushes_before = t->mem().counters().flushes;
    for (int i = 0; i < 100; i++) {
        rig.alloc.deallocate(*t, rig.alloc.allocate(*t, 64));
    }
    std::uint64_t flushes = t->mem().counters().flushes - flushes_before;
    // Without recovery records there is no per-op flush on the fast path.
    EXPECT_LT(flushes, 20u);
    rig.pod.release_thread(std::move(t));
}

TEST(CrashRecovery, RecoverableOverheadIsPerOpRecord)
{
    Rig rig;
    auto t = rig.thread();
    // Warm up so the steady state is pure fast path.
    for (int i = 0; i < 10; i++) {
        rig.alloc.deallocate(*t, rig.alloc.allocate(*t, 64));
    }
    std::uint64_t flushes_before = t->mem().counters().flushes;
    for (int i = 0; i < 100; i++) {
        rig.alloc.deallocate(*t, rig.alloc.allocate(*t, 64));
    }
    std::uint64_t flushes = t->mem().counters().flushes - flushes_before;
    // The record is a plain 8-byte store on the fast path; its write-back
    // is deferred to the next publication fence (RecoveryLog::log_local),
    // so recoverable steady state now costs ZERO flushes — identical to
    // the nonrecoverable ablation above. The remaining overhead is the
    // store itself.
    EXPECT_EQ(flushes, 0u);
    rig.pod.release_thread(std::move(t));
}

} // namespace
