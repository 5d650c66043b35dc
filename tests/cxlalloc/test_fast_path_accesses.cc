/// @file
/// The slab heaps' fast paths touch each descriptor word once (layout.h,
/// DescField): exact load/store/flush/fence counts for a warm allocation,
/// a local free into a sized slab and a local free that relinks a
/// Detached slab, in the small and the large heap. A detach writes
/// nothing back (the owner's pin keeps the slab its own); a trim's push to
/// the global list writes back exactly the descriptor lines stored since
/// the slab's Init. Then the crash side of
/// the merged stores: registry crash sweeps at the points around them and
/// deaths between the bitset store and the count-word store all recover to
/// a clean audit (free counter == popcount) with a conservative scan hint.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "cxlalloc/size_class.h"
#include "fixture.h"

namespace {

using cxltest::Rig;
using pod::ThreadCrashed;

/// One slab heap: a block size that lands in it.
struct HeapCase {
    const char* name;
    std::uint64_t size;
};

/// Prints the block size, not gtest's byte dump: the dump holds @c name's
/// address, which moves with ASLR, and would change the listed test names
/// (the ctest names) from one build to the next.
void
PrintTo(const HeapCase& h, std::ostream* os)
{
    *os << h.size << " B";
}

bool
is_large(const HeapCase& h)
{
    return h.size > cxlalloc::kSmallMax;
}

/// Blocks per slab of @p h's class.
std::uint64_t
blocks_per_slab(const HeapCase& h)
{
    return is_large(h) ? cxlalloc::large_blocks_per_slab(
                             cxlalloc::large_class_for(h.size))
                       : cxlalloc::small_blocks_per_slab(
                             cxlalloc::small_class_for(h.size));
}

std::uint32_t
slab_of(Rig& rig, const HeapCase& h, cxl::HeapOffset p)
{
    const cxlalloc::Layout& l = rig.alloc.layout();
    return static_cast<std::uint32_t>(
        is_large(h) ? (p - l.large_data()) / cxlalloc::kLargeSlabSize
                    : (p - l.small_data()) / cxlalloc::kSmallSlabSize);
}

cxl::HeapOffset
desc_of(Rig& rig, const HeapCase& h, std::uint32_t slab)
{
    const cxlalloc::Layout& l = rig.alloc.layout();
    return is_large(h) ? l.large_swcc_desc(slab) : l.small_swcc_desc(slab);
}

/// Lines of a descriptor from its first line through the last bitset word
/// of @p h's class: the owner, count and link words share line 0.
std::uint64_t
used_desc_lines(const HeapCase& h)
{
    std::uint64_t words = (blocks_per_slab(h) + 63) / 64;
    return (cxlalloc::DescField::kBitset + words * 8 - 1) / 64 + 1;
}

/// Session accesses one operation made.
struct Accesses {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t flushes = 0;
    std::uint64_t fences = 0;
    std::uint64_t flushed_lines = 0;
};

/// Follows the calling thread's hook events (installed for its lifetime):
/// the lines stored since their last flush, and which of them each
/// flush_dirty() request found dirty.
class DirtyLines : public sched::Listener {
  public:
    DirtyLines() { sched::t_listener = this; }
    ~DirtyLines() override { sched::t_listener = nullptr; }

    void
    on_event(const sched::Event& e) override
    {
        std::uint64_t first = cxlcommon::line_of(e.addr);
        std::uint64_t end = e.addr + e.aux;
        switch (e.op) {
          case sched::Op::Store:
          case sched::Op::WriteBytes:
            for (std::uint64_t l = first; l < end; l += 64) {
                dirty_.insert(l);
            }
            break;
          case sched::Op::Flush:
            for (std::uint64_t l = first; l < end; l += 64) {
                dirty_.erase(l);
            }
            break;
          case sched::Op::FlushDirty:
            requested_at_ = e.addr;
            requested_.assign(dirty_.lower_bound(first),
                              dirty_.lower_bound(end));
            break;
          default:
            break;
        }
    }

    /// Start of the last flush_dirty() request.
    cxl::HeapOffset requested_at() const { return requested_at_; }

    /// Dirty lines inside the last flush_dirty() request, ascending.
    const std::vector<std::uint64_t>& requested() const { return requested_; }

    /// Contiguous runs among requested(): one flush each.
    std::uint64_t
    requested_runs() const
    {
        std::uint64_t runs = 0;
        for (std::size_t i = 0; i < requested_.size(); i++) {
            runs += i == 0 || requested_[i] != requested_[i - 1] + 64;
        }
        return runs;
    }

  private:
    std::set<std::uint64_t> dirty_;
    cxl::HeapOffset requested_at_ = 0;
    std::vector<std::uint64_t> requested_;
};

/// flush_desc's write-back of @p dirty's last request over the descriptor
/// at @p desc: one flush per dirty run plus the deferred record row's
/// one-line flush, then one fence.
void
expect_desc_writeback(const Accesses& a, const DirtyLines& dirty,
                      cxl::HeapOffset desc)
{
    EXPECT_EQ(dirty.requested_at(), desc);
    EXPECT_EQ(a.flushes, dirty.requested_runs() + 1);
    EXPECT_EQ(a.flushed_lines, dirty.requested().size() + 1);
    EXPECT_EQ(a.fences, 1u);
}

/// CXL_PARANOID_ASSERT cross-checks the counter against a bitset rescan
/// on the fast paths, which adds loads (only): exact load counts hold only
/// without it.
#if defined(CXLALLOC_PARANOID_CHECKS)
constexpr bool kExactLoads = false;
#else
constexpr bool kExactLoads = true;
#endif

/// @p a made exactly @p loads loads and @p stores stores, and no flush or
/// fence.
void
expect_accesses(const Accesses& a, std::uint64_t loads, std::uint64_t stores)
{
    if (kExactLoads) {
        EXPECT_EQ(a.loads, loads);
    }
    EXPECT_EQ(a.stores, stores);
    EXPECT_EQ(a.flushes, 0u);
    EXPECT_EQ(a.fences, 0u);
}

template <typename Op>
Accesses
measure(cxl::MemSession& mem, Op op)
{
    cxl::MemEventCounters before = mem.counters();
    op();
    const cxl::MemEventCounters& after = mem.counters();
    return Accesses{after.loads - before.loads, after.stores - before.stores,
                    after.flushes - before.flushes,
                    after.fences - before.fences,
                    after.flushed_lines - before.flushed_lines};
}

class FastPathAccesses : public ::testing::TestWithParam<HeapCase> {};

TEST_P(FastPathAccesses, WarmAllocation)
{
    // Loads: sized-list head, count word, the bitset word the scan stops
    // at. Stores: record, that bitset word, count word (hint + counter).
    const HeapCase& h = GetParam();
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset first = rig.alloc.allocate(*t, h.size);
    ASSERT_NE(first, 0u);
    cxl::HeapOffset p = 0;
    Accesses a = measure(t->mem(), [&] { p = rig.alloc.allocate(*t, h.size); });
    ASSERT_EQ(slab_of(rig, h, p), slab_of(rig, h, first));
    expect_accesses(a, 3, 3);
    rig.pod.release_thread(std::move(t));
}

TEST_P(FastPathAccesses, LocalFreeIntoSizedSlab)
{
    // Loads: owner word (owner, class, state), the bitset word (the
    // double-free test's load feeds the set), count word. Stores: record,
    // bitset word, count word.
    const HeapCase& h = GetParam();
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset a = rig.alloc.allocate(*t, h.size);
    cxl::HeapOffset b = rig.alloc.allocate(*t, h.size);
    ASSERT_EQ(slab_of(rig, h, a), slab_of(rig, h, b));
    Accesses acc = measure(t->mem(), [&] { rig.alloc.deallocate(*t, a); });
    expect_accesses(acc, 3, 3);

    // Emptying the class's only slab adds the shares-class test's next and
    // prev loads, and keeps the slab warm (the alloc/free pair's free).
    acc = measure(t->mem(), [&] { rig.alloc.deallocate(*t, b); });
    expect_accesses(acc, 5, 3);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST_P(FastPathAccesses, LocalFreeIntoDetachedSlabRelinks)
{
    // Fill one slab (its last allocation detaches it), start a second one,
    // then free into the first: the relink appends it behind the second.
    // Loads: owner word, bitset word, count word, list head, the head's
    // tail word. Stores: record, bitset word, count word, the slab's next
    // and prev, the tail's next, the head's tail word, one owner-word
    // store (TlSized).
    const HeapCase& h = GetParam();
    Rig rig;
    auto t = rig.thread();
    std::vector<cxl::HeapOffset> full;
    for (std::uint64_t i = 0; i < blocks_per_slab(h); i++) {
        full.push_back(rig.alloc.allocate(*t, h.size));
        ASSERT_EQ(slab_of(rig, h, full.back()), slab_of(rig, h, full[0]));
    }
    cxl::HeapOffset next = rig.alloc.allocate(*t, h.size);
    ASSERT_NE(slab_of(rig, h, next), slab_of(rig, h, full[0]));
    Accesses acc =
        measure(t->mem(), [&] { rig.alloc.deallocate(*t, full[0]); });
    expect_accesses(acc, 5, 8);
    rig.alloc.check_invariants(t->mem());

    // The relinked slab sits behind the second: allocation keeps taking
    // the second slab's blocks.
    cxl::HeapOffset again = rig.alloc.allocate(*t, h.size);
    EXPECT_EQ(slab_of(rig, h, again), slab_of(rig, h, next));
    rig.pod.release_thread(std::move(t));
}

TEST_P(FastPathAccesses, DetachWritesBackNothing)
{
    // The allocation that fills a fresh slab detaches it: the owner's pin
    // in the remote-free counter keeps every other thread from taking the
    // slab, so the detach only unlinks it and stores its owner word. No
    // line is written back and no fence runs; the Detach record stays
    // deferred, like Alloc's.
    const HeapCase& h = GetParam();
    Rig rig;
    auto t = rig.thread();
    cxl::HeapOffset first = rig.alloc.allocate(*t, h.size);
    for (std::uint64_t i = 2; i < blocks_per_slab(h); i++) {
        ASSERT_EQ(slab_of(rig, h, rig.alloc.allocate(*t, h.size)),
                  slab_of(rig, h, first));
    }
    cxl::HeapOffset last = 0;
    Accesses acc =
        measure(t->mem(), [&] { last = rig.alloc.allocate(*t, h.size); });
    ASSERT_EQ(slab_of(rig, h, last), slab_of(rig, h, first));
    EXPECT_EQ(acc.flushed_lines, 0u);
    EXPECT_EQ(acc.flushes, 0u);
    EXPECT_EQ(acc.fences, 0u);
    EXPECT_EQ(rig.alloc.pending_record(*t).op, cxlalloc::Op::Detach);
    cxlalloc::SlabHeap& heap =
        is_large(h) ? rig.alloc.large_heap() : rig.alloc.small_heap();
    EXPECT_EQ(heap.debug_owner(t->mem(), slab_of(rig, h, first)), t->tid());
    rig.pod.release_thread(std::move(t));
}

TEST_P(FastPathAccesses, TrimWritesBackOnlyItsDirtyDescriptorLines)
{
    // With no unsized slab kept, the local free that empties a slab sharing
    // its class with another pushes it to the global list. Nothing wrote
    // the descriptor back since Init's owner-word line: it took every
    // block's bitset word (allocated, then freed), the count and link
    // words, and the detach. push_global_one writes back exactly those
    // lines.
    const HeapCase& h = GetParam();
    cxltest::RigOptions opt;
    opt.unsized_limit = 0;
    Rig rig(opt);
    auto t = rig.thread();
    DirtyLines dirty;
    std::vector<cxl::HeapOffset> full;
    for (std::uint64_t i = 0; i < blocks_per_slab(h); i++) {
        full.push_back(rig.alloc.allocate(*t, h.size));
        ASSERT_EQ(slab_of(rig, h, full.back()), slab_of(rig, h, full[0]));
    }
    cxl::HeapOffset next = rig.alloc.allocate(*t, h.size);
    ASSERT_NE(slab_of(rig, h, next), slab_of(rig, h, full[0]));
    for (std::size_t i = 0; i + 1 < full.size(); i++) {
        rig.alloc.deallocate(*t, full[i]);
    }
    Accesses acc =
        measure(t->mem(), [&] { rig.alloc.deallocate(*t, full.back()); });
    expect_desc_writeback(acc, dirty,
                          desc_of(rig, h, slab_of(rig, h, full[0])));
    EXPECT_EQ(dirty.requested().size(), used_desc_lines(h));
    EXPECT_EQ(dirty.requested_runs(), 1u);
    cxlalloc::CxlAllocator::Stats stats = rig.alloc.stats(t->mem());
    EXPECT_EQ((is_large(h) ? stats.large : stats.small).global_free, 1u);
    rig.pod.release_thread(std::move(t));
}

INSTANTIATE_TEST_SUITE_P(
    Heaps, FastPathAccesses,
    ::testing::Values(HeapCase{"small", 64}, HeapCase{"large", 4096}),
    [](const ::testing::TestParamInfo<HeapCase>& info) {
        return std::string(info.param.name);
    });

/// No set bit below any classed slab's scan hint, in either slab heap.
void
expect_hints_conservative(Rig& rig, cxl::MemSession& mem)
{
    const cxlalloc::Layout& l = rig.alloc.layout();
    cxlalloc::CxlAllocator::Stats stats = rig.alloc.stats(mem);
    for (bool large : {false, true}) {
        cxlalloc::SlabHeap& heap =
            large ? rig.alloc.large_heap() : rig.alloc.small_heap();
        std::uint32_t len = large ? stats.large.length : stats.small.length;
        for (std::uint32_t slab = 0; slab < len; slab++) {
            std::uint8_t biased = heap.debug_class_biased(mem, slab);
            if (biased == 0) {
                continue; // classless bitsets are stale by design
            }
            cxl::HeapOffset d =
                large ? l.large_swcc_desc(slab) : l.small_swcc_desc(slab);
            std::uint64_t blocks =
                large ? cxlalloc::large_blocks_per_slab(biased - 1u)
                      : cxlalloc::small_blocks_per_slab(biased - 1u);
            auto hint = mem.load<std::uint16_t>(d + cxlalloc::DescField::kHint);
            ASSERT_LE(hint, (blocks + 63) / 64) << "slab " << slab;
            for (std::uint32_t w = 0; w < hint; w++) {
                EXPECT_EQ(mem.load<std::uint64_t>(
                              d + cxlalloc::DescField::kBitset + w * 8),
                          0u)
                    << (large ? "large" : "small") << " slab " << slab
                    << ": free block below hint word " << hint;
            }
        }
    }
}

void
expect_clean(Rig& rig, cxl::MemSession& mem)
{
    cxlalloc::AuditReport audit = rig.alloc.audit(mem);
    EXPECT_TRUE(audit.ok()) << audit.to_string();
    expect_hints_conservative(rig, mem);
}

/// Recovers the crashed slot of @p t in place.
void
crash_and_recover(Rig& rig, std::unique_ptr<pod::ThreadContext>& t)
{
    cxl::ThreadId tid = t->tid();
    rig.pod.mark_crashed(std::move(t));
    t = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t);
}

class FastPathCrash : public ::testing::TestWithParam<int> {};

TEST_P(FastPathCrash, SweepEndsInCleanAudit)
{
    // A local alloc/free mix over both slab heaps warms up unarmed (so
    // scan hints have moved and frees have landed below them), then
    // crashes at the countdown-th hit of one point; every countdown must
    // fire and recover clean.
    const int point = GetParam();
    constexpr int kWarmSteps = 1500;
    for (std::uint32_t countdown = 1; countdown <= 64; countdown += 3) {
        Rig rig;
        auto t = rig.thread();
        cxlcommon::Xoshiro rng(countdown);
        std::vector<cxl::HeapOffset> live;
        bool crashed = false;
        try {
            for (int i = 0; i < kWarmSteps + 600; i++) {
                if (i == kWarmSteps) {
                    expect_clean(rig, t->mem());
                    t->arm_crash(point, countdown);
                }
                if (rng.next_below(3) != 0 || live.empty()) {
                    // Few classes, so slabs fill past their first bitset
                    // word and the scan hint moves.
                    std::uint64_t size =
                        rng.next_below(4) != 0 ? 8u << rng.next_below(4)
                                               : 2048u << rng.next_below(3);
                    cxl::HeapOffset p = rig.alloc.allocate(*t, size);
                    if (p != 0) {
                        live.push_back(p);
                    }
                } else {
                    std::size_t pick = rng.next_below(live.size());
                    rig.alloc.deallocate(*t, live[pick]);
                    live[pick] = live.back();
                    live.pop_back();
                }
            }
        } catch (const ThreadCrashed&) {
            crashed = true;
            crash_and_recover(rig, t);
        }
        ASSERT_TRUE(crashed) << "countdown " << countdown << " never fired";
        expect_clean(rig, t->mem());
        for (int i = 0; i < 40; i++) {
            cxl::HeapOffset p = rig.alloc.allocate(*t, i % 2 ? 64 : 4096);
            ASSERT_NE(p, 0u);
            rig.alloc.deallocate(*t, p);
        }
        expect_clean(rig, t->mem());
        rig.pod.release_thread(std::move(t));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Points, FastPathCrash,
    ::testing::Values(cxlalloc::crashpoint::kAfterRecord,
                      cxlalloc::crashpoint::kMidAlloc,
                      cxlalloc::crashpoint::kMidFreeLocal),
    [](const ::testing::TestParamInfo<int>& info) {
        switch (info.param) {
          case cxlalloc::crashpoint::kAfterRecord:
            return std::string("AfterRecord");
          case cxlalloc::crashpoint::kMidAlloc:
            return std::string("MidAlloc");
          default:
            return std::string("MidFreeLocal");
        }
    });

class CountWordDeath : public ::testing::TestWithParam<HeapCase> {};

TEST_P(CountWordDeath, BetweenBitsetAndCountStoresRecoversClean)
{
    // No crash point lies between the bitset store and the count-word
    // store; die there by hand, in an allocation and in a local free.
    const HeapCase& h = GetParam();
    for (bool in_free : {false, true}) {
        Rig rig;
        auto t = rig.thread();
        cxl::HeapOffset a = rig.alloc.allocate(*t, h.size);
        cxl::HeapOffset b = rig.alloc.allocate(*t, h.size);
        ASSERT_EQ(slab_of(rig, h, a), slab_of(rig, h, b));
        const cxlalloc::Layout& l = rig.alloc.layout();
        std::uint32_t slab = slab_of(rig, h, a);
        cxl::HeapOffset count_word =
            (is_large(h) ? l.large_swcc_desc(slab) : l.small_swcc_desc(slab)) +
            cxlalloc::DescField::kCountWord;
        cxltest::FireOnce die(
            [count_word](const sched::Event& e) {
                return e.op == sched::Op::Store && e.addr == count_word;
            },
            [] { throw ThreadCrashed{-1}; });
        sched::t_listener = &die;
        if (in_free) {
            EXPECT_THROW(rig.alloc.deallocate(*t, a), ThreadCrashed);
        } else {
            EXPECT_THROW(rig.alloc.allocate(*t, h.size), ThreadCrashed);
        }
        sched::t_listener = nullptr;
        ASSERT_TRUE(die.fired());
        crash_and_recover(rig, t);
        expect_clean(rig, t->mem());
        // The free was completed by its redo; the allocation's block stays
        // allocated (the application never saw it).
        cxlalloc::AuditReport audit = rig.alloc.audit(t->mem());
        EXPECT_EQ(audit.live_blocks, in_free ? 1u : 3u);
        for (int i = 0; i < 8; i++) {
            ASSERT_NE(rig.alloc.allocate(*t, h.size), 0u);
        }
        expect_clean(rig, t->mem());
        rig.pod.release_thread(std::move(t));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Heaps, CountWordDeath,
    ::testing::Values(HeapCase{"small", 64}, HeapCase{"large", 4096}),
    [](const ::testing::TestParamInfo<HeapCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
