/// Property-style sweeps over the allocator: every size class, every
/// coherence mode, data integrity under churn, and boundary conditions.

#include <gtest/gtest.h>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "fixture.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;

// ---- Size sweep: one test per interesting size -------------------------

class SizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SizeSweep, AllocWriteReadFree)
{
    Rig rig;
    auto t = rig.thread();
    std::uint64_t size = GetParam();
    cxl::HeapOffset p = rig.alloc.allocate(*t, size);
    ASSERT_NE(p, 0u) << "size " << size;
    // The whole extent must be writable and must not alias any sibling.
    std::byte* data = rig.alloc.pointer(*t, p, size);
    std::memset(data, 0x5c, size);
    cxl::HeapOffset q = rig.alloc.allocate(*t, size);
    if (q != 0) {
        std::byte* other = rig.alloc.pointer(*t, q, size);
        std::memset(other, 0xa3, size);
        EXPECT_EQ(static_cast<unsigned char>(data[0]), 0x5c)
            << "allocations alias at size " << size;
        EXPECT_EQ(static_cast<unsigned char>(data[size - 1]), 0x5c);
        rig.alloc.deallocate(*t, q);
    }
    rig.alloc.deallocate(*t, p);
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SizeSweep,
    ::testing::Values(1, 7, 8, 9, 16, 24, 63, 64, 65, 100, 128, 255, 256,
                      500, 512, 960, 1023, 1024,        // small heap edge
                      1025, 1536, 2048, 4000, 8192,     // large heap
                      100 << 10, 256 << 10, (512 << 10) - 1,
                      512 << 10,                        // large heap edge
                      (512 << 10) + 1, 600 << 10, 1 << 20,
                      2 << 20));                        // huge heap

// ---- Every size class exactly ------------------------------------------

TEST(ClassSweep, EverySmallClassRoundTrips)
{
    Rig rig;
    auto t = rig.thread();
    for (std::uint32_t cls = 0; cls < cxlalloc::kNumSmallClasses; cls++) {
        std::uint64_t size = cxlalloc::small_class_size(cls);
        cxl::HeapOffset p = rig.alloc.allocate(*t, size);
        ASSERT_NE(p, 0u);
        EXPECT_TRUE(rig.alloc.layout().in_small_data(p));
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(ClassSweep, EveryLargeClassRoundTrips)
{
    Rig rig;
    auto t = rig.thread();
    for (std::uint32_t cls = 0; cls < cxlalloc::kNumLargeClasses; cls++) {
        std::uint64_t size = cxlalloc::large_class_size(cls);
        cxl::HeapOffset p = rig.alloc.allocate(*t, size);
        ASSERT_NE(p, 0u) << "class " << cls;
        EXPECT_TRUE(rig.alloc.layout().in_large_data(p));
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

// ---- Mode matrix: churn under every coherence/recoverability setting ----

class ModeMatrix
    : public ::testing::TestWithParam<std::tuple<cxl::CoherenceMode, bool,
                                                 bool>> {};

TEST_P(ModeMatrix, ChurnStaysConsistent)
{
    RigOptions opt;
    opt.mode = std::get<0>(GetParam());
    opt.simulate_cache = std::get<1>(GetParam());
    opt.recoverable = std::get<2>(GetParam());
    Rig rig(opt);
    auto t = rig.thread();
    cxlcommon::Xoshiro rng(11);
    std::vector<std::pair<cxl::HeapOffset, std::uint64_t>> live;
    for (int i = 0; i < 3000; i++) {
        if (rng.next_below(3) != 0 || live.empty()) {
            std::uint64_t size = 8 + rng.next_below(4088);
            cxl::HeapOffset p = rig.alloc.allocate(*t, size);
            ASSERT_NE(p, 0u);
            // Stamp the first byte with a size-derived value.
            *rig.alloc.pointer(*t, p, 1) =
                static_cast<std::byte>(size & 0xff);
            live.emplace_back(p, size);
        } else {
            std::size_t pick = rng.next_below(live.size());
            auto [p, size] = live[pick];
            EXPECT_EQ(*rig.alloc.pointer(*t, p, 1),
                      static_cast<std::byte>(size & 0xff))
                << "payload corrupted";
            rig.alloc.deallocate(*t, p);
            live[pick] = live.back();
            live.pop_back();
        }
    }
    for (auto [p, size] : live) {
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeMatrix,
    ::testing::Combine(::testing::Values(cxl::CoherenceMode::FullHwcc,
                                         cxl::CoherenceMode::PartialHwcc,
                                         cxl::CoherenceMode::NoHwcc),
                       ::testing::Bool(),   // simulate_cache
                       ::testing::Bool())); // recoverable

// ---- Boundary + misc properties ----------------------------------------

TEST(AllocProperties, SmallLargeHugeRoutingBoundaries)
{
    Rig rig;
    auto t = rig.thread();
    const auto& layout = rig.alloc.layout();
    cxl::HeapOffset a = rig.alloc.allocate(*t, 1024);
    cxl::HeapOffset b = rig.alloc.allocate(*t, 1025);
    cxl::HeapOffset c = rig.alloc.allocate(*t, 512 << 10);
    cxl::HeapOffset d = rig.alloc.allocate(*t, (512 << 10) + 1);
    EXPECT_TRUE(layout.in_small_data(a));
    EXPECT_TRUE(layout.in_large_data(b));
    EXPECT_TRUE(layout.in_large_data(c));
    EXPECT_TRUE(layout.in_huge_data(d));
    for (auto p : {a, b, c, d}) {
        rig.alloc.deallocate(*t, p);
    }
    rig.pod.release_thread(std::move(t));
}

TEST(AllocProperties, OffsetsNeverNullAndInsideDevice)
{
    Rig rig;
    auto t = rig.thread();
    cxlcommon::Xoshiro rng(3);
    for (int i = 0; i < 500; i++) {
        std::uint64_t size = 8 + rng.next_below(2040);
        cxl::HeapOffset p = rig.alloc.allocate(*t, size);
        ASSERT_NE(p, 0u);
        EXPECT_LT(p + size, rig.pod.device().size());
        rig.alloc.deallocate(*t, p);
    }
    rig.pod.release_thread(std::move(t));
}

TEST(AllocProperties, HwccFootprintIsConstantUnderLoad)
{
    // §3.2: HWcc consumption depends only on heap geometry, never on the
    // workload.
    Rig rig;
    auto t = rig.thread();
    std::uint64_t before = rig.alloc.stats(t->mem()).hwcc_bytes;
    std::vector<cxl::HeapOffset> live;
    for (int i = 0; i < 3000; i++) {
        live.push_back(rig.alloc.allocate(*t, 64 + (i % 960)));
    }
    EXPECT_EQ(rig.alloc.stats(t->mem()).hwcc_bytes, before);
    for (auto p : live) {
        rig.alloc.deallocate(*t, p);
    }
    rig.pod.release_thread(std::move(t));
}

TEST(AllocProperties, CommittedBytesTrackHeapGrowthNotChurn)
{
    Rig rig;
    auto t = rig.thread();
    for (int i = 0; i < 100; i++) {
        rig.alloc.deallocate(*t, rig.alloc.allocate(*t, 64));
    }
    std::uint64_t after_warm = rig.pod.device().committed_bytes();
    for (int i = 0; i < 10000; i++) {
        rig.alloc.deallocate(*t, rig.alloc.allocate(*t, 64));
    }
    EXPECT_EQ(rig.pod.device().committed_bytes(), after_warm)
        << "steady-state churn must not commit new memory";
    rig.pod.release_thread(std::move(t));
}

TEST(AllocProperties, ManyThreadSlotsSequentially)
{
    // Exercise thread-slot reuse across the whole slot space.
    Rig rig;
    for (int round = 0; round < 3; round++) {
        std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
        for (int i = 0; i < 16; i++) {
            ctxs.push_back(rig.thread());
            cxl::HeapOffset p = rig.alloc.allocate(*ctxs.back(), 128);
            ASSERT_NE(p, 0u);
            rig.alloc.deallocate(*ctxs.back(), p);
        }
        for (auto& c : ctxs) {
            rig.pod.release_thread(std::move(c));
        }
    }
}

TEST(AllocProperties, InterleavedSizeClassesShareSlabsCorrectly)
{
    // Alternating classes must land in distinct slabs with no cross-talk.
    Rig rig;
    auto t = rig.thread();
    std::vector<cxl::HeapOffset> small8;
    std::vector<cxl::HeapOffset> big512;
    for (int i = 0; i < 200; i++) {
        small8.push_back(rig.alloc.allocate(*t, 8));
        big512.push_back(rig.alloc.allocate(*t, 512));
    }
    auto slab_of = [&](cxl::HeapOffset p) {
        return (p - rig.alloc.layout().small_data()) / (32 << 10);
    };
    for (auto a : small8) {
        for (auto b : big512) {
            EXPECT_NE(slab_of(a), slab_of(b))
                << "different classes in one slab";
            break; // one cross-check per element is enough
        }
    }
    for (auto p : small8) {
        rig.alloc.deallocate(*t, p);
    }
    for (auto p : big512) {
        rig.alloc.deallocate(*t, p);
    }
    rig.alloc.check_invariants(t->mem());
    rig.pod.release_thread(std::move(t));
}

} // namespace
