/// @file
/// Tier-split unit tests for PodShardedAllocator::pick_dram: exact split
/// ratios, deterministic tie handling, and the closed form behind them.
/// The split is a stride schedule kept in one signed credit per thread —
/// a DRAM ticket and a CXL ticket with their common factor removed
/// (credit = p * draws - 100 * dram picks) — so it is bounded by
/// construction: nothing to renormalize, nothing to overflow.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "cxlalloc/pod_shard.h"

namespace {

using cxlalloc::PodShardedAllocator;

/// One thread's split at a fixed percentage.
struct Split {
    explicit Split(std::uint32_t pct) : pct(pct) {}

    bool next() { return PodShardedAllocator::pick_dram(credit, pct); }

    std::uint32_t pct;
    std::int32_t credit = 0;
};

std::uint32_t
count_dram(Split& s, std::uint32_t draws)
{
    std::uint32_t dram = 0;
    for (std::uint32_t i = 0; i < draws; i++) {
        if (s.next()) {
            dram++;
        }
    }
    return dram;
}

TEST(Stride, ZeroPercentNeverPicksDram)
{
    Split s(0);
    EXPECT_EQ(count_dram(s, 1000), 0u);
    // Degenerate percentages clamp to the endpoints.
    Split over(200);
    EXPECT_EQ(count_dram(over, 1000), 1000u);
}

TEST(Stride, HundredPercentAlwaysPicksDram)
{
    Split s(100);
    EXPECT_EQ(count_dram(s, 1000), 1000u);
}

TEST(Stride, SplitIsExactOverWholePeriods)
{
    // 1000 draws is a whole number of stride periods for each of these
    // percentages, so the split is exact, not approximate.
    for (std::uint32_t pct : {10u, 20u, 25u, 50u, 75u, 90u}) {
        Split s(pct);
        EXPECT_EQ(count_dram(s, 1000), pct * 10) << "pct=" << pct;
    }
}

TEST(Stride, EverySlidingWindowStaysNearTheTarget)
{
    // The stride property: any window of one period length contains
    // exactly the target count +/- 1, not just the long-run average.
    Split s(25); // period 4: one DRAM pick per 4 draws
    std::vector<bool> picks;
    for (int i = 0; i < 400; i++) {
        picks.push_back(s.next());
    }
    for (std::size_t start = 0; start + 4 <= picks.size(); start++) {
        int dram = 0;
        for (std::size_t i = start; i < start + 4; i++) {
            dram += picks[i] ? 1 : 0;
        }
        EXPECT_GE(dram, 0);
        EXPECT_LE(dram, 2) << "window at " << start;
    }
}

TEST(Stride, TieBreaksToDram)
{
    Split s(50);
    // A zero credit (the initial state, and every other step at 50%) goes
    // to DRAM first, then the picks strictly alternate.
    for (int i = 0; i < 100; i++) {
        EXPECT_TRUE(s.next()) << "step " << i;
        EXPECT_FALSE(s.next()) << "step " << i;
    }
}

TEST(Stride, DramCountFollowsTheClosedForm)
{
    // After n draws at p%, exactly floor((n - 1) * p / 100) + 1 went to
    // DRAM (none at p = 0), and the credit never leaves (-100, 100).
    constexpr std::uint64_t kDraws = 1000000;
    for (std::uint32_t p = 0; p <= 100; p++) {
        std::int32_t credit = 0;
        std::uint64_t dram = 0;
        for (std::uint64_t n = 1; n <= kDraws; n++) {
            if (PodShardedAllocator::pick_dram(credit, p)) {
                dram++;
            }
            std::uint64_t want = p == 0 ? 0 : (n - 1) * p / 100 + 1;
            if (dram != want || std::abs(credit) >= 100) {
                FAIL() << "p=" << p << " n=" << n << ": " << dram
                       << " DRAM picks, want " << want << "; credit "
                       << credit;
            }
        }
    }
}

} // namespace
