#include "cxl/nmp.h"

#include <gtest/gtest.h>
#include <thread>
#include <vector>

namespace {

using cxl::CoherenceMode;
using cxl::Device;
using cxl::DeviceConfig;
using cxl::McasOperand;
using cxl::McasResult;
using cxl::Nmp;

class NmpTest : public ::testing::Test {
  protected:
    NmpTest()
        : dev_(DeviceConfig{.size = 1 << 20,
                            .mode = CoherenceMode::NoHwcc,
                            .sync_region_size = 64 << 10}),
          nmp_(&dev_)
    {
    }

    std::uint64_t
    word(std::uint64_t offset)
    {
        // Device-biased memory is uncachable; model the direct read with an
        // atomic load so the multithreaded test below is race-free.
        return std::atomic_ref<std::uint64_t>(
                   *reinterpret_cast<std::uint64_t*>(dev_.raw(offset)))
            .load(std::memory_order_acquire);
    }

    /// Phase 1 of the paper's pair (spwr): stage one operand. Conflict
    /// detection happens here, on arrival.
    void
    post(cxl::ThreadId tid, cxl::HeapOffset target, std::uint64_t expected,
         std::uint64_t swap)
    {
        ASSERT_TRUE(nmp_.spwr_post(
            tid, McasOperand{.target = target, .expected = expected,
                             .swap = swap}));
    }

    /// Phase 2 (sprd): doorbell the one-operand ring and harvest it.
    McasResult
    complete(cxl::ThreadId tid)
    {
        EXPECT_EQ(nmp_.doorbell(tid), 1u);
        McasResult r;
        EXPECT_TRUE(nmp_.poll(tid, &r));
        return r;
    }

    /// Both phases back to back.
    McasResult
    round_trip(cxl::ThreadId tid, cxl::HeapOffset target,
               std::uint64_t expected, std::uint64_t swap)
    {
        post(tid, target, expected, swap);
        return complete(tid);
    }

    Device dev_;
    Nmp nmp_;
};

TEST_F(NmpTest, SuccessfulSwapWritesMemory)
{
    McasResult r = round_trip(1, 128, 0, 42);
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(r.conflict);
    EXPECT_EQ(r.previous, 0u);
    EXPECT_EQ(word(128), 42u);
}

TEST_F(NmpTest, MismatchFailsAndReturnsPrevious)
{
    round_trip(1, 128, 0, 42);
    McasResult r = round_trip(2, 128, 0, 99);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.conflict);
    EXPECT_EQ(r.previous, 42u);
    EXPECT_EQ(word(128), 42u);
}

TEST_F(NmpTest, CompetingInFlightOpOnSameAddressFails)
{
    // Fig. 6(b): T1 posts first; T2's post to the same target while T1's
    // operand is in flight dooms T2's operation.
    post(1, 256, 0, 1);
    post(2, 256, 0, 2);
    McasResult r2 = complete(2);
    EXPECT_TRUE(r2.conflict);
    EXPECT_FALSE(r2.success);
    McasResult r1 = complete(1);
    EXPECT_TRUE(r1.success);
    EXPECT_EQ(word(256), 1u);
    EXPECT_EQ(nmp_.total_conflicts(), 1u);
}

TEST_F(NmpTest, DifferentAddressesDoNotConflict)
{
    post(1, 256, 0, 1);
    post(2, 512, 0, 2);
    EXPECT_TRUE(complete(2).success);
    EXPECT_TRUE(complete(1).success);
}

TEST_F(NmpTest, ConflictDoomsTheLaterArrival)
{
    // The first-in-flight op completes even if the competitor completes
    // first.
    post(1, 256, 0, 7);
    post(2, 256, 0, 8);
    McasResult r1 = complete(1);
    EXPECT_TRUE(r1.success);
    McasResult r2 = complete(2);
    EXPECT_TRUE(r2.conflict);
    EXPECT_EQ(word(256), 7u);
}

TEST_F(NmpTest, SerializedRetriesEventuallySucceed)
{
    // Software retries around conflicts: increment a counter from many
    // threads using only mCAS.
    constexpr int kThreads = 4;
    constexpr int kIncrements = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([this, t] {
            auto tid = static_cast<cxl::ThreadId>(t + 1);
            for (int i = 0; i < kIncrements; i++) {
                while (true) {
                    std::uint64_t cur = word(1024);
                    McasResult r = round_trip(tid, 1024, cur, cur + 1);
                    if (r.success) {
                        break;
                    }
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(word(1024), kThreads * kIncrements);
}

TEST_F(NmpTest, OpsAreCounted)
{
    round_trip(1, 128, 0, 1);
    round_trip(1, 128, 1, 2);
    EXPECT_EQ(nmp_.total_ops(), 2u);
}

// ---------------------------------------------------------------------------
// McasBackoff: bounded exponential waits with deterministic jitter

TEST(McasBackoff, NominalDoublesToTheCapAndJitterStaysBounded)
{
    cxl::McasBackoff backoff(/*seed=*/1);
    std::uint64_t nominal = cxl::McasBackoff::kBaseNs;
    for (int i = 0; i < 12; i++) {
        std::uint64_t ns = backoff.next_ns();
        // Each wait is nominal + jitter, jitter in [0, nominal/2).
        EXPECT_GE(ns, nominal);
        EXPECT_LT(ns, nominal + nominal / 2);
        EXPECT_LE(ns, cxl::McasBackoff::kMaxNs * 3 / 2);
        if (nominal < cxl::McasBackoff::kMaxNs) {
            nominal *= 2;
        }
    }
    // After enough calls the nominal is pinned at the cap.
    EXPECT_EQ(nominal, cxl::McasBackoff::kMaxNs);
}

TEST(McasBackoff, SameSeedSameWaitsDifferentSeedsDecorrelate)
{
    cxl::McasBackoff a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 16; i++) {
        std::uint64_t wa = a.next_ns();
        EXPECT_EQ(wa, b.next_ns()); // replay determinism
        diverged |= wa != c.next_ns();
    }
    // Two threads seeded differently must not back off in lock-step —
    // that re-collision is exactly what the jitter exists to break.
    EXPECT_TRUE(diverged);
}

TEST(McasBackoff, ResetRestoresTheScaleNotTheJitterSequence)
{
    cxl::McasBackoff backoff(7);
    std::uint64_t first = backoff.next_ns();
    for (int i = 0; i < 5; i++) {
        backoff.next_ns();
    }
    backoff.reset();
    std::uint64_t after_reset = backoff.next_ns();
    // Back to the base scale...
    EXPECT_GE(after_reset, cxl::McasBackoff::kBaseNs);
    EXPECT_LT(after_reset,
              cxl::McasBackoff::kBaseNs + cxl::McasBackoff::kBaseNs / 2);
    // ...but the jitter stream kept advancing, so an exact replay of the
    // first wait would be a (vanishingly unlikely) coincidence we don't
    // assert either way; what we do assert is the zero-seed default is
    // still well-formed (rng never zero).
    cxl::McasBackoff zero;
    EXPECT_GE(zero.next_ns(), cxl::McasBackoff::kBaseNs);
    (void)first;
}

// ---------------------------------------------------------------------------
// Engine fault injection (pod fault layer; see pod/faults.h)

TEST_F(NmpTest, InjectedStallSwallowsWorkingDoorbellsOnly)
{
    nmp_.inject_stall(2);
    EXPECT_EQ(nmp_.stall_remaining(), 2u);

    // Empty ring: the doorbell is a no-op and must not consume budget.
    EXPECT_EQ(nmp_.doorbell(1), 0u);
    EXPECT_EQ(nmp_.stall_remaining(), 2u);
    EXPECT_EQ(nmp_.total_stalled_doorbells(), 0u);

    ASSERT_TRUE(nmp_.spwr_post(
        1, cxl::McasOperand{.target = 2048, .expected = 0, .swap = 5}));
    EXPECT_EQ(nmp_.doorbell(1), 0u);
    // The operand is still Posted — how a session distinguishes "stalled"
    // from "nothing to execute" before climbing its retry ladder.
    EXPECT_EQ(nmp_.posted_occupancy(1), 1u);
    EXPECT_EQ(nmp_.stall_remaining(), 1u);
    EXPECT_EQ(nmp_.doorbell(1), 0u);
    EXPECT_EQ(nmp_.stall_remaining(), 0u);
    EXPECT_EQ(nmp_.total_stalled_doorbells(), 2u);

    EXPECT_EQ(nmp_.doorbell(1), 1u);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(word(2048), 5u);
    EXPECT_EQ(nmp_.posted_occupancy(1), 0u);
}

TEST_F(NmpTest, InjectedStallIsAdditive)
{
    nmp_.inject_stall(1);
    nmp_.inject_stall(2);
    EXPECT_EQ(nmp_.stall_remaining(), 3u);
}

TEST_F(NmpTest, InjectedDelayIsChargedPerAnsweredDoorbell)
{
    EXPECT_EQ(nmp_.take_injected_delay_ns(), 0u);
    nmp_.inject_delay(900, 2);
    EXPECT_EQ(nmp_.take_injected_delay_ns(), 900u);
    EXPECT_EQ(nmp_.take_injected_delay_ns(), 900u);
    EXPECT_EQ(nmp_.take_injected_delay_ns(), 0u);
}

TEST_F(NmpTest, StalledOperandSurvivesForRecoveryInspection)
{
    // A stall strands staged operands in device memory; ring_snapshot must
    // still see them (recovery reads the ring of a thread that gave up),
    // and reset_ring releases them without executing.
    nmp_.inject_stall(1);
    ASSERT_TRUE(nmp_.spwr_post(
        2, cxl::McasOperand{.target = 4096, .expected = 0, .swap = 9}));
    EXPECT_EQ(nmp_.doorbell(2), 0u);

    cxl::NmpSlotView view[cxl::kNmpRingSlots];
    ASSERT_EQ(nmp_.ring_snapshot(2, view, cxl::kNmpRingSlots), 1u);
    EXPECT_EQ(view[0].state, cxl::NmpSlotState::Posted);
    EXPECT_EQ(view[0].op.target, 4096u);
    EXPECT_EQ(view[0].op.swap, 9u);

    nmp_.reset_ring(2);
    EXPECT_EQ(nmp_.ring_occupancy(2), 0u);
    EXPECT_EQ(word(4096), 0u); // never executed
}

} // namespace
