/// Batched NMP engine tests: deterministic competing-batch interleavings,
/// partial-batch conflicts, ring wrap-around and full-ring rejection at the
/// engine level; then the allocator's drain of pending remote frees (one
/// operand per slab, k decrements each; a full row lands its fullest
/// line's oldest ring, a batch's frees wait like any other), including
/// real-thread drain races and crashes inside a half-submitted drain
/// recovered through the §5.1 machinery (the pending lines are durable
/// SWcc memory, the operand ring device memory; both survive the crash).

#include "cxl/nmp.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "../cxlalloc/fixture.h"
#include "cxl/latency_model.h"
#include "cxl/mem_ops.h"
#include "cxlalloc/pod_shard.h"
#include "cxlalloc/size_class.h"
#include "pod/topology.h"

namespace {

using cxl::CoherenceMode;
using cxl::Device;
using cxl::DeviceConfig;
using cxl::kNmpRingSlots;
using cxl::McasOperand;
using cxl::McasResult;
using cxl::Nmp;
using cxl::NmpSlotState;
using cxl::NmpSlotView;

class NmpBatchTest : public ::testing::Test {
  protected:
    NmpBatchTest()
        : dev_(DeviceConfig{.size = 1 << 20,
                            .mode = CoherenceMode::NoHwcc,
                            .sync_region_size = 64 << 10}),
          nmp_(&dev_)
    {
    }

    std::uint64_t
    word(std::uint64_t offset)
    {
        return std::atomic_ref<std::uint64_t>(
                   *reinterpret_cast<std::uint64_t*>(dev_.raw(offset)))
            .load(std::memory_order_acquire);
    }

    static McasOperand
    op(cxl::HeapOffset target, std::uint64_t expected, std::uint64_t swap)
    {
        return McasOperand{
            .target = target, .expected = expected, .swap = swap};
    }

    Device dev_;
    Nmp nmp_;
};

TEST_F(NmpBatchTest, DoorbellExecutesInPostingOrderPollIsFifo)
{
    ASSERT_TRUE(nmp_.spwr_post(1, op(128, 0, 10)));
    ASSERT_TRUE(nmp_.spwr_post(1, op(192, 0, 20)));
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 30)));
    EXPECT_EQ(nmp_.ring_occupancy(1), 3u);
    EXPECT_EQ(nmp_.doorbell(1), 3u);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.previous, 0u);
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(nmp_.poll(1, &r));
    EXPECT_EQ(word(128), 10u);
    EXPECT_EQ(word(192), 20u);
    EXPECT_EQ(word(256), 30u);
    EXPECT_EQ(nmp_.total_batches(), 1u);
    EXPECT_EQ(nmp_.total_ops(), 3u);
}

TEST_F(NmpBatchTest, FullRingRejectsFurtherPosts)
{
    for (std::uint32_t i = 0; i < kNmpRingSlots; i++) {
        ASSERT_TRUE(nmp_.spwr_post(1, op(128 + 64 * i, 0, i + 1)));
    }
    EXPECT_FALSE(nmp_.spwr_post(1, op(8192, 0, 99)));
    EXPECT_EQ(nmp_.doorbell(1), kNmpRingSlots);
    McasResult r;
    for (std::uint32_t i = 0; i < kNmpRingSlots; i++) {
        ASSERT_TRUE(nmp_.poll(1, &r));
        EXPECT_TRUE(r.success);
    }
    // Drained: the ring accepts again.
    EXPECT_TRUE(nmp_.spwr_post(1, op(8192, 0, 99)));
    EXPECT_EQ(nmp_.doorbell(1), 1u);
}

TEST_F(NmpBatchTest, WithinBatchDuplicateTargetIsDoomed)
{
    // Fig. 6(b) applies to a thread's own earlier slot too: one in-flight
    // operand per target pod-wide.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 2)));
    EXPECT_EQ(nmp_.doorbell(1), 2u);
    McasResult first;
    McasResult second;
    ASSERT_TRUE(nmp_.poll(1, &first));
    ASSERT_TRUE(nmp_.poll(1, &second));
    EXPECT_TRUE(first.success);
    EXPECT_TRUE(second.conflict);
    EXPECT_EQ(word(256), 1u);
    EXPECT_EQ(nmp_.total_conflicts(), 1u);
}

TEST_F(NmpBatchTest, CompetingBatchesDoomTheLaterArrival)
{
    // T1 posts to 256 first; T2's post to the same target arrives while
    // T1's operand is staged and is doomed regardless of doorbell order.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 7)));
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 0, 8)));
    EXPECT_EQ(nmp_.doorbell(2), 1u);
    McasResult r2;
    ASSERT_TRUE(nmp_.poll(2, &r2));
    EXPECT_TRUE(r2.conflict);
    EXPECT_EQ(nmp_.doorbell(1), 1u);
    McasResult r1;
    ASSERT_TRUE(nmp_.poll(1, &r1));
    EXPECT_TRUE(r1.success);
    EXPECT_EQ(word(256), 7u);
}

TEST_F(NmpBatchTest, PartialBatchConflictOnlyHitsTheOverlappingTarget)
{
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    // T2's ring: one operand collides with T1's staged operand, the other
    // two are independent and must execute normally.
    ASSERT_TRUE(nmp_.spwr_post(2, op(512, 0, 2)));
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 0, 3)));
    ASSERT_TRUE(nmp_.spwr_post(2, op(768, 0, 4)));
    EXPECT_EQ(nmp_.doorbell(2), 3u);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.success); // 512
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.conflict); // 256: doomed by T1's staged operand
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.success); // 768
    EXPECT_EQ(nmp_.doorbell(1), 1u);
    ASSERT_TRUE(nmp_.poll(1, &r));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(word(256), 1u);
    EXPECT_EQ(word(512), 2u);
    EXPECT_EQ(word(768), 4u);
}

TEST_F(NmpBatchTest, ConflictWindowClosesAtExecutionNotAtPoll)
{
    // Once the engine has executed an operand its CAS is done; an
    // executed-but-unpolled slot must not doom later arrivals.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    EXPECT_EQ(nmp_.doorbell(1), 1u);
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 1, 2)));
    EXPECT_EQ(nmp_.doorbell(2), 1u);
    McasResult r2;
    ASSERT_TRUE(nmp_.poll(2, &r2));
    EXPECT_TRUE(r2.success);
    EXPECT_EQ(word(256), 2u);
    McasResult r1;
    ASSERT_TRUE(nmp_.poll(1, &r1));
    EXPECT_TRUE(r1.success);
}

TEST_F(NmpBatchTest, RingWrapsAroundAcrossManyBatches)
{
    // 5 rounds of 3 push head past kNmpRingSlots several times.
    std::uint64_t expect = 0;
    for (std::uint32_t round = 0; round < 5; round++) {
        for (std::uint32_t j = 0; j < 3; j++) {
            ASSERT_TRUE(nmp_.spwr_post(1, op(1024, expect, expect + 1)));
            EXPECT_EQ(nmp_.doorbell(1), 1u);
            McasResult r;
            ASSERT_TRUE(nmp_.poll(1, &r));
            ASSERT_TRUE(r.success);
            expect++;
        }
        // And one multi-operand batch per round on distinct targets.
        ASSERT_TRUE(nmp_.spwr_post(1, op(2048, round, round + 1)));
        ASSERT_TRUE(nmp_.spwr_post(1, op(4096, round, round + 1)));
        EXPECT_EQ(nmp_.doorbell(1), 2u);
        McasResult r;
        ASSERT_TRUE(nmp_.poll(1, &r));
        ASSERT_TRUE(nmp_.poll(1, &r));
    }
    EXPECT_EQ(word(1024), 15u);
    EXPECT_EQ(word(2048), 5u);
    EXPECT_EQ(word(4096), 5u);
}

TEST_F(NmpBatchTest, SnapshotShowsPostedThenExecutedThenDrains)
{
    ASSERT_TRUE(nmp_.spwr_post(3, op(128, 0, 1)));
    ASSERT_TRUE(nmp_.spwr_post(3, op(192, 0, 2)));
    NmpSlotView views[kNmpRingSlots];
    ASSERT_EQ(nmp_.ring_snapshot(3, views, kNmpRingSlots), 2u);
    EXPECT_EQ(views[0].state, NmpSlotState::Posted);
    EXPECT_EQ(views[1].state, NmpSlotState::Posted);
    EXPECT_EQ(views[0].op.target, 128u);
    EXPECT_EQ(views[1].op.target, 192u);
    nmp_.doorbell(3);
    ASSERT_EQ(nmp_.ring_snapshot(3, views, kNmpRingSlots), 2u);
    EXPECT_EQ(views[0].state, NmpSlotState::Executed);
    EXPECT_TRUE(views[0].result.success);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(3, &r));
    ASSERT_EQ(nmp_.ring_snapshot(3, views, kNmpRingSlots), 1u);
    EXPECT_EQ(views[0].op.target, 192u);
}

TEST_F(NmpBatchTest, ResetRingDiscardsStagedOperandsAndStopsDooming)
{
    // A crashed thread's staged operand dooms competitors until recovery
    // releases the ring.
    ASSERT_TRUE(nmp_.spwr_post(1, op(256, 0, 1)));
    nmp_.reset_ring(1);
    EXPECT_EQ(nmp_.ring_occupancy(1), 0u);
    // A fresh post by another thread no longer conflicts.
    ASSERT_TRUE(nmp_.spwr_post(2, op(256, 0, 2)));
    EXPECT_EQ(nmp_.doorbell(2), 1u);
    McasResult r;
    ASSERT_TRUE(nmp_.poll(2, &r));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(word(256), 2u);
    // The discarded operand never executed.
    EXPECT_FALSE(nmp_.poll(1, &r));
}

TEST_F(NmpBatchTest, ConcurrentBatchesLinearize)
{
    // 4 threads batch increments over striped words (post a full ring,
    // one doorbell), retrying failures; every successful increment must be
    // reflected.
    constexpr int kThreads = 4;
    constexpr int kIncrements = 300;
    constexpr std::uint32_t kStripes = 16;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([this, t] {
            auto tid = static_cast<cxl::ThreadId>(t + 1);
            int done = 0;
            std::uint32_t base = static_cast<std::uint32_t>(t) * 5;
            while (done < kIncrements) {
                McasOperand ops[kNmpRingSlots];
                auto want = static_cast<std::uint32_t>(
                    std::min<int>(kNmpRingSlots, kIncrements - done));
                for (std::uint32_t j = 0; j < want; j++) {
                    cxl::HeapOffset target =
                        8192 + ((base + j) % kStripes) * 64;
                    std::uint64_t cur = word(target);
                    ops[j] = op(target, cur, cur + 1);
                }
                std::uint32_t accepted = 0;
                while (accepted < want && nmp_.spwr_post(tid, ops[accepted])) {
                    accepted++;
                }
                nmp_.doorbell(tid);
                for (std::uint32_t k = 0; k < accepted; k++) {
                    McasResult r;
                    if (!nmp_.poll(tid, &r)) {
                        break; // impossible; avoid hanging on a bug
                    }
                    if (r.success) {
                        done++;
                    }
                }
                base += 3; // rotate the window
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < kStripes; s++) {
        total += word(8192 + s * 64);
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// --------------------------- the deferred wait ----------------------------

/// A session on the fixture's engine with the mCAS latency model: a ring
/// of @p k operands on distinct words is posted and rung.
class McasWaitTest : public NmpBatchTest {
  protected:
    McasWaitTest() : mem_(&dev_, &nmp_, 1)
    {
        mem_.set_latency_model(&model_);
    }

    void
    ring(std::uint32_t k)
    {
        for (std::uint32_t i = 0; i < k; i++) {
            ASSERT_TRUE(mem_.mcas_post(op(next_, 0, 1)));
            next_ += 8;
        }
        ASSERT_EQ(mem_.mcas_doorbell(), k);
    }

    void
    harvest(std::uint32_t k)
    {
        for (std::uint32_t i = 0; i < k; i++) {
            McasResult r;
            ASSERT_TRUE(mem_.mcas_poll(&r));
            EXPECT_TRUE(r.success);
        }
    }

    std::uint64_t
    trip(std::uint32_t k) const
    {
        return model_.mcas_ns + (k - 1) * model_.mcas_batch_slot_ns;
    }

    cxl::LatencyModel model_ = cxl::LatencyModel::cxl_mcas();
    cxl::MemSession mem_;
    cxl::HeapOffset next_ = 0; ///< the next operand's (zero) word
};

TEST_F(McasWaitTest, ImmediateHarvestChargesTheWholeTrip)
{
    ring(3);
    std::uint64_t rung = mem_.sim_ns();
    harvest(3);
    EXPECT_EQ(mem_.sim_ns() - rung, trip(3));
    EXPECT_EQ(mem_.mcas_trip_ns(), trip(3));
    EXPECT_EQ(mem_.mcas_wait_ns(), trip(3));
}

TEST_F(McasWaitTest, HarvestAfterOtherWorkPaysOnlyWhatIsLeft)
{
    // Work charged since the doorbell hides that much of the trip...
    ring(2);
    std::uint64_t rung = mem_.sim_ns();
    mem_.charge(1000);
    harvest(2);
    EXPECT_EQ(mem_.sim_ns() - rung, trip(2));
    EXPECT_EQ(mem_.mcas_wait_ns(), trip(2) - 1000);
    // ... and all of it once the work outlasts it.
    ring(2);
    rung = mem_.sim_ns();
    mem_.charge(trip(2) + 500);
    harvest(2);
    EXPECT_EQ(mem_.sim_ns() - rung, trip(2) + 500);
    EXPECT_EQ(mem_.mcas_trip_ns(), 2 * trip(2));
    EXPECT_EQ(mem_.mcas_wait_ns(), trip(2) - 1000);
}

TEST_F(McasWaitTest, InjectedDelayExtendsTheWait)
{
    nmp_.inject_delay(900, 1);
    ring(1);
    std::uint64_t rung = mem_.sim_ns();
    mem_.charge(400);
    harvest(1);
    EXPECT_EQ(mem_.sim_ns() - rung, trip(1) + 900);
    EXPECT_EQ(mem_.mcas_trip_ns(), trip(1) + 900);
    EXPECT_EQ(mem_.mcas_wait_ns(), trip(1) + 900 - 400);
}

/// Harvests a ring of @p k left out, the way the slab heap's finish does.
struct RingFinisher final : cxl::McasFinisher {
    RingFinisher(cxl::MemSession& mem, std::uint32_t k) : mem(mem), k(k) {}

    void
    finish_mcas_round() override
    {
        runs++;
        for (std::uint32_t i = 0; i < k; i++) {
            McasResult r;
            EXPECT_TRUE(mem.mcas_poll(&r));
        }
    }

    cxl::MemSession& mem;
    std::uint32_t k;
    int runs = 0;
};

TEST_F(McasWaitTest, Cas64FinishesTheUnharvestedRoundFirst)
{
    // A round left out, then a raw cas64 on another word: the session
    // runs the round's finisher first, which empties the ring for the
    // cas64's own operand, and pays the round's wait.
    ring(kNmpRingSlots);
    RingFinisher finisher(mem_, kNmpRingSlots);
    mem_.set_mcas_finisher(&finisher);
    EXPECT_TRUE(mem_.mcas_round_out());
    std::uint64_t expected = word(0x1000);
    EXPECT_TRUE(mem_.cas64(0x1000, expected, expected + 1));
    EXPECT_EQ(finisher.runs, 1);
    EXPECT_FALSE(mem_.mcas_round_out());
    EXPECT_EQ(nmp_.ring_occupancy(1), 0u);
    EXPECT_EQ(mem_.mcas_wait_ns(), trip(kNmpRingSlots));
    // mcas_post does the same; a finished round is not run again.
    ring(1);
    mem_.set_mcas_finisher(&finisher);
    finisher.k = 1;
    ASSERT_TRUE(mem_.mcas_post(op(next_, 0, 1)));
    EXPECT_EQ(finisher.runs, 2);
    mem_.finish_mcas_round();
    EXPECT_EQ(finisher.runs, 2);
    ASSERT_EQ(mem_.mcas_doorbell(), 1u);
    harvest(1);
}

// ------------------------- allocator batched drain ------------------------

using cxltest::Rig;
using cxltest::RigOptions;
using pod::ThreadCrashed;

RigOptions
nohwcc_opts()
{
    RigOptions opt;
    opt.mode = cxl::CoherenceMode::NoHwcc;
    return opt;
}

/// deallocate_batch, then cleanup: under NoHwcc the batch's remote frees
/// wait in @p ctx's pending lists, and the cleanup's drain lands them.
void
free_and_land(Rig& rig, pod::ThreadContext& ctx,
              const cxl::HeapOffset* offs, std::uint32_t n)
{
    rig.alloc.deallocate_batch(ctx, offs, n);
    rig.alloc.cleanup(ctx);
}

/// Line @p line of @p ctx's small-heap pending row.
cxlalloc::PendingList
small_line(Rig& rig, pod::ThreadContext& ctx, std::uint32_t line = 0)
{
    cxlalloc::PendingList list;
    ctx.mem().read_bytes(
        rig.alloc.small_heap().pending_line(ctx.tid(), line), &list,
        sizeof list);
    return list;
}

TEST(DeallocateBatch, DistinctSlabsShareOneDoorbell)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    // Eight distinct size classes land in eight distinct slabs, all owned
    // by t1 — so t2's drain is eight remote frees of distinct counters.
    std::vector<cxl::HeapOffset> offs;
    for (std::uint64_t size : {8, 16, 32, 64, 128, 256, 512, 1024}) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, size);
        ASSERT_NE(p, 0u);
        offs.push_back(p);
    }
    const auto& before = t2->mem().counters();
    std::uint64_t batches0 = before.mcas_batches;
    free_and_land(rig, *t2, offs.data(),
                  static_cast<std::uint32_t>(offs.size()));
    const auto& after = t2->mem().counters();
    // One doorbell carried all eight decrements.
    EXPECT_EQ(after.mcas_batches - batches0, 1u);
    EXPECT_EQ(after.mcas_batch_ops, 8u);
    EXPECT_EQ(after.mcas_conflicts, 0u);
    rig.alloc.check_invariants(t1->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatch, SameSlabFreesCoalesceIntoOneOperand)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 12; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, 64);
        ASSERT_NE(p, 0u);
        offs.push_back(p);
    }
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    // All twelve live in one slab: one operand takes the counter down by
    // twelve, in one doorbell.
    const auto& c = t2->mem().counters();
    std::uint64_t batches0 = c.mcas_batches;
    std::uint64_t ops0 = c.mcas_batch_ops;
    free_and_land(rig, *t2, offs.data(),
                  static_cast<std::uint32_t>(offs.size()));
    EXPECT_EQ(c.mcas_batches - batches0, 1u);
    EXPECT_EQ(c.mcas_batch_ops - ops0, 1u);
    EXPECT_EQ(c.mcas_conflicts, 0u);
    cxlalloc::AuditReport r = rig.alloc.audit(t1->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(live0 - r.live_blocks, 12u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

/// Slab index of small-heap block @p p.
std::uint32_t
small_slab_of(Rig& rig, cxl::HeapOffset p)
{
    return static_cast<std::uint32_t>((p - rig.alloc.layout().small_data()) /
                                      cxlalloc::kSmallSlabSize);
}

/// How often @p slab is linked on @p ctx's small unsized list (a walk of at
/// most small_slabs + 1 links, so a slab linked twice shows as a cycle).
std::uint32_t
unsized_links(Rig& rig, pod::ThreadContext& ctx, std::uint32_t slab)
{
    const cxlalloc::Layout& l = rig.alloc.layout();
    cxl::MemSession& mem = ctx.mem();
    auto raw = mem.load<std::uint32_t>(l.small_local(ctx.tid()));
    std::uint32_t links = 0;
    for (std::uint32_t steps = 0; raw != 0 && steps <= rig.config.small_slabs;
         steps++) {
        links += raw - 1 == slab ? 1 : 0;
        raw = mem.load<std::uint32_t>(l.small_swcc_desc(raw - 1) +
                                      cxlalloc::DescField::kNext);
    }
    return links;
}

TEST(DeallocateBatch, GroupEqualToItsCounterStealsInTheSameDoorbell)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    constexpr int kBlocks = 32; // a full 1 KiB-class slab
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < kBlocks; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, 1024);
        ASSERT_NE(p, 0u);
        offs.push_back(p);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    std::uint32_t len = rig.alloc.stats(t1->mem()).small.length;
    free_and_land(rig, *t2, offs.data(), kBlocks);
    // t1 gave the slab up, so its counter holds 32. All 32 decrements
    // ride one operand (32 -> 0), and the round that landed it steals: no
    // serial mCAS runs.
    const cxl::MemEventCounters& c = t2->mem().counters();
    EXPECT_EQ(c.mcas_batches, 1u);
    EXPECT_EQ(c.mcas_batch_ops, 1u);
    EXPECT_EQ(c.mcas_ops, c.mcas_batch_ops) << "a serial mCAS ran";
    EXPECT_EQ(unsized_links(rig, *t2, small_slab_of(rig, offs[0])), 1u);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.live_blocks, 0u);
    // t2 stole the slab: it serves t2's next slab without growing the heap.
    for (int i = 0; i < kBlocks; i++) {
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len);
    rig.alloc.check_invariants(t2->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

/// Counts the hook events of one kind on the installing thread, at
/// @p addr only when one is given.
class CountOp : public sched::Listener {
  public:
    static constexpr std::uint64_t kAnyAddr = ~std::uint64_t{0};

    explicit CountOp(sched::Op op, std::uint64_t addr = kAnyAddr)
        : op_(op), addr_(addr)
    {
    }

    void
    on_event(const sched::Event& event) override
    {
        count_ += event.op == op_ && (addr_ == kAnyAddr || event.addr == addr_)
                      ? 1
                      : 0;
    }

    std::uint32_t count() const { return count_; }

  private:
    sched::Op op_;
    std::uint64_t addr_;
    std::uint32_t count_ = 0;
};

/// Thread @p tid's help entry in @p rig's heap: 0, or its version + 1.
std::uint64_t
help_entry(Rig& rig, pod::ThreadContext& ctx, cxl::ThreadId tid)
{
    return ctx.mem().atomic_load64(rig.alloc.layout().help_array() +
                                   static_cast<cxl::HeapOffset>(tid) * 8);
}

/// Remote-frees @p p from @p ctx and lands it in a round of its own: one
/// drained version.
void
free_one_round(Rig& rig, pod::ThreadContext& ctx, cxl::HeapOffset p)
{
    rig.alloc.deallocate(ctx, p);
    rig.alloc.cleanup(ctx);
}

TEST(DeallocateBatch, DrainRecordsNoHelpButAnOwnRefreshPer4096Versions)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    auto t3 = rig.thread();
    // Two blocks in each of four slabs; t3 frees one of each, so every
    // counter carries a tag of t3 (four versions) once t3's pending frees
    // land.
    std::vector<cxl::HeapOffset> offs;
    for (std::uint64_t size : {64, 128, 256, 512}) {
        cxl::HeapOffset first = rig.alloc.allocate(*t1, size);
        ASSERT_NE(first, 0u);
        rig.alloc.deallocate(*t3, first);
        offs.push_back(rig.alloc.allocate(*t1, size));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.cleanup(*t3);
    // t2's drains: 4092 blocks in one 8 B-class slab of t1's, so no
    // counter reaches zero.
    std::vector<cxl::HeapOffset> eights;
    for (int i = 0; i < 4092; i++) {
        eights.push_back(rig.alloc.allocate(*t1, 8));
        ASSERT_NE(eights.back(), 0u);
    }
    cxlalloc::ThreadState& ts = rig.alloc.thread_state(t2->tid());
    const std::uint16_t v0 = ts.version;
    auto drained = [&] {
        return static_cast<std::uint32_t>((ts.version - v0) &
                                          cxlsync::kVersionMask);
    };
    CountOp help(sched::Op::DcasHelp);
    sched::t_listener = &help;
    // One ring displaces all four of t3's tags, and records none of them:
    // no recovery asks did_succeed of a slab counter.
    free_and_land(rig, *t2, offs.data(),
                  static_cast<std::uint32_t>(offs.size()));
    EXPECT_EQ(help.count(), 0u);
    EXPECT_EQ(t2->mem().counters().mcas_batches, 1u);
    EXPECT_EQ(drained(), 4u);
    // Nor does any later round until t2's versions have moved 4096 since
    // its first drain.
    std::size_t next = 0;
    while (drained() < 4095) {
        free_one_round(rig, *t2, eights.at(next++));
    }
    EXPECT_EQ(help.count(), 0u);
    // The round that reaches 4096 refreshes t2's own entry with its newest
    // landed version, once.
    free_one_round(rig, *t2, eights.at(next++));
    EXPECT_EQ(drained(), 4096u);
    EXPECT_EQ(help.count(), 1u);
    EXPECT_EQ(help_entry(rig, *t2, t2->tid()), ts.version + 1u);
    while (next < eights.size()) {
        free_one_round(rig, *t2, eights[next++]);
    }
    sched::t_listener = nullptr;
    EXPECT_EQ(help.count(), 1u) << "refreshed again within 4096 versions";
    EXPECT_EQ(t2->mem().counters().mcas_ops,
              t2->mem().counters().mcas_batch_ops + 1)
        << "a serial mCAS other than the refresh ran";
    cxlalloc::AuditReport r = rig.alloc.audit(t1->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    rig.pod.release_thread(std::move(t3));
}

TEST(DeallocateBatch, StalePredictionFailsOnceThenLands)
{
    // t2 lands half of a full 1 KiB slab t1 gave up, so it predicts the
    // counter at 16. t3 lands the other half: the counter reaches zero,
    // t3 steals the slab and Init resets the counter untagged. t2's next
    // operand on it is staged from the stale prediction and fails; the
    // word the device found stages the next round's, which lands.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    auto t3 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 32; i++) {
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    const std::uint32_t slab = small_slab_of(rig, offs[0]);
    free_and_land(rig, *t2, offs.data(), 16);
    free_and_land(rig, *t3, offs.data() + 16, 16);
    ASSERT_EQ(unsized_links(rig, *t3, slab), 1u) << "t3 did not steal";
    cxl::HeapOffset again = rig.alloc.allocate(*t3, 1024);
    ASSERT_EQ(small_slab_of(rig, again), slab) << "Init took another slab";
    cxlalloc::SlabHeap& heap = rig.alloc.small_heap();
    ASSERT_EQ(heap.debug_remote_free(t3->mem(), slab), 32u);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    const cxl::MemEventCounters& c = t2->mem().counters();
    std::uint64_t batches0 = c.mcas_batches;
    CountOp reads(sched::Op::AtomicLoad,
                  rig.alloc.layout().small_hwcc_desc(slab));
    sched::t_listener = &reads;
    free_one_round(rig, *t2, again);
    sched::t_listener = nullptr;
    EXPECT_EQ(c.mcas_batches - batches0, 2u) << "the stale operand landed";
    EXPECT_EQ(c.mcas_conflicts, 0u);
    EXPECT_EQ(reads.count(), 0u) << "a round read the counter";
    EXPECT_EQ(heap.debug_remote_free(t3->mem(), slab), 31u);
    cxlalloc::AuditReport r = rig.alloc.audit(t1->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 1u) << "the free was lost";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    rig.pod.release_thread(std::move(t3));
}

TEST(DeallocateBatchDeathTest, RemoteDoubleFreeUnderflowsThePredictedCounter)
{
    // t2 predicts the counter of a full 1 KiB slab t1 gave up at 16 after
    // landing half of it (on a slab that still held its owner's pin, the
    // pin would absorb the double free). Its next entry holds the other 16 blocks plus one of them
    // again: 17 > 16, so the round reads the counter, and the underflow
    // check catches the double free.
    EXPECT_DEATH(
        {
            Rig rig(nohwcc_opts());
            auto t1 = rig.thread();
            auto t2 = rig.thread();
            std::vector<cxl::HeapOffset> offs;
            for (int i = 0; i < 32; i++) {
                offs.push_back(rig.alloc.allocate(*t1, 1024));
            }
            rig.alloc.detach_thread(*t1);
            free_and_land(rig, *t2, offs.data(), 16);
            offs.push_back(offs[20]);
            free_and_land(rig, *t2, offs.data() + 16, 17);
        },
        "remote-free counter underflow");
}

TEST(DeallocateBatch, MixedLocalRemoteAndHugeMatchSerialSemantics)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    offs.push_back(rig.alloc.allocate(*t2, 64));     // local to t2
    offs.push_back(rig.alloc.allocate(*t1, 64));     // remote
    offs.push_back(rig.alloc.allocate(*t1, 4096));   // remote, large heap
    offs.push_back(rig.alloc.allocate(*t2, 1 << 20)); // huge
    for (cxl::HeapOffset p : offs) {
        ASSERT_NE(p, 0u);
    }
    rig.alloc.deallocate_batch(*t2, offs.data(),
                               static_cast<std::uint32_t>(offs.size()));
    rig.alloc.check_invariants(t1->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

/// What a free script leaves behind, for comparing two ways to run it.
struct FreeTrace {
    std::vector<cxl::HeapOffset> offsets;
    std::vector<cxl::MemEventCounters> counters;
    std::vector<std::uint64_t> sim_ns;
    std::string audit;
};

/// t1 fills a 1 KiB-class slab and takes small and large blocks; t2 takes
/// small, large and huge blocks of its own. t2 then frees all of them —
/// local and remote, small, large and huge, the full slab stolen on its
/// last decrement — through one deallocate_batch call when @p batched, else
/// a deallocate loop, and runs cleanup (which lands both slab heaps'
/// pending frees under NoHwcc). Both threads then allocate again (t2 out
/// of the stolen slab).
FreeTrace
run_free_script(cxl::CoherenceMode mode, bool batched)
{
    RigOptions opt;
    opt.mode = mode;
    Rig rig(opt);
    cxl::LatencyModel model = mode == CoherenceMode::NoHwcc
                                  ? cxl::LatencyModel::cxl_mcas()
                                  : cxl::LatencyModel::cxl_hwcc();
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    t1->mem().set_latency_model(&model);
    t2->mem().set_latency_model(&model);
    std::vector<cxl::HeapOffset> frees;
    for (int i = 0; i < 32; i++) {
        frees.push_back(rig.alloc.allocate(*t1, 1024));
    }
    for (std::uint64_t size : {64, 4096, 4096}) {
        frees.push_back(rig.alloc.allocate(*t1, size));
    }
    for (std::uint64_t size : {64, 8192, 1 << 20, 64}) {
        frees.push_back(rig.alloc.allocate(*t2, size));
    }
    // Interleave the owners and heaps: t2's own blocks between t1's.
    std::rotate(frees.begin(), frees.begin() + 20, frees.end());
    FreeTrace out;
    for (cxl::HeapOffset p : frees) {
        EXPECT_NE(p, 0u);
    }
    if (batched) {
        rig.alloc.deallocate_batch(*t2, frees.data(),
                                   static_cast<std::uint32_t>(frees.size()));
    } else {
        for (cxl::HeapOffset p : frees) {
            rig.alloc.deallocate(*t2, p);
        }
    }
    rig.alloc.cleanup(*t2);
    for (int i = 0; i < 32; i++) {
        out.offsets.push_back(rig.alloc.allocate(*t2, 1024));
    }
    for (std::uint64_t size : {64, 4096}) {
        out.offsets.push_back(rig.alloc.allocate(*t1, size));
    }
    out.audit = rig.alloc.audit(t1->mem()).to_string();
    for (pod::ThreadContext* ctx : {t1.get(), t2.get()}) {
        out.counters.push_back(ctx->mem().counters());
        out.sim_ns.push_back(ctx->mem().sim_ns());
    }
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    return out;
}

/// deallocate_batch is its deallocate loop: followed by the same cleanup,
/// same offsets afterwards, same memory operations and simulated time,
/// same audit.
void
expect_batch_matches_loop(cxl::CoherenceMode mode)
{
    FreeTrace want = run_free_script(mode, /*batched=*/false);
    FreeTrace got = run_free_script(mode, /*batched=*/true);
    for (cxl::HeapOffset off : want.offsets) {
        EXPECT_NE(off, 0u);
    }
    EXPECT_EQ(got.offsets, want.offsets);
    ASSERT_EQ(got.counters.size(), want.counters.size());
    for (std::size_t i = 0; i < want.counters.size(); i++) {
        EXPECT_TRUE(got.counters[i] == want.counters[i]) << "thread " << i;
    }
    EXPECT_EQ(got.sim_ns, want.sim_ns);
    EXPECT_GT(want.sim_ns.back(), 0u);
    EXPECT_EQ(got.audit, want.audit);
}

TEST(DeallocateBatch, MatchesADeallocateLoop)
{
    expect_batch_matches_loop(CoherenceMode::PartialHwcc);
}

TEST(DeallocateBatch, MatchesADeallocateLoopAndCleanupUnderNoHwcc)
{
    expect_batch_matches_loop(CoherenceMode::NoHwcc);
}

TEST(DeallocateBatch, ConcurrentCoalescedDrainsLandEveryFreeOnce)
{
    // Real threads: three drainers free interleaved thirds of an owner's
    // full 1 KiB slabs, 8 at a time, then land them with cleanup, racing
    // every slab's counter to zero (coalesced operands, retries, steals in
    // the round). Each round must end with a clean audit and no live
    // block, and stolen slabs recycle, so the heap stops growing.
    Rig rig(nohwcc_opts());
    constexpr int kDrainers = 3;
    constexpr int kSlabs = 6;
    constexpr int kPerSlab = 32;
    constexpr std::size_t kBatch = 8;
    auto owner = rig.thread();
    std::vector<std::unique_ptr<pod::ThreadContext>> drainers;
    for (int d = 0; d < kDrainers; d++) {
        drainers.push_back(rig.thread());
    }
    for (int round = 0; round < 64; round++) {
        std::vector<cxl::HeapOffset> blocks;
        for (int i = 0; i < kSlabs * kPerSlab; i++) {
            blocks.push_back(rig.alloc.allocate(*owner, 1024));
            ASSERT_NE(blocks.back(), 0u);
        }
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int d = 0; d < kDrainers; d++) {
            threads.emplace_back([&, d] {
                std::vector<cxl::HeapOffset> mine;
                for (std::size_t i = d; i < blocks.size(); i += kDrainers) {
                    mine.push_back(blocks[i]);
                }
                ready.fetch_add(1);
                while (ready.load() < kDrainers) {
                    std::this_thread::yield();
                }
                for (std::size_t at = 0; at < mine.size(); at += kBatch) {
                    rig.alloc.deallocate_batch(
                        *drainers[d], mine.data() + at,
                        static_cast<std::uint32_t>(
                            std::min(kBatch, mine.size() - at)));
                }
                rig.alloc.cleanup(*drainers[d]);
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
        cxlalloc::AuditReport r = rig.alloc.audit(owner->mem());
        ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.to_string();
        ASSERT_EQ(r.live_blocks, 0u) << "round " << round;
    }
    // Drainers keep at most unsized_limit stolen slabs each; the owner's
    // refills take the rest back from the global list.
    EXPECT_LE(rig.alloc.stats(owner->mem()).small.length,
              kSlabs + kDrainers * rig.config.unsized_limit);
    for (auto& d : drainers) {
        rig.pod.release_thread(std::move(d));
    }
    rig.pod.release_thread(std::move(owner));
}

/// Fills one 1 KiB-class slab from a victim thread, remote-frees most
/// blocks in a batch landed by cleanup, crashes the freeing thread at
/// @p point inside the next batch's half-submitted drain round, recovers
/// via adoption (which lands the batch), frees the last block, and proves
/// exactly-once decrement semantics by stealing the slab at counter zero:
/// the final allocations must reuse the stolen slab (heap length
/// unchanged). A lost decrement leaves the counter above zero (no steal,
/// length grows); a doubled one underflow-asserts.
void
batch_crash_roundtrip(int point)
{
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    constexpr int kBlocks = 32; // 32 KiB slab / 1 KiB class
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < kBlocks; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, 1024);
        ASSERT_NE(p, 0u);
        offs.push_back(p);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    std::uint32_t len_before = rig.alloc.stats(t1->mem()).small.length;

    // Free 24 of 32 remotely, leaving the counter at 8.
    free_and_land(rig, *t2, offs.data(), 24);

    // Overwrite t2's record with a completed serial op (alloc + local
    // free) so a kMidBatchStage crash finds a NON-batch record: recovery
    // must then discard the staged-but-unstamped operand (its decrements
    // are still in the pending list) rather than fold it back as well.
    cxl::HeapOffset scratch = rig.alloc.allocate(*t2, 64);
    ASSERT_NE(scratch, 0u);
    rig.alloc.deallocate(*t2, scratch);
    len_before = rig.alloc.stats(t1->mem()).small.length;

    // Crash inside the next batch's drain: 7 decrements of one slab,
    // staged as ONE operand 8 -> 1.
    t2->arm_crash(point, 1);
    bool crashed = false;
    try {
        free_and_land(rig, *t2, offs.data() + 24, 7);
    } catch (const ThreadCrashed&) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    rig.alloc.check_invariants(t2->mem());

    // The 7 frees were in t2's pending list before the drain staged them,
    // so every batch point recovers them exactly once: kMidBatchStage
    // discarded the unstamped ring (the list still held them), the doorbell
    // / drain points put the non-landed operand back; recovery's drain
    // landed them either way.
    EXPECT_EQ(rig.alloc.audit(t2->mem()).pending_frees, 0u);
    // Counter is now 1; the last free takes it to zero and t2 steals the
    // fully-remotely-freed slab (paper §3.2.1) once the free lands.
    rig.alloc.deallocate(*t2, offs[31]);
    rig.alloc.cleanup(*t2);
    rig.alloc.check_invariants(t2->mem());

    // The stolen slab serves t2's next allocations without growing the
    // heap: exactly-once decrements proven end to end.
    for (int i = 0; i < kBlocks; i++) {
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len_before);
    rig.alloc.check_invariants(t2->mem());
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchCrash, MidBatchStage)
{
    batch_crash_roundtrip(cxlalloc::crashpoint::kMidBatchStage);
}

TEST(DeallocateBatchCrash, MidBatchDoorbell)
{
    batch_crash_roundtrip(cxlalloc::crashpoint::kMidBatchDoorbell);
}

TEST(DeallocateBatchCrash, MidBatchDrain)
{
    batch_crash_roundtrip(cxlalloc::crashpoint::kMidBatchDrain);
}

TEST(DeallocateBatchCrash, FailedOperandIsRedoneAfterALaterOneIsDisplaced)
{
    // t2's ring holds A (version v) then B (v + 1). A fails (t3 moved its
    // counter after t2 read it), B lands, t2 dies before polling, and t3
    // then displaces B's tag, so help[t2] >= v + 1 > v. Recovery must
    // still redo A: the help array would call it landed.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    auto t3 = rig.thread();
    cxl::HeapOffset a1 = rig.alloc.allocate(*t1, 64);
    cxl::HeapOffset a2 = rig.alloc.allocate(*t1, 64);
    cxl::HeapOffset b1 = rig.alloc.allocate(*t1, 128);
    cxl::HeapOffset b2 = rig.alloc.allocate(*t1, 128);
    ASSERT_TRUE(a1 != 0 && a2 != 0 && b1 != 0 && b2 != 0);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;

    // t3's remote frees wait in its pending list: each lands only through
    // its cleanup.
    cxltest::FireOnce race(
        [](const sched::Event& e) { return e.op == sched::Op::McasPost; },
        [&] {
            rig.alloc.deallocate(*t3, a2);
            rig.alloc.cleanup(*t3);
        });
    cxl::HeapOffset batch[] = {a1, b1};
    t2->arm_crash(cxlalloc::crashpoint::kMidBatchDrain, 1);
    sched::t_listener = &race;
    EXPECT_THROW(free_and_land(rig, *t2, batch, 2), ThreadCrashed);
    sched::t_listener = nullptr;
    ASSERT_TRUE(race.fired());
    rig.alloc.deallocate(*t3, b2); // displaces t2's tag on B
    rig.alloc.cleanup(*t3);

    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(live0 - r.live_blocks, 4u) << "a decrement was lost";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    rig.pod.release_thread(std::move(t3));
}

TEST(DeallocateBatchCrash, FinalDecrementSurvivesACrashAfterTheDoorbell)
{
    // The last 8 blocks of a slab ride one operand (8 -> 0). A crash after
    // the doorbell, before the round reads its results, must not lose the
    // steal that operand owes: recovery's reconcile finishes it.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    constexpr int kBlocks = 32; // a full 1 KiB-class slab
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < kBlocks; i++) {
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    free_and_land(rig, *t2, offs.data(), 24);
    t2->arm_crash(cxlalloc::crashpoint::kMidBatchDrain, 1);
    EXPECT_THROW(free_and_land(rig, *t2, offs.data() + 24, 8), ThreadCrashed);
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(live0 - r.live_blocks, 32u) << "the final decrement was lost";
    std::uint32_t slab = small_slab_of(rig, offs[0]);
    EXPECT_EQ(rig.alloc.small_heap().debug_remote_free(t2->mem(), slab), 0u)
        << "a decrement was lost";
    EXPECT_EQ(unsized_links(rig, *t2, slab), 1u)
        << "the slab was not stolen exactly once";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchCrash, QueuedGroupSurvivesACrashInARoundsFinal)
{
    // Nine slab groups: a full 1 KiB slab (its operand zeroes the counter
    // and steals) plus 8 single blocks in slabs of their own. The first
    // ring takes eight groups; the ninth waits for round 2. A crash at
    // round 1's steal must not lose the waiting group, nor the steal.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 32; i++) {
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    for (std::uint64_t size : {8, 16, 32, 64, 128, 256, 512, 600}) {
        offs.push_back(rig.alloc.allocate(*t1, size));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // every slab of t1's: disowned
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    t2->arm_crash(cxlalloc::crashpoint::kMidSteal, 1);
    EXPECT_THROW(free_and_land(rig, *t2, offs.data(),
                               static_cast<std::uint32_t>(offs.size())),
                 ThreadCrashed);
    ASSERT_EQ(rig.alloc.pending_record(*t2).op,
              cxlalloc::Op::FreeRemoteBatch);
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(live0 - r.live_blocks, 40u) << "a queued group was lost";
    EXPECT_EQ(unsized_links(rig, *t2, small_slab_of(rig, offs[0])), 1u)
        << "the full slab was not stolen exactly once";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchCrash,
     RoundStealIsFinishedOnceAfterACrashBeforeTheStampClears)
{
    // A round steals the slab its operand zeroed before it clears the
    // list's out stamp. Dying in between leaves a done steal that the
    // stamp still calls owed: recovery must see the slab on the unsized
    // list and not steal (link) it a second time.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 32; i++) { // a full 1 KiB-class slab
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    // After the doorbell, the round's first list store is the one that
    // clears the stamp; the steal's stores come before it.
    bool rung = false;
    cxltest::FireOnce die(
        [&](const sched::Event& e) {
            rung |= e.op == sched::Op::McasDoorbell;
            return rung && e.op == sched::Op::WriteBytes;
        },
        [] { throw ThreadCrashed{cxlalloc::crashpoint::kMidBatchDrain}; });
    sched::t_listener = &die;
    EXPECT_THROW(free_and_land(rig, *t2, offs.data(), 32), ThreadCrashed);
    sched::t_listener = nullptr;
    ASSERT_TRUE(die.fired());
    std::uint32_t slab = small_slab_of(rig, offs[0]);
    ASSERT_EQ(unsized_links(rig, *t2, slab), 1u) << "the round did not steal";
    cxl::ThreadId tid = t2->tid();
    ASSERT_EQ(rig.alloc.pending_record(*t2).op,
              cxlalloc::Op::FreeRemoteBatch);
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    EXPECT_EQ(unsized_links(rig, *t2, slab), 1u) << "the slab was stolen twice";
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 32u);
    std::uint32_t len = rig.alloc.stats(t2->mem()).small.length;
    for (int i = 0; i < 32; i++) { // the stolen slab serves these
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchCrash, TrimmedStolenSlabIsNotStolenAgain)
{
    // With unsized_limit 0 the round's steal is trimmed straight on to the
    // global list. The trim runs after the stamp clears, so a crash inside
    // it (an Op::PushGlobal record) leaves no steal owed: recovery finishes
    // the push, and the slab sits on the global list only.
    RigOptions opt = nohwcc_opts();
    opt.unsized_limit = 0;
    Rig rig(opt);
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 32; i++) { // a full 1 KiB-class slab
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    std::uint32_t slab = small_slab_of(rig, offs[0]);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    std::uint32_t global0 = rig.alloc.stats(t1->mem()).small.global_free;
    t2->arm_crash(cxlalloc::crashpoint::kMidPushGlobal, 1);
    EXPECT_THROW(free_and_land(rig, *t2, offs.data(), 32), ThreadCrashed);
    cxl::ThreadId tid = t2->tid();
    ASSERT_EQ(rig.alloc.pending_record(*t2).op, cxlalloc::Op::PushGlobal);
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    EXPECT_EQ(unsized_links(rig, *t2, slab), 0u)
        << "the trimmed slab was stolen again";
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 32u);
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.global_free, global0 + 1);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

/// How often @p slab is linked on the small heap's global free list.
std::uint32_t
global_links(Rig& rig, pod::ThreadContext& ctx, std::uint32_t slab)
{
    const cxlalloc::Layout& l = rig.alloc.layout();
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t raw =
        cxlsync::DcasWord::value(mem.atomic_load64(l.small_free()));
    std::uint32_t links = 0;
    for (std::uint32_t steps = 0; raw != 0 && steps <= rig.config.small_slabs;
         steps++) {
        links += raw - 1 == slab ? 1 : 0;
        cxl::HeapOffset next =
            l.small_swcc_desc(raw - 1) + cxlalloc::DescField::kNext;
        mem.flush(next, 4); // another thread's flushed link
        raw = mem.load<std::uint32_t>(next);
    }
    return links;
}

TEST(DeallocateBatchCrash, KillBeforeATrimsRecordLosesNoSlab)
{
    // With unsized_limit 0 the round's steal is trimmed straight on to the
    // global list. A kill at the first hook after the trim's owner-word
    // store (state Global, no owner) finds the slab on no list: only the
    // trim's PushGlobal record, logged before the pop, can tell recovery
    // to finish the push. The drain round's record cannot: its stamp is
    // already cleared.
    RigOptions opt = nohwcc_opts();
    opt.unsized_limit = 0;
    Rig rig(opt);
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 32; i++) { // a full 1 KiB-class slab
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    const std::uint32_t slab = small_slab_of(rig, offs[0]);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    rig.alloc.deallocate_batch(*t2, offs.data(), 32);
    // The steal's push_unsized stores the owner word, then the trim's
    // push_global_one does.
    const cxl::HeapOffset owner_word =
        rig.alloc.layout().small_swcc_desc(slab) +
        cxlalloc::DescField::kOwnerWord;
    std::uint32_t owner_stores = 0;
    cxltest::FireOnce die(
        [&](const sched::Event& e) {
            if (owner_stores == 2) {
                return true;
            }
            owner_stores += e.op == sched::Op::Store &&
                                    e.addr == owner_word && e.aux == 4
                                ? 1
                                : 0;
            return false;
        },
        [] { throw ThreadCrashed{cxlalloc::crashpoint::kMidPushGlobal}; });
    sched::t_listener = &die;
    EXPECT_THROW(rig.alloc.cleanup(*t2), ThreadCrashed);
    sched::t_listener = nullptr;
    ASSERT_TRUE(die.fired());
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    EXPECT_EQ(global_links(rig, *t2, slab) + unsized_links(rig, *t2, slab),
              1u)
        << "the trimmed slab is not on exactly one list";
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 32u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchCrash, PopGlobalAfter2To14DrainedVersionsIsNotCalledLanded)
{
    // t1's heap extension displaces t2's tag on the heap length, so
    // help[t2] holds t2's first version. t2 then drains 17,000 versions,
    // whose counter tags nobody records, and dies in a PopGlobal between
    // its record and its CAS. Unless t2's drains refresh its own entry,
    // the entry is over 2^14 versions behind, did_succeed calls the CAS
    // landed, and recovery takes a slab that is still on the global list.
    RigOptions opt = nohwcc_opts();
    opt.unsized_limit = 0;
    Rig rig(opt);
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    auto t3 = rig.thread();
    ASSERT_NE(rig.alloc.allocate(*t2, 64), 0u);
    ASSERT_NE(rig.alloc.allocate(*t1, 64), 0u);
    const std::uint64_t help0 = help_entry(rig, *t2, t2->tid());
    ASSERT_NE(help0, 0u);
    std::vector<cxl::HeapOffset> full;
    for (int i = 0; i < 32; i++) { // a full 1 KiB-class slab
        full.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(full.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // the full slab: disowned, pin landed
    // Five 8 B-class slabs of t1's (it stays attached). t2 frees all but
    // the first block of each, so no counter reaches zero and t2 never
    // touches a list.
    constexpr std::uint32_t kDrained = 17000;
    std::vector<cxl::HeapOffset> eights;
    std::vector<std::uint32_t> kept;
    while (eights.size() < kDrained) {
        cxl::HeapOffset p = rig.alloc.allocate(*t1, 8);
        ASSERT_NE(p, 0u);
        std::uint32_t s = small_slab_of(rig, p);
        if (std::find(kept.begin(), kept.end(), s) == kept.end()) {
            kept.push_back(s);
        } else {
            eights.push_back(p);
        }
    }
    // t3 steals the full slab and trims it on to the global list.
    free_and_land(rig, *t3, full.data(), 32);
    const std::uint32_t slab = small_slab_of(rig, full[0]);
    ASSERT_EQ(global_links(rig, *t3, slab), 1u);
    for (cxl::HeapOffset p : eights) {
        free_one_round(rig, *t2, p);
    }
    // t2's next slab comes from the global list.
    t2->arm_crash(cxlalloc::crashpoint::kAfterRecord, 1);
    EXPECT_THROW(rig.alloc.allocate(*t2, 1024), ThreadCrashed);
    ASSERT_EQ(rig.alloc.pending_record(*t2).op, cxlalloc::Op::PopGlobal);
    ASSERT_GT((rig.alloc.thread_state(t2->tid()).version - (help0 - 1)) &
                  cxlsync::kVersionMask,
              1u << 14)
        << "t2's versions did not move past the window";
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    EXPECT_EQ(global_links(rig, *t2, slab), 1u);
    EXPECT_EQ(unsized_links(rig, *t2, slab), 0u)
        << "recovery took a slab the PopGlobal never popped";
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    rig.pod.release_thread(std::move(t3));
}

TEST(DeallocateBatchCrash, SweepCountdownsThroughMixedBatches)
{
    // §5.1-style sweep with exact accounting: one batch of a full 1 KiB
    // slab (its operand zeroes the counter and steals) plus two blocks in
    // each of twelve classes — thirteen slab entries, so the cleanup's
    // drain takes two rounds — with the crash armed at each point of the
    // free path — the FreeDeferred appends (kAfterRecord), the three batch
    // points, the round's steal — at several countdowns. After recovery and
    // cleanup exactly the accepted frees have landed: every one when the
    // crash hit the drain, the first `countdown` appends when it hit the
    // appends (a logged append is redone, an unlogged one never happened).
    constexpr std::uint32_t kFull = 32;
    constexpr std::uint64_t kSizes[] = {8,  16,  24,  32,  48,  64,
                                        96, 128, 192, 256, 384, 512};
    constexpr std::uint32_t kFrees = kFull + 2 * std::size(kSizes);
    struct Case {
        int point;
        std::uint32_t countdown;
    };
    std::vector<Case> cases;
    for (int point : {cxlalloc::crashpoint::kAfterRecord,
                      cxlalloc::crashpoint::kMidBatchStage,
                      cxlalloc::crashpoint::kMidBatchDoorbell,
                      cxlalloc::crashpoint::kMidBatchDrain,
                      cxlalloc::crashpoint::kMidSteal}) {
        for (std::uint32_t countdown = 1; countdown <= 5; countdown++) {
            cases.push_back({point, countdown});
        }
    }
    for (std::uint32_t countdown : {kFrees - 1, kFrees, kFrees + 1}) {
        cases.push_back({cxlalloc::crashpoint::kAfterRecord, countdown});
    }
    bool stole_in_round = false;
    for (const Case& c : cases) {
        SCOPED_TRACE("point " + std::to_string(c.point) + " countdown " +
                     std::to_string(c.countdown));
        Rig rig(nohwcc_opts());
        auto t1 = rig.thread();
        auto t2 = rig.thread();
        std::vector<cxl::HeapOffset> offs;
        for (std::uint32_t i = 0; i < kFull; i++) {
            offs.push_back(rig.alloc.allocate(*t1, 1024));
        }
        for (int round = 0; round < 2; round++) {
            for (std::uint64_t size : kSizes) {
                offs.push_back(rig.alloc.allocate(*t1, size));
            }
        }
        for (cxl::HeapOffset p : offs) {
            ASSERT_NE(p, 0u);
        }
        rig.alloc.detach_thread(*t1); // every slab of t1's: disowned
        std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
        std::uint32_t accepted = kFrees;
        t2->arm_crash(c.point, c.countdown);
        try {
            free_and_land(rig, *t2, offs.data(), kFrees);
            t2->disarm_crash();
        } catch (const ThreadCrashed&) {
            if (c.point == cxlalloc::crashpoint::kAfterRecord) {
                accepted = std::min(c.countdown, kFrees);
            }
            if (c.point == cxlalloc::crashpoint::kMidSteal) {
                // The steal is the round's, not a serial final's.
                EXPECT_EQ(rig.alloc.pending_record(*t2).op,
                          cxlalloc::Op::FreeRemoteBatch);
                stole_in_round = true;
            }
            cxl::ThreadId tid = t2->tid();
            rig.pod.mark_crashed(std::move(t2));
            t2 = rig.pod.adopt_thread(rig.process, tid);
            rig.alloc.recover(*t2);
        }
        rig.alloc.cleanup(*t2);
        cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
        ASSERT_TRUE(r.ok()) << r.to_string();
        EXPECT_EQ(r.pending_frees, 0u);
        EXPECT_EQ(live0 - r.live_blocks, accepted);
        // The heap stays fully usable either way.
        for (int i = 0; i < 30; i++) {
            cxl::HeapOffset p = rig.alloc.allocate(*t2, 64);
            ASSERT_NE(p, 0u);
            rig.alloc.deallocate(*t2, p);
        }
        rig.alloc.check_invariants(t2->mem());
        rig.pod.release_thread(std::move(t1));
        rig.pod.release_thread(std::move(t2));
    }
    EXPECT_TRUE(stole_in_round) << "no case crashed at the round's steal";
}

TEST(DeallocateBatchCrash, FreshOccupantsFirstRoundIsNotItsPredecessors)
{
    // Occupant A of a thread slot drains one clean round and leaves, its
    // line keeping the round's version. B takes the same slot and resumes
    // its versions past A's (detach_thread recorded A's newest), so B's
    // first round is not A's round, and B dies with it posted but not yet
    // stamped: its decrements are still in the line, and recovery must not
    // fold them back in as A's round as well.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto a = rig.thread();
    cxl::ThreadId tid = a->tid();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 4; i++) { // four blocks of one 1 KiB-class slab
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    rig.alloc.deallocate_batch(*a, offs.data(), 2);
    rig.alloc.detach_thread(*a);
    std::uint16_t a_round = small_line(rig, *a).stamp;
    ASSERT_NE(a_round, 0u);
    ASSERT_EQ(a_round & cxlalloc::PendingList::kStampOut, 0u);
    rig.pod.release_thread(std::move(a));

    auto b = rig.thread();
    ASSERT_EQ(b->tid(), tid);
    b->arm_crash(cxlalloc::crashpoint::kMidBatchStage, 1);
    EXPECT_THROW(free_and_land(rig, *b, offs.data() + 2, 2), ThreadCrashed);
    NmpSlotView posted;
    ASSERT_EQ(rig.pod.nmp().ring_snapshot(tid, &posted, 1), 1u);
    std::uint16_t b_round = cxlsync::DcasWord::version(posted.op.swap);
    EXPECT_NE(b_round, a_round);
    EXPECT_TRUE(cxlsync::version_geq(b_round, a_round))
        << "B's first round reuses a version A used";
    rig.pod.mark_crashed(std::move(b));
    b = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*b);
    cxlalloc::AuditReport r = rig.alloc.audit(b->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 4u) << "a decrement landed twice";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(b));
}

/// A thread (t2 of @p rig) with the first @p pending of @p offs pending,
/// whose cleanup then hits a stall that escalates: the drain must rethrow
/// with its round back in the list and the ring released.
void
stall_a_drain(Rig& rig, pod::ThreadContext& t2,
              const std::vector<cxl::HeapOffset>& offs, std::uint32_t pending)
{
    for (std::uint32_t i = 0; i < pending; i++) {
        rig.alloc.deallocate(t2, offs[i]);
    }
    rig.pod.nmp().inject_stall(cxl::kNmpStallRetryLimit + 1);
    EXPECT_THROW(rig.alloc.cleanup(t2), cxl::NmpStallError);
    EXPECT_EQ(rig.pod.nmp().stall_remaining(), 0u);
    EXPECT_EQ(rig.pod.nmp().ring_occupancy(t2.tid()), 0u);
    EXPECT_EQ(rig.alloc.audit(t2.mem()).pending_frees, pending);
}

/// One block in each small size class: every block in a slab of its own.
std::vector<cxl::HeapOffset>
one_block_per_class(Rig& rig, pod::ThreadContext& owner)
{
    std::vector<cxl::HeapOffset> offs;
    for (std::uint32_t c = 0; c < cxlalloc::kNumSmallClasses; c++) {
        offs.push_back(rig.alloc.allocate(owner, cxlalloc::small_class_size(c)));
        EXPECT_NE(offs.back(), 0u);
    }
    return offs;
}

TEST(DeallocateBatchStall, EscalatedRoundIsBackBeforeTheListRefills)
{
    // Eight pending slabs, a stall that escalates, then fifteen more
    // distinct-slab frees: the list fills and drains with the stalled
    // round's eight already back in it (never 23 entries at once).
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs = one_block_per_class(rig, *t1);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    stall_a_drain(rig, *t2, offs, 8);
    for (std::uint32_t i = 8; i < 8 + 15; i++) {
        rig.alloc.deallocate(*t2, offs[i]);
    }
    rig.alloc.cleanup(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 23u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchStall, AppendLoggedAfterAStallIsRedone)
{
    // After an escalated stall, the next append dies between its
    // FreeDeferred record and its list store. Its record counted the list
    // with the stalled round back in it; recovery redoes the append.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs = one_block_per_class(rig, *t1);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    stall_a_drain(rig, *t2, offs, 8);
    t2->arm_crash(cxlalloc::crashpoint::kAfterRecord, 1);
    EXPECT_THROW(rig.alloc.deallocate(*t2, offs[8]), ThreadCrashed);
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2));
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 9u) << "the logged append was lost";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeallocateBatchStall, StalledZeroingOperandGoesBackIntoTheList)
{
    // A full 1 KiB slab: one operand carries all 32 decrements (32 -> 0),
    // and its doorbell escalates a stall. The operand never landed, so its
    // decrements go back into the list and nothing is stolen; the next
    // drain lands them and steals the slab exactly once.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 32; i++) {
        offs.push_back(rig.alloc.allocate(*t1, 1024));
        ASSERT_NE(offs.back(), 0u);
    }
    rig.alloc.detach_thread(*t1); // its full slab: disowned, pin landed
    std::uint32_t slab = small_slab_of(rig, offs[0]);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    stall_a_drain(rig, *t2, offs, 32);
    EXPECT_EQ(rig.alloc.small_heap().debug_remote_free(t2->mem(), slab), 32u);
    EXPECT_EQ(unsized_links(rig, *t2, slab), 0u) << "stolen before landing";
    rig.alloc.cleanup(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_EQ(live0 - r.live_blocks, 32u);
    EXPECT_EQ(unsized_links(rig, *t2, slab), 1u);
    std::uint32_t len = rig.alloc.stats(t2->mem()).small.length;
    for (int i = 0; i < 32; i++) { // the stolen slab serves these
        ASSERT_NE(rig.alloc.allocate(*t2, 1024), 0u);
    }
    EXPECT_EQ(rig.alloc.stats(t2->mem()).small.length, len);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

constexpr std::uint32_t kSmallCapacity =
    cxlalloc::PendingList::kSmallCapacity;
constexpr std::uint32_t kLineSlots = cxlalloc::PendingList::kSlots;

/// A row that fills across two lines, in append order: blocks @p owner
/// allocates, one slab per class. One block in each of the first fifteen
/// classes (line 0: fifteen single-block entries), one in each of the
/// other nine (line 1; the last class's entry is its newest), then more
/// blocks of line 1's eight oldest slabs, round robin, until the row holds
/// its capacity. The last append fills the row; the fullest line is line
/// 1, and its oldest ring is exactly those eight slabs.
std::vector<cxl::HeapOffset>
two_line_row(Rig& rig, pod::ThreadContext& owner)
{
    std::vector<std::uint32_t> classes;
    for (std::uint32_t c = 0; c < cxlalloc::kNumSmallClasses; c++) {
        classes.push_back(c);
    }
    for (std::uint32_t j = 0; classes.size() < kSmallCapacity; j++) {
        classes.push_back(kLineSlots + j % kNmpRingSlots);
    }
    std::vector<cxl::HeapOffset> offs;
    for (std::uint32_t c : classes) {
        offs.push_back(
            rig.alloc.allocate(owner, cxlalloc::small_class_size(c)));
        EXPECT_NE(offs.back(), 0u);
    }
    return offs;
}

TEST(DeferredFrees, AFullListLandsItsOldestRingAndKeepsTheNewest)
{
    // The row fills (capacity blocks) with fifteen single-block entries in
    // line 0 and nine heavier ones in line 1. The last append lands one
    // ring: the eight oldest entries of the fullest line, line 1. Line 1's
    // newest entry and all of line 0 stay pending to gather more blocks.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs = two_line_row(rig, *t1);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    const cxl::MemEventCounters& c = t2->mem().counters();
    for (cxl::HeapOffset p : offs) {
        EXPECT_EQ(c.mcas_batches, 0u) << "rang before the row filled";
        rig.alloc.deallocate(*t2, p);
    }
    EXPECT_EQ(c.mcas_batches, 1u);
    EXPECT_EQ(c.mcas_batch_ops, kNmpRingSlots);
    cxlalloc::PendingList line0 = small_line(rig, *t2, 0);
    ASSERT_EQ(line0.n, kLineSlots);
    for (std::uint32_t i = 0; i < kLineSlots; i++) {
        EXPECT_EQ(line0.slab(i), small_slab_of(rig, offs[i]));
        EXPECT_EQ(line0.count(i), 1u);
    }
    cxlalloc::PendingList line1 = small_line(rig, *t2, 1);
    ASSERT_EQ(line1.n, 1u);
    EXPECT_EQ(line1.slab(0),
              small_slab_of(rig, offs[cxlalloc::kNumSmallClasses - 1]));
    EXPECT_EQ(line1.count(0), 1u);
    EXPECT_EQ(small_line(rig, *t2, 2).n, 0u);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, kLineSlots + 1);
    EXPECT_EQ(live0 - r.live_blocks, kSmallCapacity);
    // The lines land one after another: line 0 in two rounds, line 1 in
    // one.
    rig.alloc.cleanup(*t2);
    EXPECT_EQ(c.mcas_batches, 4u);
    EXPECT_EQ(rig.alloc.audit(t2->mem()).pending_frees, 0u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeferredFrees, AListStillFullAfterARoundLandsASecond)
{
    // t2 appends blocks of eight slabs, slab after slab, until its row
    // holds its capacity: one line of eight entries, whose oldest ring is
    // all eight. t3 lands one free of each slab after t2 read the
    // counters, so every operand of t2's round fails. The round stays out
    // after the append that launched it, until t2's next cas64 finishes
    // it: all eight go back, and the row holds its capacity again. So
    // t2's next append lands a second round, built from fresh counter
    // words, before it appends.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    auto t3 = rig.thread();
    cxl::HeapOffset next = rig.alloc.allocate(
        *t1, cxlalloc::small_class_size(kNmpRingSlots));
    ASSERT_NE(next, 0u);
    std::vector<cxl::HeapOffset> mine;
    for (std::uint32_t c = 0; c < kNmpRingSlots; c++) {
        std::uint64_t size = cxlalloc::small_class_size(c);
        cxl::HeapOffset theirs = rig.alloc.allocate(*t1, size);
        ASSERT_NE(theirs, 0u);
        rig.alloc.deallocate(*t3, theirs);
        // The first slabs take one block more: kSmallCapacity in all.
        std::uint32_t blocks = kSmallCapacity / kNmpRingSlots +
                               (c < kSmallCapacity % kNmpRingSlots ? 1 : 0);
        for (std::uint32_t b = 0; b < blocks; b++) {
            mine.push_back(rig.alloc.allocate(*t1, size));
            ASSERT_NE(mine.back(), 0u);
        }
    }
    ASSERT_EQ(mine.size(), kSmallCapacity);
    ASSERT_EQ(rig.alloc.audit(t3->mem()).pending_frees, kNmpRingSlots);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    cxltest::FireOnce race(
        [](const sched::Event& e) { return e.op == sched::Op::McasPost; },
        [&] { rig.alloc.cleanup(*t3); });
    sched::t_listener = &race;
    for (cxl::HeapOffset p : mine) {
        rig.alloc.deallocate(*t2, p);
    }
    sched::t_listener = nullptr;
    ASSERT_TRUE(race.fired());
    const cxl::MemEventCounters& c = t2->mem().counters();
    EXPECT_EQ(c.mcas_batches, 1u);
    EXPECT_EQ(c.mcas_batch_ops, kNmpRingSlots);
    EXPECT_TRUE(t2->mem().mcas_round_out());
    // The out round's failed operands count as pending.
    EXPECT_EQ(rig.alloc.audit(t2->mem()).pending_frees, mine.size());
    cxl::HeapOffset len = rig.alloc.layout().small_len();
    std::uint64_t word = t2->mem().atomic_load64(len);
    EXPECT_TRUE(t2->mem().cas64(len, word, word));
    EXPECT_FALSE(t2->mem().mcas_round_out());
    EXPECT_EQ(small_line(rig, *t2).size(), kSmallCapacity);
    rig.alloc.deallocate(*t2, next);
    EXPECT_EQ(c.mcas_batches, 2u);
    EXPECT_EQ(c.mcas_batch_ops, 2 * kNmpRingSlots);
    cxlalloc::PendingList line = small_line(rig, *t2);
    ASSERT_EQ(line.n, 1u);
    EXPECT_EQ(line.slab(0), small_slab_of(rig, next));
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 1u);
    EXPECT_EQ(live0 - r.live_blocks, mine.size() + 1);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    rig.pod.release_thread(std::move(t3));
}

/// t1 allocates blocks of eight classes, one slab each, and @p t2 frees
/// them until its row holds its capacity (one line of eight entries,
/// whose oldest ring is all eight): the last append launches a round of
/// all eight, which stays out. Before t2 posts it, @p race runs. Returns
/// the blocks freed.
std::vector<cxl::HeapOffset>
round_of_eight_out(Rig& rig, pod::ThreadContext& t1, pod::ThreadContext& t2,
                   const std::function<void()>& race)
{
    std::vector<cxl::HeapOffset> mine;
    for (std::uint32_t c = 0; c < kNmpRingSlots; c++) {
        std::uint32_t blocks = kSmallCapacity / kNmpRingSlots +
                               (c < kSmallCapacity % kNmpRingSlots ? 1 : 0);
        for (std::uint32_t b = 0; b < blocks; b++) {
            mine.push_back(
                rig.alloc.allocate(t1, cxlalloc::small_class_size(c)));
            EXPECT_NE(mine.back(), 0u);
        }
    }
    cxltest::FireOnce fire(
        [](const sched::Event& e) { return e.op == sched::Op::McasPost; },
        race);
    sched::t_listener = &fire;
    for (cxl::HeapOffset p : mine) {
        rig.alloc.deallocate(t2, p);
    }
    sched::t_listener = nullptr;
    EXPECT_TRUE(fire.fired());
    EXPECT_TRUE(t2.mem().mcas_round_out());
    EXPECT_EQ(t2.mem().counters().mcas_batches, 1u);
    return mine;
}

TEST(DeferredFrees, AnOutRoundsFailedOperandIsPendingNotLive)
{
    // t3 lands a free of the first slab after t2 read its counter, so that
    // operand of t2's round fails. While the round is out, the audit
    // counts its blocks as pending, not live: live_blocks reads what it
    // reads once cleanup has put them back and landed them.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    auto t3 = rig.thread();
    cxl::HeapOffset theirs =
        rig.alloc.allocate(*t1, cxlalloc::small_class_size(0));
    ASSERT_NE(theirs, 0u);
    rig.alloc.deallocate(*t3, theirs);
    round_of_eight_out(rig, *t1, *t2, [&] { rig.alloc.cleanup(*t3); });
    const std::uint32_t failed = kSmallCapacity / kNmpRingSlots + 1;
    cxlalloc::AuditReport out = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(out.ok()) << out.to_string();
    EXPECT_EQ(out.pending_frees, failed);
    rig.alloc.cleanup(*t2);
    EXPECT_EQ(t2->mem().counters().mcas_batches, 2u);
    cxlalloc::AuditReport landed = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(landed.ok()) << landed.to_string();
    EXPECT_EQ(landed.pending_frees, 0u);
    EXPECT_EQ(out.live_blocks, landed.live_blocks);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
    rig.pod.release_thread(std::move(t3));
}

TEST(DeferredFrees, Cas64OnASessionWithARoundOutFinishesItFirst)
{
    // perfbench's calibration shape: a raw cas64 on the session of a
    // thread whose drain round is out. The session finishes the round
    // (stamp cleared, ring released) before the cas64 posts, and the
    // heap stays exact.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    round_of_eight_out(rig, *t1, *t2, [] {});
    EXPECT_NE(small_line(rig, *t2).stamp & cxlalloc::PendingList::kStampOut,
              0u);
    cxl::MemSession& mem = t2->mem();
    cxl::HeapOffset len = rig.alloc.layout().small_len();
    std::uint64_t word = mem.atomic_load64(len);
    EXPECT_TRUE(mem.cas64(len, word, word));
    EXPECT_FALSE(mem.mcas_round_out());
    EXPECT_EQ(small_line(rig, *t2).stamp & cxlalloc::PendingList::kStampOut,
              0u);
    EXPECT_EQ(rig.pod.nmp().ring_occupancy(t2->tid()), 0u);
    cxlalloc::AuditReport r = rig.alloc.audit(mem);
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeferredFrees, LocalWorkWithARoundOutSurvivesAKillAnywhere)
{
    // The two-line row's last append launches line 1's oldest ring, which
    // stays out (all eight operands land) while t2 works locally: it fills
    // a 1 KiB slab (Alloc, then Detach), frees a block of it (FreeLocal,
    // relinking the slab), appends a free of a slab of the round (into
    // line 1) and of a slab of line 0, then allocates a class it has no
    // slab of: the refill inits a slab from its unsized list (Init). A
    // kill at each step's crash points, at several countdowns, recovers to
    // a clean audit, nothing pending, and exactly the accepted frees
    // landed: the interrupted operation counts when its record made it.
    namespace cp = cxlalloc::crashpoint;
    for (int point : {cp::kAfterRecord, cp::kMidAlloc, cp::kMidDetach,
                      cp::kMidFreeLocal, cp::kMidInit}) {
        std::uint32_t kills = 0;
        for (std::uint32_t countdown = 1; countdown <= 7; countdown++) {
            SCOPED_TRACE("point " + std::to_string(point) + " countdown " +
                         std::to_string(countdown));
            Rig rig(nohwcc_opts());
            auto t1 = rig.thread();
            auto t2 = rig.thread();
            // t2's own slabs: a 1 KiB slab one block short of full, and an
            // empty 64 B slab on its unsized list.
            std::vector<cxl::HeapOffset> held;
            for (int i = 0; i < 31; i++) {
                held.push_back(rig.alloc.allocate(*t2, 1024));
            }
            std::vector<cxl::HeapOffset> spill;
            const std::uint64_t per_slab = cxlalloc::kSmallSlabSize / 64;
            for (std::uint64_t i = 0; i <= per_slab; i++) {
                spill.push_back(rig.alloc.allocate(*t2, 64));
            }
            held.push_back(spill.back());
            spill.pop_back();
            for (cxl::HeapOffset p : spill) {
                rig.alloc.deallocate(*t2, p);
            }
            std::vector<cxl::HeapOffset> offs = two_line_row(rig, *t1);
            // One more block of the round's first slab, and of line 0's.
            cxl::HeapOffset of_round = rig.alloc.allocate(
                *t1, cxlalloc::small_class_size(kLineSlots));
            cxl::HeapOffset of_line0 =
                rig.alloc.allocate(*t1, cxlalloc::small_class_size(0));
            for (cxl::HeapOffset p : offs) {
                rig.alloc.deallocate(*t2, p);
            }
            ASSERT_TRUE(t2->mem().mcas_round_out());
            held.push_back(of_round);
            held.push_back(of_line0);
            ASSERT_EQ(rig.alloc.audit(t1->mem()).live_blocks, held.size());

            enum Kind { kAlloc, kFree } kind = kAlloc;
            std::uint64_t expected = 0;
            t2->arm_crash(point, countdown);
            try {
                cxl::HeapOffset last = rig.alloc.allocate(*t2, 1024);
                held.push_back(last);
                kind = kFree;
                held.erase(std::find(held.begin(), held.end(), last));
                rig.alloc.deallocate(*t2, last); // relinks the slab
                for (cxl::HeapOffset p : {of_round, of_line0}) {
                    held.erase(std::find(held.begin(), held.end(), p));
                    rig.alloc.deallocate(*t2, p);
                }
                EXPECT_TRUE(t2->mem().mcas_round_out());
                EXPECT_EQ(small_line(rig, *t2, 1).find(small_slab_of(
                              rig, of_round)),
                          1u);
                EXPECT_EQ(small_line(rig, *t2, 0).count(0), 2u);
                kind = kAlloc;
                held.push_back(rig.alloc.allocate(*t2, 512)); // Init
                EXPECT_TRUE(t2->mem().mcas_round_out());
                t2->disarm_crash();
                expected = held.size();
            } catch (const ThreadCrashed&) {
                cxlalloc::Op op = rig.alloc.pending_record(*t2).op;
                bool started =
                    kind == kAlloc
                        ? op == cxlalloc::Op::Alloc ||
                              op == cxlalloc::Op::Detach
                        : op == cxlalloc::Op::FreeLocal ||
                              op == cxlalloc::Op::FreeDeferred;
                // A started allocation's block is live and nobody holds
                // it; a free that never started leaves its block live.
                expected =
                    held.size() + (kind == kAlloc ? started : !started);
                kills++;
                cxl::ThreadId tid = t2->tid();
                rig.pod.mark_crashed(std::move(t2));
                t2 = rig.pod.adopt_thread(rig.process, tid);
                rig.alloc.recover(*t2);
            }
            rig.alloc.cleanup(*t2);
            cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
            ASSERT_TRUE(r.ok()) << r.to_string();
            EXPECT_EQ(r.pending_frees, 0u);
            EXPECT_EQ(r.live_blocks, expected);
            rig.pod.release_thread(std::move(t1));
            rig.pod.release_thread(std::move(t2));
        }
        // Seven records (Alloc, Detach, FreeLocal, two FreeDeferred,
        // Init, Alloc), two allocations, one each of Detach and FreeLocal,
        // and Init's two points.
        EXPECT_EQ(kills, point == cp::kAfterRecord ? 7u
                         : point == cp::kMidAlloc ||
                                 point == cp::kMidInit
                             ? 2u
                             : 1u)
            << "point " << point;
    }
}

/// A 2x2 dense NoHwcc pod, one shard per device, whose emptied spare
/// slabs go straight to the global list (unsized_limit 0).
struct TwoShardWorld {
    TwoShardWorld()
        : topo(pod::Topology::dense(2, 2, cxl::EdgeCost{}, cxl::EdgeCost{}))
    {
        cfg.small_slabs = 8;
        cfg.large_slabs = 4;
        cfg.huge_regions = 2;
        cfg.huge_region_size = 1 << 20;
        cfg.huge_descs_per_thread = 4;
        cfg.hazard_slots_per_thread = 4;
        cfg.unsized_limit = 0;
        pod::PodConfig pc;
        pc.device = cxlalloc::PodShardedAllocator::device_config(
            cfg, topo, cxl::CoherenceMode::NoHwcc);
        pc.topology = topo;
        pod = std::make_unique<pod::Pod>(pc);
        alloc = std::make_unique<cxlalloc::PodShardedAllocator>(*pod, cfg);
        process = pod->create_process(0);
        alloc->attach(*process);
    }

    std::unique_ptr<pod::ThreadContext>
    thread()
    {
        auto ctx = pod->create_thread(process);
        alloc->attach_thread(*ctx);
        return ctx;
    }

    cxlalloc::Config cfg;
    pod::Topology topo;
    std::unique_ptr<pod::Pod> pod;
    std::unique_ptr<cxlalloc::PodShardedAllocator> alloc;
    pod::Process* process = nullptr;
};

TEST(DeferredFrees, RefillInAnotherShardFinishesTheOutRoundFirst)
{
    // The ring belongs to the thread, not to a shard. t's round is out in
    // shard 1 (a large row of 64 frees of one slab, whose operand zeroes
    // the counter: a steal). A refill in shard 0 pops its global list, and
    // finishes the round, steal included, before the pop reads the list.
    TwoShardWorld w;
    cxlalloc::CxlAllocator& a = w.alloc->shard(1);
    cxlalloc::CxlAllocator& b = w.alloc->shard(0);
    auto u = w.thread();
    auto t = w.thread();
    // u spills a 1 KiB slab on to shard 0's global list.
    std::vector<cxl::HeapOffset> first;
    for (int i = 0; i < 32; i++) {
        first.push_back(b.allocate(*u, 1024));
        ASSERT_NE(first.back(), 0u);
    }
    ASSERT_NE(b.allocate(*u, 1024), 0u);
    for (cxl::HeapOffset p : first) {
        b.deallocate(*u, p);
    }
    ASSERT_EQ(b.stats(u->mem()).small.global_free, 1u);
    // u fills one 8 KiB-class large slab of shard 1 and gives it up; t
    // frees all of it.
    constexpr std::uint64_t kSize = 8 << 10;
    std::vector<cxl::HeapOffset> large;
    for (std::uint64_t i = 0; i < cxlalloc::kLargeSlabSize / kSize; i++) {
        large.push_back(a.allocate(*u, kSize));
        ASSERT_NE(large.back(), 0u);
    }
    a.detach_thread(*u); // the full slab: disowned, pin landed
    for (cxl::HeapOffset p : large) {
        a.deallocate(*t, p);
    }
    ASSERT_TRUE(t->mem().mcas_round_out());
    const cxl::HeapOffset b_free = b.layout().small_free();
    bool ring_empty_at_pop = false;
    cxltest::FireOnce pop(
        [&](const sched::Event& e) {
            return e.op == sched::Op::AtomicLoad && e.addr == b_free;
        },
        [&] {
            ring_empty_at_pop =
                w.pod->nmp().ring_occupancy(t->tid()) == 0 &&
                !t->mem().mcas_round_out();
        });
    sched::t_listener = &pop;
    EXPECT_NE(b.allocate(*t, 64), 0u);
    sched::t_listener = nullptr;
    ASSERT_TRUE(pop.fired());
    EXPECT_TRUE(ring_empty_at_pop);
    EXPECT_EQ(b.stats(t->mem()).small.global_free, 0u);
    auto slab = static_cast<std::uint32_t>(
        (large[0] - a.layout().large_data()) / cxlalloc::kLargeSlabSize);
    EXPECT_EQ(a.large_heap().debug_owner(t->mem(), slab), t->tid())
        << "the round's steal was not finished";
    w.alloc->cleanup(*t);
    w.alloc->cleanup(*u);
    cxlalloc::AuditReport r = w.alloc->audit(t->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    w.pod->release_thread(std::move(u));
    w.pod->release_thread(std::move(t));
}

TEST(DeferredFrees, LargeHeapKeepsOneLineOf64Blocks)
{
    // The large heap's row is one line with a 64-block capacity: fifteen
    // single-block slabs fill its slots and land the eight oldest, and 64
    // blocks of one slab land as one operand, each exactly when the old
    // single-list rule did.
    Rig rig(nohwcc_opts());
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> singles;
    for (std::uint32_t c = 0; c < kLineSlots; c++) {
        singles.push_back(
            rig.alloc.allocate(*t1, cxlalloc::large_class_size(c)));
        ASSERT_NE(singles.back(), 0u);
    }
    const cxl::MemEventCounters& c = t2->mem().counters();
    for (cxl::HeapOffset p : singles) {
        EXPECT_EQ(c.mcas_batches, 0u) << "rang before the line filled";
        rig.alloc.deallocate(*t2, p);
    }
    EXPECT_EQ(c.mcas_batches, 1u);
    EXPECT_EQ(c.mcas_batch_ops, kNmpRingSlots);
    rig.alloc.cleanup(*t2);
    std::vector<cxl::HeapOffset> many;
    for (std::uint32_t b = 0; b < cxlalloc::PendingList::kLargeCapacity; b++) {
        many.push_back(rig.alloc.allocate(*t1, 4096));
        ASSERT_NE(many.back(), 0u);
    }
    std::uint64_t batches0 = c.mcas_batches;
    std::uint64_t ops0 = c.mcas_batch_ops;
    for (cxl::HeapOffset p : many) {
        EXPECT_EQ(c.mcas_batches, batches0) << "rang before 64 blocks";
        rig.alloc.deallocate(*t2, p);
    }
    EXPECT_EQ(c.mcas_batches - batches0, 1u);
    EXPECT_EQ(c.mcas_batch_ops - ops0, 1u);
    cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeferredFrees, CrashSweepOverRoundsDrawnFromEitherLine)
{
    // The two-line row, then cleanup: four rounds, the first drawn from
    // line 1 while line 0 holds fifteen entries, then two from line 0 and
    // one from line 1. A crash at each batch point of each round, and at
    // the appends into line 1 (whose FreeDeferred records name line 1),
    // recovers exactly the accepted frees: all of them when the crash hit
    // a round, the first `countdown` when it hit an append.
    struct Case {
        int point;
        std::uint32_t countdown;
    };
    std::vector<Case> cases;
    for (int point : {cxlalloc::crashpoint::kMidBatchStage,
                      cxlalloc::crashpoint::kMidBatchDoorbell,
                      cxlalloc::crashpoint::kMidBatchDrain}) {
        for (std::uint32_t countdown = 1; countdown <= 4; countdown++) {
            cases.push_back({point, countdown});
        }
    }
    for (std::uint32_t countdown :
         {kLineSlots + 1, kSmallCapacity - 1, kSmallCapacity}) {
        cases.push_back({cxlalloc::crashpoint::kAfterRecord, countdown});
    }
    for (const Case& c : cases) {
        SCOPED_TRACE("point " + std::to_string(c.point) + " countdown " +
                     std::to_string(c.countdown));
        Rig rig(nohwcc_opts());
        auto t1 = rig.thread();
        auto t2 = rig.thread();
        std::vector<cxl::HeapOffset> offs = two_line_row(rig, *t1);
        std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
        std::uint32_t accepted = kSmallCapacity;
        t2->arm_crash(c.point, c.countdown);
        try {
            free_and_land(rig, *t2, offs.data(),
                          static_cast<std::uint32_t>(offs.size()));
            ADD_FAILURE() << "the crash never fired";
            t2->disarm_crash();
        } catch (const ThreadCrashed&) {
            if (c.point == cxlalloc::crashpoint::kAfterRecord) {
                accepted = c.countdown;
            } else if (c.countdown == 1) {
                // The first round is line 1's (stamped out once staged),
                // with line 0's fifteen entries pending.
                EXPECT_EQ(small_line(rig, *t2, 0).n, kLineSlots);
                EXPECT_EQ((small_line(rig, *t2, 1).stamp &
                           cxlalloc::PendingList::kStampOut) != 0,
                          c.point != cxlalloc::crashpoint::kMidBatchStage);
            }
            cxl::ThreadId tid = t2->tid();
            rig.pod.mark_crashed(std::move(t2));
            t2 = rig.pod.adopt_thread(rig.process, tid);
            rig.alloc.recover(*t2);
        }
        rig.alloc.cleanup(*t2);
        cxlalloc::AuditReport r = rig.alloc.audit(t2->mem());
        ASSERT_TRUE(r.ok()) << r.to_string();
        EXPECT_EQ(r.pending_frees, 0u);
        EXPECT_EQ(live0 - r.live_blocks, accepted);
        rig.pod.release_thread(std::move(t1));
        rig.pod.release_thread(std::move(t2));
    }
}

TEST(DeferredFrees, HostCrashLeaksAtMostTheUnflushedAppends)
{
    // Appends since the last drain are plain stores in the freeing host's
    // cache: a host crash may lose them (a leak bounded by the list's
    // capacity), but recovery never lands a free twice.
    RigOptions opt = nohwcc_opts();
    opt.simulate_cache = true;
    Rig rig(opt);
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs;
    for (int i = 0; i < 16; i++) {
        offs.push_back(rig.alloc.allocate(*t1, 64));
        ASSERT_NE(offs.back(), 0u);
    }
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    free_and_land(rig, *t2, offs.data(), 8); // landed: durable
    for (int i = 8; i < 12; i++) {
        rig.alloc.deallocate(*t2, offs[i]); // pending, in t2's cache only
    }
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2), pod::Pod::CrashSeverity::Host);
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t1->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_GE(live0 - r.live_blocks, 8u) << "a drained free was lost";
    EXPECT_LE(live0 - r.live_blocks, 12u) << "a free landed twice";
    for (int i = 12; i < 16; i++) {
        rig.alloc.deallocate(*t2, offs[i]);
    }
    rig.alloc.cleanup(*t2);
    r = rig.alloc.audit(t1->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_LE(r.live_blocks, 4u) << "more than the lost appends leaked";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeferredFrees, HostCrashAcrossTwoLinesLeaksAtMostTheRowsCapacity)
{
    // Five blocks short of a full row, across two lines, and no round has
    // written a line back: a host crash may lose every append (a leak
    // bounded by the row's capacity), but recovery never lands a free
    // twice.
    RigOptions opt = nohwcc_opts();
    opt.simulate_cache = true;
    Rig rig(opt);
    auto t1 = rig.thread();
    auto t2 = rig.thread();
    std::vector<cxl::HeapOffset> offs = two_line_row(rig, *t1);
    offs.resize(kSmallCapacity - 5);
    std::uint64_t live0 = rig.alloc.audit(t1->mem()).live_blocks;
    for (cxl::HeapOffset p : offs) {
        rig.alloc.deallocate(*t2, p);
    }
    EXPECT_EQ(t2->mem().counters().mcas_batches, 0u);
    EXPECT_EQ(small_line(rig, *t2, 0).n, kLineSlots);
    EXPECT_NE(small_line(rig, *t2, 1).n, 0u);
    cxl::ThreadId tid = t2->tid();
    rig.pod.mark_crashed(std::move(t2), pod::Pod::CrashSeverity::Host);
    t2 = rig.pod.adopt_thread(rig.process, tid);
    rig.alloc.recover(*t2);
    cxlalloc::AuditReport r = rig.alloc.audit(t1->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    std::uint64_t landed = live0 - r.live_blocks;
    EXPECT_LE(landed, offs.size()) << "a free landed twice";
    EXPECT_LE(offs.size() - landed, kSmallCapacity)
        << "more than the row's capacity leaked";
    rig.pod.release_thread(std::move(t1));
    rig.pod.release_thread(std::move(t2));
}

TEST(DeferredFrees, TwoThreadsFreeIntoEachOthersSlabsAndDrainViaCleanup)
{
    // Real threads (the TSan job runs this): each thread frees the other's
    // blocks — every free is remote, so it waits in the freeing thread's
    // pending row (drained when the row fills) — then lands the rest
    // with cleanup. Every round must end with a clean audit, nothing
    // pending and no live block.
    Rig rig(nohwcc_opts());
    constexpr int kPerThread = 200;
    auto a = rig.thread();
    auto b = rig.thread();
    pod::ThreadContext* ctx[2] = {a.get(), b.get()};
    for (int round = 0; round < 16; round++) {
        std::vector<cxl::HeapOffset> owned[2];
        for (int t = 0; t < 2; t++) {
            for (int i = 0; i < kPerThread; i++) {
                std::uint64_t size = 8u << (i % 8); // 8 B .. 1 KiB
                owned[t].push_back(rig.alloc.allocate(*ctx[t], size));
                ASSERT_NE(owned[t].back(), 0u);
            }
        }
        std::vector<std::thread> threads;
        for (int t = 0; t < 2; t++) {
            threads.emplace_back([&, t] {
                for (cxl::HeapOffset p : owned[1 - t]) {
                    rig.alloc.deallocate(*ctx[t], p);
                }
                rig.alloc.cleanup(*ctx[t]);
            });
        }
        for (std::thread& th : threads) {
            th.join();
        }
        cxlalloc::AuditReport r = rig.alloc.audit(a->mem());
        ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.to_string();
        ASSERT_EQ(r.pending_frees, 0u) << "round " << round;
        ASSERT_EQ(r.live_blocks, 0u) << "round " << round;
    }
    rig.pod.release_thread(std::move(a));
    rig.pod.release_thread(std::move(b));
}

} // namespace
