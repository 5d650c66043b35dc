/// @file
/// Pod fault-injection framework: the fault points in the central point
/// registry (kind PointKind::Fault), FaultPlan builders and the
/// for_point sweep helper, and the deterministic FaultInjector step clock
/// applied to a live 2x2 pod — edge health flips on the shared topology
/// table, NMP stall/delay arming on the engine, host-kill latching.

#include <gtest/gtest.h>

#include <memory>

#include "cxl/nmp.h"
#include "cxl/types.h"
#include "pod/faults.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace {

using cxl::EdgeState;
using pod::CrashPointInfo;
using pod::CrashPointRegistry;
using pod::FaultInjector;
using pod::FaultKind;
using pod::FaultPlan;
using pod::PointKind;
using pod::Pod;
using pod::PodConfig;
using pod::Topology;
namespace faultpoint = pod::faultpoint;

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    e.ns_per_kib = 4;
    return e;
}

/// 2 hosts x 2 devices, every edge wired (the smallest pod where edge
/// faults and host kills are both non-degenerate).
struct FaultPod {
    FaultPod()
    {
        PodConfig pc;
        pc.device.windows = 2;
        pc.device.size = 2ull << 16;
        pc.device.sync_region_size = 4096;
        pc.topology = Topology::dense(2, 2, cxl::EdgeCost{}, far_edge());
        pod = std::make_unique<Pod>(pc);
    }

    const Topology& topo() const { return pod->topology(); }

    std::unique_ptr<Pod> pod;
};

// ---------------------------------------------------------------------------
// Fault-point registry

TEST(FaultRegistry, RegistersEveryPodPointIdempotently)
{
    pod::register_fault_points();
    pod::register_fault_points(); // second call must be a no-op

    const CrashPointRegistry& reg = CrashPointRegistry::instance();
    const CrashPointInfo* down = reg.find(faultpoint::kEdgeDown);
    ASSERT_NE(down, nullptr);
    EXPECT_EQ(down->name, "fault.edge_down");
    EXPECT_EQ(down->kind, PointKind::Fault);
    ASSERT_NE(reg.find(faultpoint::kEdgeFlap), nullptr);
    ASSERT_NE(reg.find(faultpoint::kNmpStall), nullptr);
    ASSERT_NE(reg.find(faultpoint::kNmpDelay), nullptr);
    const CrashPointInfo* kill = reg.find(faultpoint::kHostKill);
    ASSERT_NE(kill, nullptr);
    EXPECT_EQ(kill->name, "fault.host_kill");
    EXPECT_FALSE(kill->site.empty());

    const CrashPointInfo* by_name = reg.find_name("fault.nmp_stall");
    ASSERT_NE(by_name, nullptr);
    EXPECT_EQ(by_name->id, faultpoint::kNmpStall);

    EXPECT_EQ(reg.find(999), nullptr);
    EXPECT_EQ(reg.find_name("fault.no_such_point"), nullptr);
}

TEST(FaultRegistry, AllIsSortedById)
{
    pod::register_fault_points();
    std::vector<CrashPointInfo> all =
        CrashPointRegistry::instance().all(PointKind::Fault);
    ASSERT_EQ(all.size(), 5u); // exactly the five pod points
    for (std::size_t i = 1; i < all.size(); i++) {
        EXPECT_LT(all[i - 1].id, all[i].id);
    }
}

TEST(FaultRegistry, NameLookupFallsBackForUnknownIds)
{
    pod::register_fault_points();
    EXPECT_EQ(pod::crashpoint_name(faultpoint::kEdgeFlap), "fault.edge_flap");
    EXPECT_EQ(pod::crashpoint_name(999), "crashpoint:999");
}

TEST(FaultRegistryDeathTest, ConflictingReRegistrationDies)
{
    pod::register_fault_points();
    EXPECT_DEATH(CrashPointRegistry::instance().add(
                     faultpoint::kEdgeDown, "fault.renamed", "elsewhere",
                     PointKind::Fault),
                 "different names");
}

TEST(FaultRegistryDeathTest, FaultPointOnACrashPointIdDies)
{
    // One id space: a fault point may not take a crash point's id (here
    // the migrator's first), not even under the same name.
    CrashPointRegistry& reg = CrashPointRegistry::instance();
    reg.add(30, "migrate.after_arm", "HotSlabMigrator::migrate_one");
    EXPECT_DEATH(reg.add(30, "migrate.after_arm", "FaultInjector::fire",
                         PointKind::Fault),
                 "different names or kinds");
}

TEST(FaultRegistry, EveryKindMapsToARegisteredPoint)
{
    pod::register_fault_points();
    for (FaultKind kind :
         {FaultKind::EdgeDown, FaultKind::EdgeFlap, FaultKind::NmpStall,
          FaultKind::NmpDelay, FaultKind::HostKill}) {
        const CrashPointInfo* info =
            CrashPointRegistry::instance().find(pod::fault_point_of(kind));
        ASSERT_NE(info, nullptr);
    }
}

// ---------------------------------------------------------------------------
// FaultPlan builders

TEST(FaultPlan, BuildersChainAndRecordEveryField)
{
    FaultPlan plan;
    plan.edge_down(0, 1, 3)
        .edge_flap(1, 0, 5, 7)
        .nmp_stall(2, 3)
        .nmp_delay(4, 650, 2)
        .host_kill(1, 9);
    ASSERT_EQ(plan.events.size(), 5u);

    EXPECT_EQ(plan.events[0].kind, FaultKind::EdgeDown);
    EXPECT_EQ(plan.events[0].host, 0u);
    EXPECT_EQ(plan.events[0].device, 1);
    EXPECT_EQ(plan.events[0].at_step, 3u);

    EXPECT_EQ(plan.events[1].kind, FaultKind::EdgeFlap);
    EXPECT_EQ(plan.events[1].recover_after, 7u);

    EXPECT_EQ(plan.events[2].kind, FaultKind::NmpStall);
    EXPECT_EQ(plan.events[2].count, 3u);

    EXPECT_EQ(plan.events[3].kind, FaultKind::NmpDelay);
    EXPECT_EQ(plan.events[3].delay_ns, 650u);
    EXPECT_EQ(plan.events[3].count, 2u);

    EXPECT_EQ(plan.events[4].kind, FaultKind::HostKill);
    EXPECT_EQ(plan.events[4].host, 1u);
}

TEST(FaultPlan, ForPointCoversEveryRegisteredPointWithSaneDefaults)
{
    pod::register_fault_points();
    // The sweep contract: iterate the registry, get a one-event plan per
    // point. Unknown ids abort (tested below), so a point added without a
    // for_point arm cannot silently produce an empty sweep entry.
    for (const CrashPointInfo& info :
         CrashPointRegistry::instance().all(PointKind::Fault)) {
        FaultPlan plan = FaultPlan::for_point(info.id, 0, 1, 6);
        ASSERT_EQ(plan.events.size(), 1u) << info.name;
        EXPECT_EQ(pod::fault_point_of(plan.events[0].kind), info.id);
        EXPECT_EQ(plan.events[0].at_step, 6u);
    }
    EXPECT_EQ(FaultPlan::for_point(faultpoint::kEdgeFlap, 0, 0, 1)
                  .events[0]
                  .recover_after,
              4u);
    EXPECT_EQ(FaultPlan::for_point(faultpoint::kNmpStall, 0, 0, 1)
                  .events[0]
                  .count,
              2u);
    FaultPlan delay = FaultPlan::for_point(faultpoint::kNmpDelay, 0, 0, 1);
    EXPECT_EQ(delay.events[0].delay_ns, 500u);
    EXPECT_EQ(delay.events[0].count, 2u);
}

TEST(FaultPlanDeathTest, ForPointUnknownIdDies)
{
    EXPECT_DEATH(FaultPlan::for_point(999, 0, 0, 1), "unknown fault point");
}

TEST(FaultPlanDeathTest, ZeroLengthFlapDies)
{
    FaultPlan plan;
    EXPECT_DEATH(plan.edge_flap(0, 0, 1, 0), "at least one step");
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, StepClockIsOneBased)
{
    FaultPod rig;
    FaultPlan plan;
    plan.edge_down(0, 1, 1);
    FaultInjector inj(*rig.pod, plan);

    EXPECT_EQ(inj.now(), 0u);
    EXPECT_EQ(inj.fired(), 0u);
    EXPECT_FALSE(inj.done());
    EXPECT_EQ(rig.topo().edge_state(0, 1), EdgeState::Up);

    inj.step(); // the first step() is step 1: at_step == 1 fires here
    EXPECT_EQ(inj.now(), 1u);
    EXPECT_EQ(inj.fired(), 1u);
    EXPECT_EQ(rig.topo().edge_state(0, 1), EdgeState::Down);
    EXPECT_TRUE(inj.done()); // EdgeDown schedules no recovery
}

TEST(FaultInjector, EdgeDownBumpsEpochAndStaysDown)
{
    FaultPod rig;
    std::uint64_t epoch0 = rig.topo().edge_epoch(0, 1);
    FaultPlan plan;
    plan.edge_down(0, 1, 2);
    FaultInjector inj(*rig.pod, plan);

    inj.step();
    EXPECT_EQ(rig.topo().edge_state(0, 1), EdgeState::Up);
    inj.step();
    EXPECT_EQ(rig.topo().edge_state(0, 1), EdgeState::Down);
    EXPECT_EQ(rig.topo().edge_epoch(0, 1), epoch0 + 1);
    for (int i = 0; i < 5; i++) {
        inj.step();
    }
    // No scheduled recovery: the edge stays Down and the epoch is stable.
    EXPECT_EQ(rig.topo().edge_state(0, 1), EdgeState::Down);
    EXPECT_EQ(rig.topo().edge_epoch(0, 1), epoch0 + 1);
    // Only the edge we named was touched.
    EXPECT_EQ(rig.topo().edge_state(1, 1), EdgeState::Up);
    EXPECT_EQ(rig.topo().edge_state(0, 0), EdgeState::Up);
}

TEST(FaultInjector, FlapDropsThenRecoversOnSchedule)
{
    FaultPod rig;
    std::uint64_t epoch0 = rig.topo().edge_epoch(1, 0);
    FaultPlan plan;
    plan.edge_flap(1, 0, /*at_step=*/2, /*down_for=*/3);
    FaultInjector inj(*rig.pod, plan);

    inj.step(); // 1
    EXPECT_EQ(rig.topo().edge_state(1, 0), EdgeState::Up);
    inj.step(); // 2: fires
    EXPECT_EQ(rig.topo().edge_state(1, 0), EdgeState::Down);
    EXPECT_FALSE(inj.done()); // recovery pending
    inj.step();               // 3
    inj.step();               // 4
    EXPECT_EQ(rig.topo().edge_state(1, 0), EdgeState::Down);
    inj.step(); // 5 == 2 + down_for: recovers
    EXPECT_EQ(rig.topo().edge_state(1, 0), EdgeState::Up);
    EXPECT_TRUE(inj.done());
    // One Down transition plus one Up transition.
    EXPECT_EQ(rig.topo().edge_epoch(1, 0), epoch0 + 2);
}

TEST(FaultInjector, EventsFireInStepOrderRegardlessOfPlanOrder)
{
    FaultPod rig;
    FaultPlan plan;
    // Listed out of order: the injector sorts by at_step (stably).
    plan.edge_down(0, 1, 3).edge_down(1, 0, 1).edge_down(0, 0, 3);
    FaultInjector inj(*rig.pod, plan);

    inj.step();
    EXPECT_EQ(inj.fired(), 1u);
    EXPECT_EQ(rig.topo().edge_state(1, 0), EdgeState::Down);
    EXPECT_EQ(rig.topo().edge_state(0, 1), EdgeState::Up);
    inj.step();
    EXPECT_EQ(inj.fired(), 1u);
    inj.step(); // both step-3 events fire within one step()
    EXPECT_EQ(inj.fired(), 3u);
    EXPECT_EQ(rig.topo().edge_state(0, 1), EdgeState::Down);
    EXPECT_EQ(rig.topo().edge_state(0, 0), EdgeState::Down);
    EXPECT_TRUE(inj.done());
}

TEST(FaultInjector, NmpStallArmsTheEngineBudget)
{
    FaultPod rig;
    FaultPlan plan;
    plan.nmp_stall(1, 3);
    FaultInjector inj(*rig.pod, plan);
    cxl::Nmp& nmp = rig.pod->nmp();

    inj.step();
    EXPECT_EQ(nmp.stall_remaining(), 3u);

    // An empty doorbell does not consume the budget: an unresponsive
    // engine is only observable when something was staged.
    EXPECT_EQ(nmp.doorbell(1), 0u);
    EXPECT_EQ(nmp.stall_remaining(), 3u);
    EXPECT_EQ(nmp.total_stalled_doorbells(), 0u);

    ASSERT_TRUE(nmp.spwr_post(
        1, cxl::McasOperand{.target = 64, .expected = 0, .swap = 7}));
    EXPECT_EQ(nmp.doorbell(1), 0u); // swallowed
    EXPECT_EQ(nmp.posted_occupancy(1), 1u);
    EXPECT_EQ(nmp.stall_remaining(), 2u);
    EXPECT_EQ(nmp.total_stalled_doorbells(), 1u);
    EXPECT_EQ(nmp.doorbell(1), 0u);
    EXPECT_EQ(nmp.doorbell(1), 0u);
    EXPECT_EQ(nmp.stall_remaining(), 0u);
    EXPECT_EQ(nmp.total_stalled_doorbells(), 3u);

    // Budget exhausted: the engine answers and the operand executes.
    EXPECT_EQ(nmp.doorbell(1), 1u);
    cxl::McasResult res;
    ASSERT_TRUE(nmp.poll(1, &res));
    EXPECT_TRUE(res.success);
    EXPECT_EQ(nmp.posted_occupancy(1), 0u);
}

TEST(FaultInjector, NmpDelayArmsPerDoorbellExtraLatency)
{
    FaultPod rig;
    FaultPlan plan;
    plan.nmp_delay(1, 750, 2);
    FaultInjector inj(*rig.pod, plan);
    cxl::Nmp& nmp = rig.pod->nmp();

    EXPECT_EQ(nmp.take_injected_delay_ns(), 0u); // nothing armed yet
    inj.step();
    EXPECT_EQ(nmp.take_injected_delay_ns(), 750u);
    EXPECT_EQ(nmp.take_injected_delay_ns(), 750u);
    EXPECT_EQ(nmp.take_injected_delay_ns(), 0u); // budget drained
}

TEST(FaultInjector, HostKillLatchesWithoutCrashingSlots)
{
    FaultPod rig;
    pod::Process* p1 = rig.pod->create_process(1);
    auto t1 = rig.pod->create_thread(p1);
    cxl::ThreadId tid = t1->tid();

    FaultPlan plan;
    plan.host_kill(1, 1);
    FaultInjector inj(*rig.pod, plan);
    EXPECT_FALSE(inj.host_killed(1));

    inj.step();
    EXPECT_TRUE(inj.host_killed(1));
    EXPECT_FALSE(inj.host_killed(0));
    // The injector only latches the verdict; the harness owns the actual
    // crash (it holds the ThreadContexts), so the slot is still Live.
    EXPECT_EQ(rig.pod->slot_state(tid), pod::SlotState::Live);

    rig.pod->mark_crashed(std::move(t1), pod::Pod::CrashSeverity::Host);
    EXPECT_EQ(rig.pod->slot_state(tid), pod::SlotState::Crashed);
}

TEST(FaultInjectorDeathTest, ValidatesEventsAgainstTheTopology)
{
    FaultPod rig;
    {
        FaultPlan plan;
        plan.edge_down(5, 0, 1); // host 5 of a 2-host pod
        EXPECT_DEATH(FaultInjector inj(*rig.pod, plan),
                     "outside the topology");
    }
    {
        FaultPlan plan;
        plan.host_kill(7, 1);
        EXPECT_DEATH(FaultInjector inj(*rig.pod, plan),
                     "outside the topology");
    }
    {
        FaultPlan plan;
        plan.edge_down(0, 0, 0); // steps are 1-based
        EXPECT_DEATH(FaultInjector inj(*rig.pod, plan), "step >= 1");
    }
}

} // namespace
