/// @file
/// Host liveness leases: beat/poll sequence tracking, the priming round,
/// Suspect on consecutive misses and the false-suspect round trip, the
/// Dead verdict flipping the host's slots, zombie beats not resurrecting
/// a Dead host, and degraded-link tolerance (beats and polls swallowing
/// EdgeDownError as misses, never crashes).

#include <gtest/gtest.h>

#include <memory>

#include "cxl/types.h"
#include "pod/liveness.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace {

using cxl::EdgeState;
using pod::HostHealth;
using pod::LivenessConfig;
using pod::LivenessDetector;
using pod::Pod;
using pod::PodConfig;
using pod::Topology;

constexpr cxl::HeapOffset kLeaseBase = 512;

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    return e;
}

/// 2 hosts x 2 devices; the lease table lives in device 0's sync prefix,
/// so host 1 beats across the fabric and the monitor on host 0 reads it
/// locally.
struct LivenessPod {
    LivenessPod()
    {
        PodConfig pc;
        pc.device.windows = 2;
        pc.device.size = 2ull << 16;
        pc.device.sync_region_size = 4096;
        pc.topology = Topology::dense(2, 2, cxl::EdgeCost{}, far_edge());
        pod = std::make_unique<Pod>(pc);
        for (pod::HostId h = 0; h < 2; h++) {
            procs.push_back(pod->create_process(h));
            ctxs.push_back(pod->create_thread(procs.back()));
        }
    }

    LivenessDetector
    detector(std::uint32_t suspect_after, std::uint32_t dead_after)
    {
        LivenessConfig cfg;
        cfg.lease_base = kLeaseBase;
        cfg.suspect_after = suspect_after;
        cfg.dead_after = dead_after;
        return LivenessDetector(*pod, cfg);
    }

    void
    beat(pod::HostId host)
    {
        LivenessDetector::beat(ctxs[host]->mem(), kLeaseBase, host);
    }

    cxl::MemSession& monitor() { return ctxs[0]->mem(); }

    std::unique_ptr<Pod> pod;
    std::vector<pod::Process*> procs;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
};

TEST(Liveness, LeaseCellsAreEightBytesApart)
{
    EXPECT_EQ(LivenessDetector::lease_cell(kLeaseBase, 0), kLeaseBase);
    EXPECT_EQ(LivenessDetector::lease_cell(kLeaseBase, 3),
              kLeaseBase + 24u);
}

TEST(Liveness, BeatAdvancesTheSequence)
{
    LivenessPod rig;
    EXPECT_EQ(rig.monitor().atomic_load64(
                  LivenessDetector::lease_cell(kLeaseBase, 1)),
              0u);
    rig.beat(1);
    rig.beat(1);
    rig.beat(1);
    EXPECT_EQ(rig.monitor().atomic_load64(
                  LivenessDetector::lease_cell(kLeaseBase, 1)),
              3u);
    // Host 0's cell is untouched.
    EXPECT_EQ(rig.monitor().atomic_load64(
                  LivenessDetector::lease_cell(kLeaseBase, 0)),
              0u);
}

TEST(Liveness, PrimingRoundCountsNoMisses)
{
    LivenessPod rig;
    LivenessDetector det = rig.detector(1, 2);
    // Nobody has ever beaten, but the first poll only records baselines.
    EXPECT_TRUE(det.poll(rig.monitor()).empty());
    EXPECT_EQ(det.rounds(), 1u);
    for (pod::HostId h = 0; h < 2; h++) {
        EXPECT_EQ(det.misses(h), 0u);
        EXPECT_EQ(det.health(h), HostHealth::Alive);
    }
}

TEST(Liveness, ConsecutiveMissesRaiseSuspectAndABeatClearsIt)
{
    LivenessPod rig;
    LivenessDetector det = rig.detector(/*suspect_after=*/2,
                                        /*dead_after=*/10);
    det.poll(rig.monitor()); // priming

    rig.beat(0);
    det.poll(rig.monitor()); // host 0 advanced, host 1 missed (1)
    EXPECT_EQ(det.health(0), HostHealth::Alive);
    EXPECT_EQ(det.health(1), HostHealth::Alive);
    EXPECT_EQ(det.misses(1), 1u);

    rig.beat(0);
    det.poll(rig.monitor()); // host 1 missed (2): Suspect
    EXPECT_EQ(det.health(1), HostHealth::Suspect);
    EXPECT_EQ(det.false_suspects(), 0u);

    rig.beat(1); // it was just slow
    det.poll(rig.monitor());
    EXPECT_EQ(det.health(1), HostHealth::Alive);
    EXPECT_EQ(det.misses(1), 0u);
    EXPECT_EQ(det.false_suspects(), 1u);
    EXPECT_EQ(det.deaths(), 0u);
}

TEST(Liveness, DeadVerdictFlipsTheHostsSlotsOnce)
{
    LivenessPod rig;
    cxl::ThreadId victim = rig.ctxs[1]->tid();
    LivenessDetector det = rig.detector(/*suspect_after=*/2,
                                        /*dead_after=*/3);
    det.poll(rig.monitor()); // priming
    for (int round = 1; round <= 2; round++) {
        rig.beat(0);
        EXPECT_TRUE(det.poll(rig.monitor()).empty());
    }
    EXPECT_EQ(det.health(1), HostHealth::Suspect);
    EXPECT_EQ(rig.pod->slot_state(victim), pod::SlotState::Live);

    rig.beat(0);
    std::vector<pod::HostId> dead = det.poll(rig.monitor()); // miss 3
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0], 1u);
    EXPECT_EQ(det.health(1), HostHealth::Dead);
    EXPECT_EQ(det.deaths(), 1u);
    // The verdict crashed every Live slot of the dead host...
    EXPECT_EQ(rig.pod->slot_state(victim), pod::SlotState::Crashed);
    // ...and the beating host is untouched.
    EXPECT_EQ(det.health(0), HostHealth::Alive);
    EXPECT_EQ(rig.pod->slot_state(rig.ctxs[0]->tid()),
              pod::SlotState::Live);

    // Dead is reported exactly once, and further misses change nothing.
    rig.beat(0);
    EXPECT_TRUE(det.poll(rig.monitor()).empty());
    EXPECT_EQ(det.deaths(), 1u);
}

TEST(Liveness, ZombieBeatDoesNotResurrectADeadHost)
{
    LivenessPod rig;
    LivenessDetector det = rig.detector(1, 2);
    det.poll(rig.monitor());
    rig.beat(0);
    det.poll(rig.monitor());
    rig.beat(0);
    det.poll(rig.monitor());
    ASSERT_EQ(det.health(1), HostHealth::Dead);

    // A lingering thread of the "dead" host beats again: adoption may
    // already be rewriting its state, so the verdict must hold.
    rig.beat(1);
    rig.beat(0);
    EXPECT_TRUE(det.poll(rig.monitor()).empty());
    EXPECT_EQ(det.health(1), HostHealth::Dead);
    EXPECT_EQ(det.deaths(), 1u);
    EXPECT_EQ(det.false_suspects(), 0u);
}

TEST(Liveness, BeatSwallowsADownEdge)
{
    LivenessPod rig;
    // Host 1 loses its link to the lease device: the beat is dropped on
    // the floor, not thrown into the caller.
    rig.pod->topology().set_edge_state(1, 0, EdgeState::Down);
    EXPECT_NO_THROW(rig.beat(1));
    EXPECT_EQ(rig.monitor().atomic_load64(
                  LivenessDetector::lease_cell(kLeaseBase, 1)),
              0u);
    rig.pod->topology().set_edge_state(1, 0, EdgeState::Up);
    rig.beat(1);
    EXPECT_EQ(rig.monitor().atomic_load64(
                  LivenessDetector::lease_cell(kLeaseBase, 1)),
              1u);
}

TEST(Liveness, MonitorLinkOutageCountsAsMissesNotACrash)
{
    LivenessPod rig;
    LivenessDetector det = rig.detector(/*suspect_after=*/1,
                                        /*dead_after=*/100);
    det.poll(rig.monitor()); // priming
    // The monitor's own link to the lease device flaps: every host's
    // lease becomes unobservable, which is weighed exactly like every
    // host going silent — misses for all, including the monitor's host.
    rig.pod->topology().set_edge_state(0, 0, EdgeState::Down);
    rig.beat(1); // host 1 is fine and keeps beating over its own edge
    EXPECT_NO_THROW(det.poll(rig.monitor()));
    EXPECT_EQ(det.misses(0), 1u);
    EXPECT_EQ(det.misses(1), 1u);
    EXPECT_EQ(det.health(1), HostHealth::Suspect);

    // The link recovers: the beats that kept flowing clear the suspicion
    // and count the false suspects the outage manufactured (both hosts
    // were suspected, both proved alive).
    rig.pod->topology().set_edge_state(0, 0, EdgeState::Up);
    rig.beat(0);
    rig.beat(1);
    det.poll(rig.monitor());
    EXPECT_EQ(det.health(0), HostHealth::Alive);
    EXPECT_EQ(det.health(1), HostHealth::Alive);
    EXPECT_EQ(det.false_suspects(), 2u);
    EXPECT_EQ(det.deaths(), 0u);
}

TEST(LivenessDeathTest, MisshapenConfigDies)
{
    LivenessPod rig;
    LivenessConfig cfg;
    cfg.lease_base = kLeaseBase;
    cfg.suspect_after = 0;
    EXPECT_DEATH(LivenessDetector det(*rig.pod, cfg), "suspect_after");
    cfg.suspect_after = 4;
    cfg.dead_after = 2;
    EXPECT_DEATH(LivenessDetector det(*rig.pod, cfg), "dead_after");
}

} // namespace
