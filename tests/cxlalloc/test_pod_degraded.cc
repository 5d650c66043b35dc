/// @file
/// Degraded-mode placement and fault recovery on the sharded pod
/// allocator: live Down/Suspect reads of the topology health table,
/// healthy-first probing, parked frees across an edge outage (deferred,
/// never lost) and their replay, plus the registry-driven fault sweep —
/// every registered fault point injected mid-workload must leave exact
/// block accounting after recovery.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cxlalloc/pod_shard.h"
#include "cxlalloc/size_class.h"
#include "fixture.h"
#include "obs/registry.h"
#include "pod/faults.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace {

using cxl::EdgeCost;
using cxl::EdgeState;
using cxlalloc::PodShardedAllocator;
using pod::FaultInjector;
using pod::FaultPlan;
using pod::CrashPointInfo;
using pod::CrashPointRegistry;
using pod::HostId;
using pod::Pod;
using pod::PodConfig;
using pod::Topology;
namespace faultpoint = pod::faultpoint;

EdgeCost
far_edge()
{
    EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    return e;
}

/// A 2x2 dense pod with one tiny shard per device (2 small slabs = 64
/// 1-KiB blocks each), mirroring test_pod_shard.cc's world.
struct DegradedWorld {
    explicit DegradedWorld(
        cxl::CoherenceMode mode = cxl::CoherenceMode::PartialHwcc)
        : topo(Topology::dense(2, 2, EdgeCost{}, far_edge()))
    {
        cfg.small_slabs = 2;
        cfg.large_slabs = 2;
        cfg.huge_regions = 2;
        cfg.huge_region_size = 1 << 20;
        cfg.huge_descs_per_thread = 4;
        cfg.hazard_slots_per_thread = 4;

        PodConfig pc;
        pc.device = PodShardedAllocator::device_config(cfg, topo, mode);
        pc.topology = topo;
        pod = std::make_unique<Pod>(pc);
        alloc = std::make_unique<PodShardedAllocator>(*pod, cfg);
        for (HostId h = 0; h < 2; h++) {
            procs.push_back(pod->create_process(h));
            alloc->attach(*procs.back());
        }
    }

    std::unique_ptr<pod::ThreadContext>
    thread(HostId host)
    {
        auto ctx = pod->create_thread(procs[host]);
        alloc->attach_thread(*ctx);
        return ctx;
    }

    cxl::DeviceId device_of(cxl::HeapOffset p)
    {
        return pod->device().device_of(p);
    }

    /// Exact block accounting once everything is freed and replayed: a
    /// clean audit with no live block and nothing parked.
    void
    expect_drained(cxl::MemSession& mem)
    {
        cxlalloc::AuditReport audit = alloc->audit(mem);
        EXPECT_TRUE(audit.ok()) << audit.to_string();
        EXPECT_EQ(audit.live_blocks, 0u);
        EXPECT_EQ(audit.parked_frees, 0u);
    }

    cxlalloc::Config cfg;
    Topology topo;
    std::unique_ptr<Pod> pod;
    std::unique_ptr<PodShardedAllocator> alloc;
    std::vector<pod::Process*> procs;
};

// ---------------------------------------------------------------------------
// Live edge health

/// Placement reads the topology's health cells on every call — there is
/// no refresh step — and health is per (host, device) edge, not per
/// device.
TEST(PodDegraded, EveryCallReadsItsHostsLiveEdgeHealth)
{
    obs::MetricsRegistry reg;
    DegradedWorld w;
    w.alloc->set_metrics(&reg);
    auto c0 = w.thread(0);
    auto c1 = w.thread(1);
    auto degraded = [&] {
        return reg.snapshot().counter("pod.alloc_degraded");
    };

    // Two blocks on host 1's home device 1.
    std::vector<cxl::HeapOffset> far;
    for (int i = 0; i < 2; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*c1, 1024);
        ASSERT_NE(p, 0u);
        ASSERT_EQ(w.device_of(p), 1);
        far.push_back(p);
    }

    // Edge (0, 1) Down: host 0's free of a device-1 block parks, and host
    // 0 allocates on device 0 only — exhausting it returns 0.
    w.topo.set_edge_state(0, 1, EdgeState::Down);
    w.alloc->deallocate(*c0, far[0]);
    EXPECT_EQ(w.alloc->parked_frees(), 1u);
    std::vector<cxl::HeapOffset> home;
    cxl::HeapOffset p = 0;
    while ((p = w.alloc->allocate(*c0, 1024)) != 0) {
        EXPECT_EQ(w.device_of(p), 0);
        home.push_back(p);
        ASSERT_LE(home.size(), 256u) << "runaway allocation";
    }
    EXPECT_GT(home.size(), 0u);
    // Host 1's edge to device 1 is still Up: its free lands.
    w.alloc->deallocate(*c1, far[1]);
    EXPECT_EQ(w.alloc->parked_frees(), 1u);

    // Suspect: the very next allocation falls back to device 1 as a
    // degraded placement, and a free into it lands instead of parking.
    w.topo.set_edge_state(0, 1, EdgeState::Suspect);
    p = w.alloc->allocate(*c0, 1024);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(w.device_of(p), 1);
    EXPECT_EQ(degraded(), 1u);
    w.alloc->deallocate(*c0, p);
    EXPECT_EQ(w.alloc->parked_frees(), 1u);

    // Up: the very next allocation is an ordinary steal, and the parked
    // free replays.
    w.topo.set_edge_state(0, 1, EdgeState::Up);
    p = w.alloc->allocate(*c0, 1024);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(w.device_of(p), 1);
    EXPECT_EQ(degraded(), 1u);
    w.alloc->deallocate(*c0, p);
    EXPECT_EQ(w.alloc->replay_parked(*c0), 1u);

    for (cxl::HeapOffset h : home) {
        w.alloc->deallocate(*c0, h);
    }
    w.expect_drained(c0->mem());
    w.pod->release_thread(std::move(c0));
    w.pod->release_thread(std::move(c1));
}

TEST(PodDegraded, DownDeviceIsNeverProbed)
{
    DegradedWorld w;
    auto ctx = w.thread(0);
    w.topo.set_edge_state(0, 1, EdgeState::Down);

    // Exhaust everything host 0 may touch: every block lands at home, and
    // exhaustion returns 0 instead of spilling onto the Down device.
    std::vector<cxl::HeapOffset> held;
    cxl::HeapOffset p = 0;
    while ((p = w.alloc->allocate(*ctx, 1024)) != 0) {
        EXPECT_EQ(w.device_of(p), 0);
        held.push_back(p);
        ASSERT_LE(held.size(), 256u) << "runaway allocation";
    }
    EXPECT_GT(held.size(), 0u);

    // The edge comes back: the very next allocation can spill again.
    w.topo.set_edge_state(0, 1, EdgeState::Up);
    p = w.alloc->allocate(*ctx, 1024);
    ASSERT_NE(p, 0u);
    EXPECT_EQ(w.device_of(p), 1);
    w.alloc->deallocate(*ctx, p);

    for (cxl::HeapOffset h : held) {
        w.alloc->deallocate(*ctx, h);
    }
    w.expect_drained(ctx->mem());
    w.pod->release_thread(std::move(ctx));
}

TEST(PodDegraded, SuspectDeviceIsProbedOnlyAfterHealthyExhaustion)
{
    DegradedWorld w;
    auto ctx = w.thread(0);
    w.topo.set_edge_state(0, 1, EdgeState::Suspect);

    // While the healthy home shard has room, nothing lands on the Suspect
    // device; once home is exhausted the Suspect edge is still usable.
    std::vector<cxl::HeapOffset> held;
    bool spilled = false;
    cxl::HeapOffset p = 0;
    while ((p = w.alloc->allocate(*ctx, 1024)) != 0) {
        if (w.device_of(p) == 1) {
            spilled = true;
        } else {
            EXPECT_FALSE(spilled)
                << "home allocation after the spill began";
        }
        held.push_back(p);
        ASSERT_LE(held.size(), 256u) << "runaway allocation";
    }
    EXPECT_TRUE(spilled) << "Suspect must degrade placement, not capacity";

    for (cxl::HeapOffset h : held) {
        w.alloc->deallocate(*ctx, h);
    }
    w.expect_drained(ctx->mem());
    w.pod->release_thread(std::move(ctx));
}

// ---------------------------------------------------------------------------
// Parked frees

TEST(PodDegraded, FreesIntoADownDeviceParkAndReplayAfterRecovery)
{
    DegradedWorld w;
    auto c0 = w.thread(0);
    auto c1 = w.thread(1);

    // Host 1 fills blocks on its home device 1; host 0 will free them.
    std::vector<cxl::HeapOffset> blocks;
    for (int i = 0; i < 8; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*c1, 1024);
        ASSERT_NE(p, 0u);
        ASSERT_EQ(w.device_of(p), 1);
        blocks.push_back(p);
    }

    w.topo.set_edge_state(0, 1, EdgeState::Down);
    for (cxl::HeapOffset p : blocks) {
        w.alloc->deallocate(*c0, p); // parks: the edge is Down
    }
    EXPECT_EQ(w.alloc->parked_frees(), 8u);
    // Replay with the edge still Down is a no-op — parked means deferred,
    // not dropped on the floor.
    EXPECT_EQ(w.alloc->replay_parked(*c0), 0u);
    EXPECT_EQ(w.alloc->parked_frees(), 8u);

    w.topo.set_edge_state(0, 1, EdgeState::Up);
    EXPECT_EQ(w.alloc->replay_parked(*c0), 8u);
    w.expect_drained(c0->mem());
    w.pod->release_thread(std::move(c0));
    w.pod->release_thread(std::move(c1));
}

TEST(PodDegraded, BatchFreeParksOnlyTheDownPortion)
{
    DegradedWorld w;
    auto c0 = w.thread(0);
    auto c1 = w.thread(1);

    std::vector<cxl::HeapOffset> mixed;
    for (int i = 0; i < 4; i++) {
        cxl::HeapOffset home = w.alloc->allocate(*c0, 1024);
        cxl::HeapOffset far = w.alloc->allocate(*c1, 1024);
        ASSERT_NE(home, 0u);
        ASSERT_NE(far, 0u);
        mixed.push_back(home);
        mixed.push_back(far);
    }

    w.topo.set_edge_state(0, 1, EdgeState::Down);
    w.alloc->deallocate_batch(*c0, mixed.data(),
                              static_cast<std::uint32_t>(mixed.size()));
    // The device-0 half freed straight through; only the Down half parks.
    EXPECT_EQ(w.alloc->parked_frees(), 4u);

    w.topo.set_edge_state(0, 1, EdgeState::Up);
    EXPECT_EQ(w.alloc->replay_parked(*c0), 4u);

    w.expect_drained(c0->mem());
    w.pod->release_thread(std::move(c0));
    w.pod->release_thread(std::move(c1));
}

// ---------------------------------------------------------------------------
// Registry-driven fault sweep

/// Every registered pod fault point, injected mid-workload through
/// FaultPlan::for_point, must leave the allocator with exact block
/// accounting once the fault is recovered: edges restored, dead hosts
/// adopted and recovered, parked frees drained.
/// Without HWcc, host 0's frees into device 1 wait in its pending list
/// for that shard. The edge goes Down after a drain round's doorbell, so
/// the drain cannot write its list back: the ring is released but the
/// list keeps the round's out stamp. The next drain must clear that stamp
/// before it posts, or a crash in its round would be folded back as the
/// stale round's operands while the list still holds them.
TEST(PodDegraded, DrainCutByAnEdgeOutageIsSettledByTheNextDrain)
{
    DegradedWorld w(cxl::CoherenceMode::NoHwcc);
    auto c0 = w.thread(0);
    auto c1 = w.thread(1);
    std::vector<cxl::HeapOffset> far;
    for (int i = 0; i < 3; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*c1, 1024);
        ASSERT_NE(p, 0u);
        ASSERT_EQ(w.device_of(p), 1);
        far.push_back(p);
    }
    w.alloc->deallocate(*c0, far[0]);
    w.alloc->deallocate(*c0, far[1]);
    cxltest::FireOnce outage(
        [](const sched::Event& e) {
            return e.op == sched::Op::McasDoorbell;
        },
        [&] { w.topo.set_edge_state(0, 1, EdgeState::Down); });
    sched::t_listener = &outage;
    EXPECT_THROW(w.alloc->cleanup(*c0), cxl::EdgeDownError);
    sched::t_listener = nullptr;
    ASSERT_TRUE(outage.fired());
    EXPECT_EQ(w.pod->nmp().ring_occupancy(c0->tid()), 0u);
    w.topo.set_edge_state(0, 1, EdgeState::Up);
    // The device line is still stamped out, without the round's
    // decrements: c0's host row must not keep its row from before the
    // round (it is dropped, and its next use loads the device's).
    cxlalloc::CxlAllocator& shard = w.alloc->shard(1);
    EXPECT_TRUE(cxltest::host_rows_match(shard, c1->mem(), c0->tid()));

    w.alloc->deallocate(*c0, far[2]);
    EXPECT_TRUE(cxltest::host_rows_match(shard, c1->mem(), c0->tid()));
    c0->arm_crash(cxlalloc::crashpoint::kMidBatchStage, 1);
    EXPECT_THROW(w.alloc->cleanup(*c0), pod::ThreadCrashed);
    cxl::ThreadId tid = c0->tid();
    w.pod->mark_crashed(std::move(c0));
    c0 = w.pod->adopt_thread(w.procs[0], tid);
    w.alloc->recover(*c0);
    EXPECT_TRUE(cxltest::host_rows_match(shard, c1->mem(), tid));
    cxlalloc::AuditReport audit = w.alloc->audit(c0->mem());
    EXPECT_EQ(audit.pending_frees, 0u);
    w.expect_drained(c0->mem());
    w.pod->release_thread(std::move(c0));
    w.pod->release_thread(std::move(c1));
}

/// The edge goes Down at a remote free's line store, after its record: the
/// free throws before its line holds it. The thread's host row must not
/// hold it either, or the caller's retry would land it twice.
TEST(PodDegraded, AppendCutByAnEdgeOutageLeavesNoEntryBehind)
{
    DegradedWorld w(cxl::CoherenceMode::NoHwcc);
    auto c0 = w.thread(0);
    auto c1 = w.thread(1);
    std::vector<cxl::HeapOffset> far;
    for (int i = 0; i < 2; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*c1, 1024);
        ASSERT_NE(p, 0u);
        ASSERT_EQ(w.device_of(p), 1);
        far.push_back(p);
    }
    w.alloc->deallocate(*c0, far[0]);
    cxlalloc::CxlAllocator& shard = w.alloc->shard(1);
    const cxl::HeapOffset row = shard.small_heap().pending_line(c0->tid(), 0);
    cxltest::FireOnce outage(
        [&](const sched::Event& e) {
            return e.op == sched::Op::WriteBytes && e.addr >= row &&
                   e.addr < row + cxlalloc::Layout::kSmallPendingLines *
                                      sizeof(cxlalloc::PendingList);
        },
        [&] { w.topo.set_edge_state(0, 1, EdgeState::Down); });
    sched::t_listener = &outage;
    EXPECT_THROW(w.alloc->deallocate(*c0, far[1]), cxl::EdgeDownError);
    sched::t_listener = nullptr;
    ASSERT_TRUE(outage.fired());
    w.topo.set_edge_state(0, 1, EdgeState::Up);
    EXPECT_TRUE(cxltest::host_rows_match(shard, c1->mem(), c0->tid()));

    w.alloc->deallocate(*c0, far[1]);
    w.alloc->cleanup(*c0);
    w.expect_drained(c0->mem());
    w.pod->release_thread(std::move(c0));
    w.pod->release_thread(std::move(c1));
}

/// The same outage when the round's operand takes its counter to zero:
/// the round cannot reach the slab's descriptor to steal it, nor the list
/// to settle. The slab leaks (counter zero, still its old owner's detached
/// slab), it is never stolen twice, and the next drain clears the stamp
/// with nothing left to land.
TEST(PodDegraded, RoundStealCutByAnEdgeOutageLeaksTheSlab)
{
    DegradedWorld w(cxl::CoherenceMode::NoHwcc);
    auto c0 = w.thread(0);
    auto c1 = w.thread(1);
    std::vector<cxl::HeapOffset> full;
    for (int i = 0; i < 32; i++) { // a full 1 KiB-class slab on device 1
        cxl::HeapOffset p = w.alloc->allocate(*c1, 1024);
        ASSERT_NE(p, 0u);
        ASSERT_EQ(w.device_of(p), 1);
        full.push_back(p);
    }
    for (cxl::HeapOffset p : full) {
        w.alloc->deallocate(*c0, p);
    }
    cxltest::FireOnce outage(
        [](const sched::Event& e) {
            return e.op == sched::Op::McasDoorbell;
        },
        [&] { w.topo.set_edge_state(0, 1, EdgeState::Down); });
    sched::t_listener = &outage;
    EXPECT_THROW(w.alloc->cleanup(*c0), cxl::EdgeDownError);
    sched::t_listener = nullptr;
    ASSERT_TRUE(outage.fired());
    EXPECT_EQ(w.pod->nmp().ring_occupancy(c0->tid()), 0u);
    w.topo.set_edge_state(0, 1, EdgeState::Up);

    w.alloc->cleanup(*c0);
    cxlalloc::CxlAllocator& shard = w.alloc->shard(1);
    auto slab = static_cast<std::uint32_t>(
        (full[0] - shard.layout().small_data()) / cxlalloc::kSmallSlabSize);
    EXPECT_EQ(shard.small_heap().debug_remote_free(c0->mem(), slab), 0u);
    EXPECT_EQ(shard.small_heap().debug_owner(c0->mem(), slab), c1->tid())
        << "the cut steal was finished or redone";
    cxlalloc::AuditReport audit = w.alloc->audit(c0->mem());
    EXPECT_EQ(audit.pending_frees, 0u);
    w.expect_drained(c0->mem());
    w.pod->release_thread(std::move(c0));
    w.pod->release_thread(std::move(c1));
}

TEST(PodDegraded, RegistrySweepEveryFaultPointKeepsBlockAccounting)
{
    pod::register_fault_points();
    for (const CrashPointInfo& info :
         CrashPointRegistry::instance().all(pod::PointKind::Fault)) {
        SCOPED_TRACE(info.name);

        DegradedWorld w;
        auto c0 = w.thread(0);
        auto c1 = w.thread(1);
        // Edge faults degrade host 0's view of device 1; the kill takes
        // host 1, so the surviving worker always drives recovery.
        HostId victim = info.id == faultpoint::kHostKill ? 1 : 0;
        FaultInjector inj(*w.pod,
                          FaultPlan::for_point(info.id, victim,
                                               /*device=*/1, /*at_step=*/4));

        std::vector<cxl::HeapOffset> live0, live1;
        for (int round = 0; round < 12; round++) {
            inj.step();
            if (inj.host_killed(1) && c1 != nullptr) {
                // Host 1 dies without writeback; the survivor adopts every
                // crashed slot, recovers all shards, and inherits the dead
                // host's live blocks.
                w.pod->mark_crashed(std::move(c1),
                                    Pod::CrashSeverity::Host);
                for (cxl::ThreadId tid : w.pod->crashed_threads()) {
                    auto rec = w.pod->adopt_thread(w.procs[0], tid);
                    w.alloc->recover(*rec);
                    w.pod->release_thread(std::move(rec));
                }
                live0.insert(live0.end(), live1.begin(), live1.end());
                live1.clear();
            }
            cxl::HeapOffset p = w.alloc->allocate(*c0, 1024);
            if (p != 0) {
                live0.push_back(p);
            }
            if (c1 != nullptr) {
                p = w.alloc->allocate(*c1, 1024);
                if (p != 0) {
                    live1.push_back(p);
                }
            }
            // Cross-host frees every other round: under a Down edge these
            // park; they must all be accounted for at the end.
            if (round % 2 == 0 && !live1.empty()) {
                w.alloc->deallocate(*c0, live1.back());
                live1.pop_back();
            }
            if (round % 3 == 0 && !live0.empty() && c1 != nullptr) {
                w.alloc->deallocate(*c1, live0.back());
                live0.pop_back();
            }
        }
        EXPECT_TRUE(inj.done()) << "plan did not fully fire/recover";

        // Recovery: restore every edge (EdgeDown schedules none itself),
        // drain the survivors' blocks, replay anything parked.
        for (HostId h = 0; h < 2; h++) {
            for (cxl::DeviceId d = 0; d < 2; d++) {
                w.topo.set_edge_state(h, d, EdgeState::Up);
            }
        }
        for (cxl::HeapOffset p : live0) {
            w.alloc->deallocate(*c0, p);
        }
        for (cxl::HeapOffset p : live1) {
            w.alloc->deallocate(c1 != nullptr ? *c1 : *c0, p);
        }
        w.alloc->replay_parked(*c0);
        w.expect_drained(c0->mem());
        w.pod->release_thread(std::move(c0));
        if (c1 != nullptr) {
            w.pod->release_thread(std::move(c1));
        }
    }
}

} // namespace
