/// @file
/// Liveness and fault injection under explored schedules on a 2-host x
/// 2-device pod: a monitor vthread advances a FaultInjector (an edge flap
/// on host 0's far edge — every firing is a schedule point) and polls the
/// LivenessDetector while host 1's workers beat their lease between
/// allocator ops and remote frees, racing suspicion against in-flight
/// free batches and the edge epoch. The crash variant kills either worker
/// at any yield, takes the whole host down, drives the detector to the
/// Dead verdict with the beats gone, adopts every crashed slot on the
/// survivor, runs ordered multi-shard recovery, and audits both shards per
/// schedule.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cxlalloc/pod_shard.h"
#include "pod/faults.h"
#include "pod/liveness.h"
#include "pod/pod.h"
#include "pod/topology.h"
#include "sched/explorer.h"

namespace {

using sched::Explorer;
using sched::kNoVthread;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;

constexpr int kBlocks = 24;

struct FaultWorld {
    FaultWorld()
        : cfg(make_config()),
          topo(pod::Topology::dense(2, 2, cxl::EdgeCost{}, far_edge())),
          pod(make_pod(cfg, topo)), alloc(pod, cfg)
    {
        for (pod::HostId h = 0; h < 2; h++) {
            procs.push_back(pod.create_process(h));
            alloc.attach(*procs.back());
        }
        // vthread 0: the monitor on host 0; vthreads 1-2: workers on
        // host 1 whose beats the monitor watches.
        for (int i = 0; i < 3; i++) {
            ctxs.push_back(pod.create_thread(procs[i == 0 ? 0 : 1]));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        lease_base = alloc.shard(0).layout().app_sync();
        pod::LivenessConfig lcfg;
        lcfg.lease_base = lease_base;
        lcfg.suspect_after = 1;
        lcfg.dead_after = 3;
        detector = std::make_unique<pod::LivenessDetector>(pod, lcfg);
        // The flap fires mid-run and is a sched::hook yield, so WHERE it
        // lands relative to worker beats and frees is part of the
        // explored schedule space.
        pod::FaultPlan plan;
        plan.edge_flap(0, 1, /*at_step=*/2, /*down_for=*/1);
        injector = std::make_unique<pod::FaultInjector>(pod, plan);
        // Pre-state: host-0 blocks the host-1 workers free across the
        // fabric, racing the remote-free counters against everything else.
        for (int n = 0; n < kBlocks; n++) {
            blocks.push_back(alloc.allocate(*ctxs[0], 1024));
        }
    }

    void
    beat(int ctx_index, pod::HostId host)
    {
        pod::LivenessDetector::beat(ctxs[ctx_index]->mem(), lease_base,
                                    host);
    }

    static cxl::EdgeCost
    far_edge()
    {
        cxl::EdgeCost e;
        e.read_add_ns = 100;
        e.write_add_ns = 150;
        return e;
    }

    static cxlalloc::Config
    make_config()
    {
        cxlalloc::Config cfg;
        cfg.small_slabs = 32;
        cfg.large_slabs = 8;
        cfg.huge_regions = 2;
        cfg.huge_region_size = 1 << 20;
        cfg.huge_descs_per_thread = 4;
        cfg.hazard_slots_per_thread = 4;
        cfg.app_sync_bytes = pod::kLeaseTableBytes;
        return cfg;
    }

    static pod::PodConfig
    make_pod(const cxlalloc::Config& cfg, const pod::Topology& topo)
    {
        pod::PodConfig pc;
        // No cache simulation: the end oracle reads every slab descriptor
        // from a single session (see test_sched_pod_steal.cc).
        pc.device = cxlalloc::PodShardedAllocator::device_config(
            cfg, topo, cxl::CoherenceMode::PartialHwcc,
            /*simulate_cache=*/false);
        pc.topology = topo;
        return pc;
    }

    cxlalloc::Config cfg;
    pod::Topology topo;
    pod::Pod pod;
    cxlalloc::PodShardedAllocator alloc;
    std::vector<pod::Process*> procs;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    cxl::HeapOffset lease_base = 0;
    std::unique_ptr<pod::LivenessDetector> detector;
    std::unique_ptr<pod::FaultInjector> injector;
    std::vector<cxl::HeapOffset> blocks;
};

/// Finishes the fault plan (flap recovery included); at_end runs outside
/// any vthread so the firings are plain.
void
settle_faults(FaultWorld& w)
{
    for (int i = 0; i < 8 && !w.injector->done(); i++) {
        w.injector->step();
    }
    if (!w.injector->done()) {
        throw OracleFailure("fault plan did not fully fire/recover");
    }
}

void
spawn_workload(Run& run, const std::shared_ptr<FaultWorld>& w,
               bool killable)
{
    // vthread 0: the monitor. Advances the injector clock (firing the
    // flap at some explored yield; placement reads it on the next call),
    // beats its own host and polls the workers' leases. Capped at 3
    // polls: with dead_after = 3 the in-run detector can reach Suspect
    // but never Dead, so a starved-but-alive host is never killed mid-run
    // — the Dead verdict is driven deterministically in at_end.
    run.spawn("monitor-h0", [w] {
        try {
            for (int round = 0; round < 3; round++) {
                w->injector->step();
                w->beat(0, 0);
                w->detector->poll(w->ctxs[0]->mem());
                cxl::HeapOffset p = w->alloc.allocate(*w->ctxs[0], 1024);
                if (p != 0) {
                    w->alloc.deallocate(*w->ctxs[0], p);
                }
            }
        } catch (const sched::VthreadKilled&) {
            w->pod.mark_crashed(std::move(w->ctxs[0]));
        }
    });
    // vthreads 1, 2 (host 1): beat the lease between ops while remote-
    // freeing interleaved halves of host 0's blocks across the fabric.
    for (int i = 1; i <= 2; i++) {
        run.spawn(
            "worker-h1-" + std::to_string(i),
            [w, i] {
                try {
                    for (std::size_t n = static_cast<std::size_t>(i - 1);
                         n < w->blocks.size(); n += 2) {
                        w->beat(i, 1);
                        w->alloc.deallocate(*w->ctxs[i], w->blocks[n]);
                    }
                } catch (const sched::VthreadKilled&) {
                    w->pod.mark_crashed(std::move(w->ctxs[i]));
                }
            },
            killable);
    }
}

TEST(SchedFaults, SuspicionRacesBeatsAndRemoteFreesWithoutFalseDeaths)
{
    Options opt;
    opt.seed = 107;
    opt.schedules = 48;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<FaultWorld>();
        spawn_workload(run, w, /*killable=*/false);
        run.at_end([w](const sched::RunEnd&) {
            settle_faults(*w);
            // One flap = exactly two health transitions on that edge,
            // whatever the schedule did around it.
            if (w->topo.edge_epoch(0, 1) != 2) {
                throw OracleFailure("edge epoch " +
                                    std::to_string(
                                        w->topo.edge_epoch(0, 1)) +
                                    " after one flap");
            }
            // However suspicion interleaved with the beats, no host may
            // have been declared Dead: the monitor's 3 polls leave at
            // most 2 consecutive misses, below dead_after.
            if (w->detector->deaths() != 0) {
                throw OracleFailure("live host declared Dead");
            }
            // Clear whatever misses the schedule left behind (a beat
            // followed by a poll resets host 1 to Alive), then force one
            // full suspect round trip: two beat-free polls push host 1 to
            // Suspect — still short of dead_after — and a beat clears it.
            cxl::MemSession& mem = w->ctxs[0]->mem();
            w->beat(1, 1);
            w->detector->poll(mem);
            if (w->detector->misses(1) != 0) {
                throw OracleFailure("beat did not clear the miss count");
            }
            w->detector->poll(mem);
            w->detector->poll(mem);
            if (w->detector->health(1) != pod::HostHealth::Suspect) {
                throw OracleFailure("missed leases did not raise Suspect");
            }
            w->beat(1, 1);
            w->detector->poll(mem);
            if (w->detector->health(1) != pod::HostHealth::Alive ||
                w->detector->false_suspects() == 0) {
                throw OracleFailure("suspect host did not return to Alive");
            }
            sched::fail_unless_ok(w->alloc.audit(mem));
        });
    });
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
}

TEST(SchedFaults, KillAWorkerAtAnyYieldThenDetectAdoptRecoverAndSweep)
{
    Options opt;
    opt.seed = 109;
    opt.schedules = 64;
    opt.crash = true;
    opt.crash_horizon = 400;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<FaultWorld>();
        spawn_workload(run, w, /*killable=*/true);
        run.at_end([w](const sched::RunEnd& end) {
            settle_faults(*w);
            cxl::MemSession& monitor_mem = w->ctxs[0]->mem();
            if (end.killed != kNoVthread) {
                // The kill hit a host-1 worker (the monitor is not
                // killable); the whole host goes with it — its sibling's
                // context is dropped without writeback and the lease
                // falls silent.
                int sibling = end.killed == 1 ? 2 : 1;
                if (w->ctxs[sibling] != nullptr) {
                    w->pod.mark_crashed(std::move(w->ctxs[sibling]),
                                        pod::Pod::CrashSeverity::Host);
                }
                // The monitor keeps its cadence; with no beats arriving,
                // consecutive misses must reach the Dead verdict.
                std::vector<pod::HostId> dead;
                for (int r2 = 0; r2 < 8 && dead.empty(); r2++) {
                    w->beat(0, 0);
                    dead = w->detector->poll(monitor_mem);
                }
                if (dead.size() != 1 || dead[0] != 1) {
                    throw OracleFailure("host death not detected");
                }
                if (w->detector->health(1) != pod::HostHealth::Dead) {
                    throw OracleFailure("dead host not marked Dead");
                }
                // Adopt every crashed slot on the survivor and run the
                // ordered multi-shard recovery; the recovered identity
                // must be able to allocate again.
                for (cxl::ThreadId tid : w->pod.crashed_threads()) {
                    auto rec = w->pod.adopt_thread(w->procs[0], tid);
                    w->alloc.recover(*rec);
                    cxl::HeapOffset p = w->alloc.allocate(*rec, 1024);
                    if (p == 0) {
                        throw OracleFailure(
                            "allocation failed after recovery");
                    }
                    w->alloc.deallocate(*rec, p);
                    w->pod.release_thread(std::move(rec));
                }
            }
            sched::fail_unless_ok(w->alloc.audit(monitor_mem));
        });
    });
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
}

} // namespace
