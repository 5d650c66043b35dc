/// @file
/// Cross-host steal races on a 2-host x 2-device pod under explored
/// schedules: host 0's owner churns its home shard while host 1's threads
/// remote-free the owner's blocks over the far edge, racing the remote
/// counter to zero and the resulting steal — then the crash variant kills
/// any participant, adopts the slot, recovers every shard (NMP-batch shard
/// first) and audits BOTH shards.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cxlalloc/pod_shard.h"
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

constexpr int kBlocks = 48;

struct PodStealWorld {
    PodStealWorld()
        : cfg(make_config()),
          topo(pod::Topology::dense(2, 2, cxl::EdgeCost{}, far_edge())),
          pod(make_pod(cfg, topo)), alloc(pod, cfg)
    {
        for (pod::HostId h = 0; h < 2; h++) {
            procs.push_back(pod.create_process(h));
            alloc.attach(*procs.back());
        }
        // vthread 0 on host 0 (the owner), vthreads 1-2 on host 1.
        for (int i = 0; i < 3; i++) {
            ctxs.push_back(pod.create_thread(procs[i == 0 ? 0 : 1]));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        // Pre-state: the owner fills blocks in its home shard that the
        // remote host will free across the fabric.
        for (int n = 0; n < kBlocks; n++) {
            blocks.push_back(alloc.allocate(*ctxs[0], 1024));
        }
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
        return cfg;
    }

    static pod::PodConfig
    make_pod(const cxlalloc::Config& cfg, const pod::Topology& topo)
    {
        pod::PodConfig pc;
        // No cache simulation: the end oracle reads every slab descriptor
        // from a single session, which under simulated caches could see
        // legitimately-unflushed owner-local state.
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
    std::vector<cxl::HeapOffset> blocks;
};

void
spawn_workload(Run& run, const std::shared_ptr<PodStealWorld>& w,
               bool killable)
{
    // vthread 0: the owner keeps churning its home shard.
    run.spawn(
        "owner-h0",
        [w] {
            try {
                for (int n = 0; n < 8; n++) {
                    cxl::HeapOffset p = w->alloc.allocate(*w->ctxs[0], 1024);
                    w->alloc.deallocate(*w->ctxs[0], p);
                }
            } catch (const sched::VthreadKilled&) {
                w->pod.mark_crashed(std::move(w->ctxs[0]));
            }
        },
        killable);
    // vthreads 1, 2 (host 1): remote-free interleaved halves of the
    // owner's home-shard blocks across the fabric edge.
    for (int i = 1; i <= 2; i++) {
        run.spawn(
            "remote-h1-" + std::to_string(i),
            [w, i] {
                try {
                    for (std::size_t n = static_cast<std::size_t>(i - 1);
                         n < w->blocks.size(); n += 2) {
                        w->alloc.deallocate(*w->ctxs[i], w->blocks[n]);
                    }
                } catch (const sched::VthreadKilled&) {
                    w->pod.mark_crashed(std::move(w->ctxs[i]));
                }
            },
            killable);
    }
}

TEST(SchedPodSteal, CrossHostFreeRacesKeepBothShardsConsistent)
{
    Options opt;
    opt.seed = 83;
    opt.schedules = 48;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<PodStealWorld>();
        spawn_workload(run, w, /*killable=*/false);
        run.at_end([w](const sched::RunEnd&) {
            sched::fail_unless_ok(w->alloc.audit(w->ctxs[0]->mem()));
        });
    });
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
}

TEST(SchedPodSteal, KillAnyParticipantThenRecoverAllShardsAndSweep)
{
    Options opt;
    opt.seed = 89;
    opt.schedules = 64;
    opt.crash = true;
    opt.crash_horizon = 400;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<PodStealWorld>();
        spawn_workload(run, w, /*killable=*/true);
        run.at_end([w](const sched::RunEnd& end) {
            std::unique_ptr<pod::ThreadContext> adopted;
            if (end.killed != kNoVthread) {
                // Adopt on the crashed thread's own host so the rescuer
                // reaches everything the dead thread touched.
                pod::Process* host_proc =
                    w->procs[end.killed == 0 ? 0 : 1];
                adopted = w->pod.adopt_thread(host_proc,
                                              w->tids[end.killed]);
                w->alloc.recover(*adopted);
            }
            cxl::MemSession& mem = adopted != nullptr
                                       ? adopted->mem()
                                       : w->ctxs[0]->mem();
            sched::fail_unless_ok(w->alloc.audit(mem));
            if (adopted != nullptr) {
                // The recovered slot must still be able to allocate, and
                // the allocation lands on the adopter's home shard.
                cxl::HeapOffset p = w->alloc.allocate(*adopted, 1024);
                if (p == 0) {
                    throw OracleFailure("allocation failed after recovery");
                }
                w->alloc.deallocate(*adopted, p);
            }
        });
    });
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
}

} // namespace
