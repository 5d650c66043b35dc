/// @file
/// Real-thread (TSan-targeted) exercise of the pod fault layer: worker
/// threads on both hosts beat their liveness leases between allocator
/// ops while a monitor thread concurrently polls the detector, flaps an
/// edge's runtime health (EdgeStateCell atomics, which every allocation
/// and free reads lock-free), and parks / replays frees across the
/// flapping edge. The monitor owns ALL traffic over the flapped edge, so
/// each Down window is sequenced against the frees it parks — every other
/// cross-thread interaction (lease cells, edge-health cells, shard free
/// paths, the park list) races for real.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cxlalloc/pod_shard.h"
#include "pod/liveness.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace {

using cxl::EdgeState;
using cxlalloc::PodShardedAllocator;
using pod::Pod;
using pod::PodConfig;
using pod::Topology;

constexpr std::uint64_t kObjSize = 1024;
constexpr int kWorkersPerHost = 2;
constexpr int kWorkerIters = 1200;
constexpr int kMonitorFlips = 200;
constexpr std::uint32_t kCrossBlocks = 64;

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    return e;
}

TEST(FaultThreads, ConcurrentBeatsPollsFlapsAndParkedFreesStayConsistent)
{
    cxlalloc::Config cfg;
    cfg.small_slabs = 32;
    cfg.large_slabs = 8;
    cfg.huge_regions = 2;
    cfg.huge_region_size = 1 << 20;
    cfg.huge_descs_per_thread = 4;
    cfg.hazard_slots_per_thread = 4;
    cfg.app_sync_bytes = pod::kLeaseTableBytes;

    Topology topo = Topology::dense(2, 2, cxl::EdgeCost{}, far_edge());
    PodConfig pc;
    pc.device = PodShardedAllocator::device_config(
        cfg, topo, cxl::CoherenceMode::PartialHwcc,
        /*simulate_cache=*/false);
    pc.topology = topo;
    Pod pod(pc);
    PodShardedAllocator alloc(pod, cfg);
    std::vector<pod::Process*> procs;
    for (pod::HostId h = 0; h < 2; h++) {
        procs.push_back(pod.create_process(h));
        alloc.attach(*procs.back());
    }

    cxl::HeapOffset lease_base = alloc.shard(0).layout().app_sync();
    pod::LivenessConfig lcfg;
    lcfg.lease_base = lease_base;
    lcfg.suspect_after = 2;
    // Dead is out of reach: OS scheduling may starve a beating thread
    // for any number of polls, and a host declared Dead mid-run would
    // flip slots under the live workers.
    lcfg.dead_after = 1u << 30;
    pod::LivenessDetector detector(pod, lcfg);

    // Device-1 blocks the monitor will free across the flapping edge
    // (parked while Down, replayed when Up comes back).
    auto setup_h1 = pod.create_thread(procs[1]);
    alloc.attach_thread(*setup_h1);
    std::vector<cxl::HeapOffset> cross;
    for (std::uint32_t i = 0; i < kCrossBlocks; i++) {
        cxl::HeapOffset p = alloc.allocate(*setup_h1, kObjSize);
        ASSERT_NE(p, 0u);
        ASSERT_EQ(pod.device().device_of(p), 1);
        cross.push_back(p);
    }

    std::vector<std::unique_ptr<pod::ThreadContext>> worker_ctx;
    std::vector<pod::HostId> worker_host;
    for (pod::HostId h = 0; h < 2; h++) {
        for (int t = 0; t < kWorkersPerHost; t++) {
            worker_ctx.push_back(pod.create_thread(procs[h]));
            alloc.attach_thread(*worker_ctx.back());
            worker_host.push_back(h);
        }
    }
    auto monitor_ctx = pod.create_thread(procs[0]);
    alloc.attach_thread(*monitor_ctx);

    std::uint64_t epoch0 = topo.edge_epoch(0, 1);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;

    // Workers: beat the lease, churn home-shard allocations. Their hosts'
    // edges never flap, so their sessions never cross a Down edge — the
    // edge-health reads on their alloc/free paths still race the
    // monitor's flips of the shared health table.
    for (std::size_t t = 0; t < worker_ctx.size(); t++) {
        threads.emplace_back([&, t] {
            pod::ThreadContext& ctx = *worker_ctx[t];
            pod::HostId host = worker_host[t];
            std::vector<cxl::HeapOffset> mine;
            for (int i = 0; i < kWorkerIters; i++) {
                pod::LivenessDetector::beat(ctx.mem(), lease_base, host);
                cxl::HeapOffset p = alloc.allocate(ctx, kObjSize);
                if (p == 0) {
                    failures.fetch_add(1);
                    break;
                }
                mine.push_back(p);
                if (mine.size() > 12) {
                    alloc.deallocate(ctx, mine.front());
                    mine.erase(mine.begin());
                }
            }
            for (cxl::HeapOffset p : mine) {
                alloc.deallocate(ctx, p);
            }
        });
    }

    // Monitor: flap edge (0, 1), trickle the cross frees (parking while
    // Down), replay parked frees when Up, beat its own host, and poll
    // everyone's leases.
    threads.emplace_back([&] {
        std::size_t next_cross = 0;
        for (int f = 0; f < kMonitorFlips; f++) {
            bool down = (f % 2) == 0;
            topo.set_edge_state(0, 1, down ? EdgeState::Down
                                           : EdgeState::Up);
            if (next_cross < cross.size()) {
                alloc.deallocate(*monitor_ctx, cross[next_cross++]);
            }
            if (!down) {
                alloc.replay_parked(*monitor_ctx);
            }
            pod::LivenessDetector::beat(monitor_ctx->mem(), lease_base, 0);
            if (f % 4 == 0) {
                detector.poll(monitor_ctx->mem());
            }
            std::this_thread::yield();
        }
        // Drain the remaining cross blocks with the edge restored.
        topo.set_edge_state(0, 1, EdgeState::Up);
        while (next_cross < cross.size()) {
            alloc.deallocate(*monitor_ctx, cross[next_cross++]);
        }
        alloc.replay_parked(*monitor_ctx);
    });

    for (std::thread& th : threads) {
        th.join();
    }
    EXPECT_EQ(failures.load(), 0);

    // Quiescent verdicts: nothing died, the flap count is exactly the
    // epoch delta (nobody else touched that edge), and a final beat+poll
    // returns both hosts to Alive whatever suspicion was in flight.
    EXPECT_EQ(detector.deaths(), 0u);
    EXPECT_EQ(topo.edge_epoch(0, 1) - epoch0,
              static_cast<std::uint64_t>(kMonitorFlips) + 1);
    pod::LivenessDetector::beat(monitor_ctx->mem(), lease_base, 0);
    pod::LivenessDetector::beat(setup_h1->mem(), lease_base, 1);
    detector.poll(monitor_ctx->mem());
    EXPECT_EQ(detector.health(0), pod::HostHealth::Alive);
    EXPECT_EQ(detector.health(1), pod::HostHealth::Alive);

    // Exact block accounting on both shards, nothing parked.
    cxlalloc::AuditReport audit = alloc.audit(monitor_ctx->mem());
    EXPECT_TRUE(audit.ok()) << audit.to_string();
    EXPECT_EQ(audit.parked_frees, 0u);
}

} // namespace
