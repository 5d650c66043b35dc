/// @file
/// Topology-aware sharded allocation over a pod: home placement,
/// cross-host stealing on exhaustion, deterministic rejection under sparse
/// topologies, cross-host free routing, recovery, and the 1x1 pod matching
/// a bare shard operation for operation.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cxlalloc/pod_shard.h"
#include "cxlalloc/recovery.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace {

using cxl::EdgeCost;
using cxlalloc::PodShardedAllocator;
using pod::HostId;
using pod::Pod;
using pod::PodConfig;
using pod::Topology;

EdgeCost
far_edge()
{
    EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    return e;
}

/// A tiny shard geometry (2 small slabs = 64 1-KiB blocks).
cxlalloc::Config
tiny_shard_config()
{
    cxlalloc::Config cfg;
    cfg.small_slabs = 2;
    cfg.large_slabs = 2;
    cfg.huge_regions = 2;
    cfg.huge_region_size = 1 << 20;
    cfg.huge_descs_per_thread = 4;
    cfg.hazard_slots_per_thread = 4;
    return cfg;
}

/// A pod with one tiny shard per device.
struct ShardWorld {
    explicit ShardWorld(Topology topo) : cfg(tiny_shard_config())
    {
        PodConfig pc;
        pc.device = PodShardedAllocator::device_config(
            cfg, topo, cxl::CoherenceMode::PartialHwcc);
        pc.topology = topo;
        pod = std::make_unique<Pod>(pc);
        alloc = std::make_unique<PodShardedAllocator>(*pod, cfg);
        for (HostId h = 0; h < topo.hosts(); h++) {
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

    cxlalloc::Config cfg;
    std::unique_ptr<Pod> pod;
    std::unique_ptr<PodShardedAllocator> alloc;
    std::vector<pod::Process*> procs;
};

TEST(PodShard, DeviceConfigTilesOneWindowPerDevice)
{
    Topology topo = Topology::dense(4, 4, EdgeCost{}, far_edge());
    ShardWorld w(topo);
    EXPECT_EQ(w.pod->device().windows(), 4u);
    EXPECT_EQ(w.alloc->shard_count(), 4u);
    // Every shard's layout occupies exactly its window.
    for (cxl::DeviceId d = 0; d < 4; d++) {
        const cxlalloc::Layout& l = w.alloc->shard(d).layout();
        EXPECT_EQ(l.base(), w.pod->device().window_base(d));
        EXPECT_EQ(w.device_of(l.end() - 1), d);
    }
}

TEST(PodShard, HomePlacementKeepsAllocationsHostLocal)
{
    Topology topo = Topology::dense(2, 2, EdgeCost{}, far_edge());
    ShardWorld w(topo);
    for (HostId h = 0; h < 2; h++) {
        auto ctx = w.thread(h);
        for (int i = 0; i < 8; i++) {
            cxl::HeapOffset p = w.alloc->allocate(*ctx, 1024);
            ASSERT_NE(p, 0u);
            EXPECT_EQ(w.device_of(p), topo.home_of(h));
            w.alloc->deallocate(*ctx, p);
        }
        w.pod->release_thread(std::move(ctx));
    }
}

TEST(PodShard, ExhaustedHomeStealsFromNextCheapestEdge)
{
    Topology topo = Topology::dense(2, 2, EdgeCost{}, far_edge());
    ShardWorld w(topo);
    auto ctx = w.thread(0);
    std::vector<cxl::HeapOffset> held;
    std::set<cxl::DeviceId> devices;
    // Drain far past the home shard's 64-block small capacity.
    for (int i = 0; i < 96; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*ctx, 1024);
        if (p == 0) {
            break;
        }
        held.push_back(p);
        devices.insert(w.device_of(p));
    }
    EXPECT_GT(held.size(), 64u) << "steal should extend past home capacity";
    EXPECT_EQ(devices.count(0), 1u);
    EXPECT_EQ(devices.count(1), 1u) << "exhaustion must spill to device 1";
    // Home-first: the first allocations all landed at home.
    EXPECT_EQ(w.device_of(held.front()), topo.home_of(0));
    for (cxl::HeapOffset p : held) {
        w.alloc->deallocate(*ctx, p);
    }
    w.alloc->check_invariants(ctx->mem());
    w.pod->release_thread(std::move(ctx));
}

TEST(PodShard, SparseTopologyRejectsInsteadOfMisrouting)
{
    // Host 0 is wired to device 0 only: exhausting that one arm must
    // return 0 — the unreachable shard is never probed.
    Topology topo = Topology::octopus(2, 2, /*arms=*/1, EdgeCost{},
                                      far_edge());
    ShardWorld w(topo);
    auto ctx = w.thread(0);
    std::vector<cxl::HeapOffset> held;
    cxl::HeapOffset p = 0;
    while ((p = w.alloc->allocate(*ctx, 1024)) != 0) {
        EXPECT_EQ(w.device_of(p), 0);
        held.push_back(p);
        ASSERT_LE(held.size(), 256u) << "runaway allocation";
    }
    EXPECT_GT(held.size(), 0u);
    // Deterministic: still rejected on retry, and again after freeing one
    // block the next allocation succeeds — from the reachable arm.
    EXPECT_EQ(w.alloc->allocate(*ctx, 1024), 0u);
    w.alloc->deallocate(*ctx, held.back());
    held.pop_back();
    cxl::HeapOffset again = w.alloc->allocate(*ctx, 1024);
    ASSERT_NE(again, 0u);
    EXPECT_EQ(w.device_of(again), 0);
    w.alloc->deallocate(*ctx, again);
    for (cxl::HeapOffset q : held) {
        w.alloc->deallocate(*ctx, q);
    }
    w.alloc->check_invariants(ctx->mem()); // audits the reachable arm only
    w.pod->release_thread(std::move(ctx));
}

TEST(PodShard, CrossHostFreeRoutesToTheOwningShard)
{
    Topology topo = Topology::dense(2, 2, EdgeCost{}, far_edge());
    ShardWorld w(topo);
    auto t0 = w.thread(0);
    auto t1 = w.thread(1);

    // Host 0 allocates from its home; host 1 frees that memory — a remote
    // free into device 0, which host 1 reaches over its far edge.
    std::vector<cxl::HeapOffset> blocks;
    for (int i = 0; i < 16; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*t0, 1024);
        ASSERT_NE(p, 0u);
        EXPECT_EQ(w.device_of(p), 0);
        blocks.push_back(p);
    }
    std::uint64_t remote_before = t1->mem().counters().pod_remote;
    for (cxl::HeapOffset p : blocks) {
        w.alloc->deallocate(*t1, p);
    }
    EXPECT_GT(t1->mem().counters().pod_remote, remote_before)
        << "cross-host frees must traverse the edge";
    w.alloc->check_invariants(t0->mem());
    w.pod->release_thread(std::move(t0));
    w.pod->release_thread(std::move(t1));
}

TEST(PodShard, BatchedFreePartitionsByWindow)
{
    Topology topo = Topology::dense(2, 2, EdgeCost{}, far_edge());
    ShardWorld w(topo);
    auto t0 = w.thread(0);
    auto t1 = w.thread(1);
    std::vector<cxl::HeapOffset> mixed;
    for (int i = 0; i < 8; i++) {
        cxl::HeapOffset a = w.alloc->allocate(*t0, 1024);
        cxl::HeapOffset b = w.alloc->allocate(*t1, 1024);
        ASSERT_NE(a, 0u);
        ASSERT_NE(b, 0u);
        mixed.push_back(a);
        mixed.push_back(b);
    }
    // One batch spanning both windows: each shard drains its part.
    w.alloc->deallocate_batch(*t0, mixed.data(),
                              static_cast<std::uint32_t>(mixed.size()));
    w.alloc->check_invariants(t0->mem());
    w.pod->release_thread(std::move(t0));
    w.pod->release_thread(std::move(t1));
}

TEST(PodShard, RecoverSweepsEveryReachableShard)
{
    Topology topo = Topology::dense(2, 2, EdgeCost{}, far_edge());
    ShardWorld w(topo);
    auto victim = w.thread(0);
    cxl::ThreadId vtid = victim->tid();
    // Leave allocations in both windows (home + a forced steal via direct
    // shard use), then crash.
    cxl::HeapOffset home_block = w.alloc->allocate(*victim, 1024);
    ASSERT_NE(home_block, 0u);
    cxl::HeapOffset far_block = w.alloc->shard(1).allocate(*victim, 1024);
    ASSERT_NE(far_block, 0u);
    w.pod->mark_crashed(std::move(victim));

    auto rescuer = w.pod->adopt_thread(w.procs[0], vtid);
    w.alloc->recover(*rescuer);
    w.alloc->check_invariants(rescuer->mem());
    // The adopted slot keeps working, and the dead thread's blocks are
    // still live and freeable.
    cxl::HeapOffset p = w.alloc->allocate(*rescuer, 1024);
    ASSERT_NE(p, 0u);
    w.alloc->deallocate(*rescuer, p);
    w.alloc->deallocate(*rescuer, home_block);
    w.alloc->deallocate(*rescuer, far_block);
    w.alloc->check_invariants(rescuer->mem());
    w.pod->release_thread(std::move(rescuer));
}

/// What one fixed sequence left behind: every offset it was handed, then
/// each thread's session counters.
struct SequenceTrace {
    std::vector<cxl::HeapOffset> offsets;
    std::vector<cxl::MemEventCounters> counters;
};

/// Allocates every heap tier, frees half locally and half from a second
/// thread, crashes mid-allocation, recovers the adopted slot and keeps
/// using it. @p Heap is a bare CxlAllocator or a PodShardedAllocator: both
/// expose the same calls.
template <typename Heap>
SequenceTrace
run_fixed_sequence(Pod& pod, Heap& heap)
{
    SequenceTrace out;
    pod::Process* proc = pod.create_process();
    heap.attach(*proc);
    auto a = pod.create_thread(proc);
    heap.attach_thread(*a);
    auto b = pod.create_thread(proc);
    heap.attach_thread(*b);

    // Small (one class per small slab), large and huge (1 MiB regions)
    // blocks of tiny_shard_config.
    for (std::uint64_t size : {8u, 64u, 4096u, 600u << 10}) {
        out.offsets.push_back(heap.allocate(*a, size));
    }
    for (std::size_t i = 0; i < out.offsets.size(); i++) {
        heap.deallocate(i % 2 == 0 ? *a : *b, out.offsets[i]);
    }

    a->arm_crash(cxlalloc::crashpoint::kAfterRecord, 1);
    EXPECT_THROW(heap.allocate(*a, 64), pod::ThreadCrashed);
    out.counters.push_back(a->mem().counters());
    cxl::ThreadId tid = a->tid();
    pod.mark_crashed(std::move(a));
    auto rescuer = pod.adopt_thread(proc, tid);
    heap.recover(*rescuer);
    cxl::HeapOffset p = heap.allocate(*rescuer, 64);
    out.offsets.push_back(p);
    heap.deallocate(*rescuer, p);

    out.counters.push_back(b->mem().counters());
    out.counters.push_back(rescuer->mem().counters());
    pod.release_thread(std::move(b));
    pod.release_thread(std::move(rescuer));
    return out;
}

TEST(PodShard, TrivialPodMatchesBareAllocator)
{
    // A single host is the 1x1 pod: routing through the sharded heap must
    // hand out the same offsets and issue the same memory operations as
    // the bare shard it wraps.
    cxlalloc::Config cfg = tiny_shard_config();

    PodConfig bare_pc;
    bare_pc.device = cxlalloc::Layout(cfg).device_config(
        cxl::CoherenceMode::PartialHwcc);
    Pod bare_pod(bare_pc);
    cxlalloc::CxlAllocator bare(bare_pod, cfg);
    SequenceTrace want = run_fixed_sequence(bare_pod, bare);

    PodConfig pc;
    pc.device = PodShardedAllocator::device_config(
        cfg, pc.topology, cxl::CoherenceMode::PartialHwcc);
    Pod pod(pc);
    PodShardedAllocator sharded(pod, cfg);
    SequenceTrace got = run_fixed_sequence(pod, sharded);

    for (cxl::HeapOffset off : want.offsets) {
        EXPECT_NE(off, 0u);
    }
    EXPECT_EQ(got.offsets, want.offsets);
    ASSERT_EQ(got.counters.size(), want.counters.size());
    for (std::size_t i = 0; i < want.counters.size(); i++) {
        EXPECT_TRUE(got.counters[i] == want.counters[i]) << "thread " << i;
    }
    EXPECT_GT(want.counters.back().loads, 0u);
}

} // namespace
