/// @file
/// Real-thread (TSan-targeted) exercise of the tiered heap: worker
/// threads churn stride-split allocations and bump slab heat through
/// note_access while a migrator thread runs epochs concurrently —
/// promotions/demotions race live allocation and free traffic on every
/// window. Workers never touch migratable payloads (the migrator owns
/// the published objects), so every cross-thread interaction goes
/// through the allocator's own synchronization or the heat atomics.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cxlalloc/migrate.h"
#include "pod/pod.h"
#include "pod/topology.h"
#include "sync/detectable_cas.h"

namespace {

using cxlalloc::HotSlabMigrator;
using cxlalloc::PodShardedAllocator;
using pod::Pod;
using pod::PodConfig;
using pod::Topology;

constexpr std::uint32_t kCells = 32;
constexpr std::uint64_t kObjSize = 64;
constexpr int kWorkers = 3;

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    return e;
}

TEST(TieredThreads, ConcurrentMigrationAndChurnStayConsistent)
{
    cxlalloc::Config cfg;
    cfg.small_slabs = 32;
    cfg.large_slabs = 8;
    cfg.huge_regions = 2;
    cfg.huge_region_size = 1 << 20;
    cfg.huge_descs_per_thread = 4;
    cfg.hazard_slots_per_thread = 4;
    cfg.app_sync_bytes = kCells * 8;
    cfg.dram_percent = 50;
    cxlalloc::Config dram_cfg = cfg;
    // Every thread that stride-places into DRAM detaches an active slab
    // there (setup + workers + the migrator), so the DRAM shard needs
    // slabs beyond the claimant count or promotions abort on capacity.
    dram_cfg.small_slabs = 8;
    dram_cfg.app_sync_bytes = 0;

    Topology topo = Topology::with_local_dram(
        Topology::dense(1, 2, cxl::EdgeCost{}, far_edge()));
    PodConfig pc;
    pc.device = PodShardedAllocator::device_config(
        cfg, topo, cxl::CoherenceMode::PartialHwcc,
        /*simulate_cache=*/false, 0, &dram_cfg);
    pc.topology = topo;
    Pod pod(pc);
    PodShardedAllocator alloc(pod, cfg, &dram_cfg);
    pod::Process* proc = pod.create_process(0);
    alloc.attach(*proc);

    HotSlabMigrator::Options mopt;
    mopt.max_moves_per_epoch = 64;
    HotSlabMigrator migrator(alloc, mopt);
    cxl::DeviceId home = topo.home_of(0);
    cxl::HeapOffset cells = alloc.shard(home).layout().app_sync();
    migrator.set_cell_table(cells, kCells);
    auto cell_of = [&](std::uint32_t i) {
        return cells + static_cast<cxl::HeapOffset>(i) * 8;
    };

    // Populate: one published 64-B object per cell, from the main thread.
    auto setup = pod.create_thread(proc);
    alloc.attach_thread(*setup);
    for (std::uint32_t i = 0; i < kCells; i++) {
        cxl::HeapOffset off = alloc.allocate(*setup, kObjSize);
        ASSERT_NE(off, 0u);
        auto res = alloc.shard(home).cell_publish(
            *setup, cell_of(i), 0, static_cast<std::uint32_t>(off >> 3));
        ASSERT_TRUE(res.success);
    }

    std::vector<std::unique_ptr<pod::ThreadContext>> worker_ctx;
    for (int t = 0; t < kWorkers; t++) {
        worker_ctx.push_back(pod.create_thread(proc));
        alloc.attach_thread(*worker_ctx.back());
    }
    auto mig_ctx = pod.create_thread(proc);
    alloc.attach_thread(*mig_ctx);

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; t++) {
        threads.emplace_back([&, t] {
            pod::ThreadContext& ctx = *worker_ctx[t];
            std::vector<cxl::HeapOffset> mine;
            for (int i = 0; i < 2000; i++) {
                cxl::HeapOffset p = alloc.allocate(ctx, kObjSize);
                if (p == 0) {
                    failures.fetch_add(1);
                    break;
                }
                mine.push_back(p);
                if (mine.size() > 16) {
                    alloc.deallocate(ctx, mine.front());
                    mine.erase(mine.begin());
                }
                // Heat the worker's slice of the published set: reads go
                // through the atomic cell word; the payload is never
                // touched (the migrator may be moving it right now).
                std::uint32_t c = static_cast<std::uint32_t>(i + t) %
                                  (kCells / 2);
                std::uint32_t val = cxlsync::DcasWord::value(
                    ctx.mem().atomic_load64(cell_of(c)));
                if (val != 0) {
                    migrator.note_access(
                        static_cast<cxl::HeapOffset>(val) << 3);
                }
            }
            for (cxl::HeapOffset p : mine) {
                alloc.deallocate(ctx, p);
            }
        });
    }
    threads.emplace_back([&] {
        for (int e = 0; e < 40 && !stop.load(); e++) {
            migrator.run_epoch(*mig_ctx);
            std::this_thread::yield();
        }
    });

    for (std::size_t t = 0; t < threads.size(); t++) {
        if (t == threads.size() - 1) {
            stop.store(true);
        }
        threads[t].join();
    }
    EXPECT_EQ(failures.load(), 0);

    // Deterministic tail: with the workers quiet, one hot CXL resident
    // must promote within two epochs regardless of racing history.
    cxl::DeviceId dram = topo.dram_device_of(0);
    std::uint32_t hot_cell = kCells - 1;
    for (int e = 0; e < 2; e++) {
        std::uint32_t val = cxlsync::DcasWord::value(
            setup->mem().atomic_load64(cell_of(hot_cell)));
        ASSERT_NE(val, 0u);
        auto off = static_cast<cxl::HeapOffset>(val) << 3;
        if (pod.device().device_of(off) == dram) {
            break;
        }
        for (int i = 0; i < 64; i++) {
            migrator.note_access(off);
        }
        migrator.run_epoch(*mig_ctx);
    }
    std::uint32_t final_val = cxlsync::DcasWord::value(
        setup->mem().atomic_load64(cell_of(hot_cell)));
    ASSERT_NE(final_val, 0u);
    EXPECT_EQ(pod.device().device_of(
                  static_cast<cxl::HeapOffset>(final_val) << 3),
              dram);
    EXPECT_GT(migrator.promotions(), 0u);

    // Quiescent audit of every window, and the heap still round-trips.
    cxlalloc::AuditReport audit = alloc.audit(setup->mem());
    EXPECT_TRUE(audit.ok()) << audit.to_string();
    cxl::HeapOffset p = alloc.allocate(*setup, kObjSize);
    ASSERT_NE(p, 0u);
    alloc.deallocate(*setup, p);
}

} // namespace
