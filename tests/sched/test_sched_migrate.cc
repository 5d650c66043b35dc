/// @file
/// Hot-slab migration raced against allocation churn and reference-cell
/// updates on a tiered (CXL + private DRAM window) pod under explored
/// schedules: vthread 0 ping-pongs published objects between the tiers
/// while vthread 1 churns the shared slabs and vthread 2 republishes the
/// same cells — the publish CAS decides each race. The crash variant
/// kills any participant at any yield, adopts the slot, runs
/// HotSlabMigrator::recover (migration record first, then every shard)
/// and checks the heap audit plus cell sanity over ALL THREE windows.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cxlalloc/migrate.h"
#include "pod/pod.h"
#include "pod/topology.h"
#include "sched/explorer.h"
#include "sync/detectable_cas.h"

namespace {

using sched::Explorer;
using sched::kNoVthread;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;

constexpr std::uint32_t kCells = 4;
constexpr std::uint64_t kObjSize = 64;
constexpr std::uint8_t kFill = 0x42;

struct MigrateWorld {
    MigrateWorld()
        : cfg(make_config()), dram_cfg(make_dram_config(cfg)),
          topo(pod::Topology::with_local_dram(
              pod::Topology::dense(1, 2, cxl::EdgeCost{}, far_edge()))),
          pod(make_pod(cfg, dram_cfg, topo)), alloc(pod, cfg, &dram_cfg),
          migrator(alloc)
    {
        procs.push_back(pod.create_process(0));
        alloc.attach(*procs.back());
        for (int i = 0; i < 3; i++) {
            ctxs.push_back(pod.create_thread(procs[0]));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        home = topo.home_of(0);
        dram = topo.dram_device_of(0);
        cells = alloc.shard(home).layout().app_sync();
        migrator.set_cell_table(cells, kCells);
        // Pre-state: one published object per cell, plus churn fodder.
        for (std::uint32_t i = 0; i < kCells; i++) {
            publish_fresh(*ctxs[0], cell(i));
        }
    }

    cxl::HeapOffset
    cell(std::uint32_t i) const
    {
        return cells + static_cast<cxl::HeapOffset>(i) * 8;
    }

    std::uint32_t
    read_cell(pod::ThreadContext& ctx, cxl::HeapOffset c)
    {
        return alloc.shard(home).dcas().read(ctx.mem(), c);
    }

    /// Allocate + fill + one-shot publish over whatever the cell holds;
    /// the loser of the CAS race is freed (app-side update protocol).
    void
    publish_fresh(pod::ThreadContext& ctx, cxl::HeapOffset c)
    {
        std::uint32_t val = read_cell(ctx, c);
        cxl::HeapOffset fresh = alloc.allocate(ctx, kObjSize);
        if (fresh == 0) {
            return;
        }
        std::uint8_t buf[kObjSize];
        for (std::uint8_t& b : buf) {
            b = kFill;
        }
        ctx.mem().write_bytes(fresh, buf, kObjSize);
        ctx.mem().flush(fresh, kObjSize);
        ctx.mem().fence();
        auto res = alloc.shard(home).cell_publish(
            ctx, c, val, static_cast<std::uint32_t>(fresh >> 3));
        cxl::HeapOffset loser =
            res.success ? static_cast<cxl::HeapOffset>(val) << 3 : fresh;
        if (loser != 0) {
            alloc.deallocate(ctx, loser);
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
        cfg.app_sync_bytes = kCells * 8;
        cfg.dram_percent = 50;
        return cfg;
    }

    static cxlalloc::Config
    make_dram_config(const cxlalloc::Config& base)
    {
        cxlalloc::Config d = base;
        d.small_slabs = 2;
        d.app_sync_bytes = 0;
        return d;
    }

    static pod::PodConfig
    make_pod(const cxlalloc::Config& cfg, const cxlalloc::Config& dram_cfg,
             const pod::Topology& topo)
    {
        pod::PodConfig pc;
        // No cache simulation: the end oracle reads every slab descriptor
        // from a single session (see test_sched_pod_steal.cc).
        pc.device = cxlalloc::PodShardedAllocator::device_config(
            cfg, topo, cxl::CoherenceMode::PartialHwcc,
            /*simulate_cache=*/false, 0, &dram_cfg);
        pc.topology = topo;
        return pc;
    }

    cxlalloc::Config cfg;
    cxlalloc::Config dram_cfg;
    pod::Topology topo;
    pod::Pod pod;
    cxlalloc::PodShardedAllocator alloc;
    cxlalloc::HotSlabMigrator migrator;
    std::vector<pod::Process*> procs;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    cxl::DeviceId home = 0;
    cxl::DeviceId dram = 0;
    cxl::HeapOffset cells = 0;
};

/// The audit of every shard (both CXL windows and the DRAM window), plus
/// cell sanity: every nonzero cell names a small block of a valid window.
void
sweep_tiered_invariant(MigrateWorld& w, cxl::MemSession& mem)
{
    sched::fail_unless_ok(w.alloc.audit(mem));
    for (std::uint32_t i = 0; i < kCells; i++) {
        std::uint32_t val =
            cxlsync::DcasWord::value(mem.atomic_load64(w.cell(i)));
        if (val == 0) {
            continue;
        }
        auto off = static_cast<cxl::HeapOffset>(val) << 3;
        cxl::DeviceId dev = w.pod.device().device_of(off);
        if (dev >= w.alloc.shard_count() ||
            !w.alloc.shard(dev).layout().in_small_data(off)) {
            throw OracleFailure("cell " + std::to_string(i) +
                                " names an out-of-heap offset");
        }
    }
}

void
spawn_workload(Run& run, const std::shared_ptr<MigrateWorld>& w,
               bool killable)
{
    // vthread 0: the migrator ping-pongs every published object between
    // the CXL home shard and the private DRAM window.
    run.spawn(
        "migrator",
        [w] {
            try {
                for (int round = 0; round < 3; round++) {
                    for (std::uint32_t c = 0; c < kCells; c++) {
                        std::uint32_t val =
                            w->read_cell(*w->ctxs[0], w->cell(c));
                        if (val == 0) {
                            continue;
                        }
                        cxl::DeviceId dev = w->pod.device().device_of(
                            static_cast<cxl::HeapOffset>(val) << 3);
                        cxl::DeviceId target =
                            dev == w->dram ? w->home : w->dram;
                        w->migrator.debug_migrate_cell(*w->ctxs[0],
                                                       w->cell(c), target);
                    }
                }
            } catch (const sched::VthreadKilled&) {
                w->pod.mark_crashed(std::move(w->ctxs[0]));
            }
        },
        killable);
    // vthread 1: allocation churn in the same slabs the migrator copies
    // into and out of (tier-split by the stride policy).
    run.spawn(
        "churn",
        [w] {
            try {
                for (int n = 0; n < 10; n++) {
                    cxl::HeapOffset p = w->alloc.allocate(*w->ctxs[1],
                                                          kObjSize);
                    if (p != 0) {
                        w->alloc.deallocate(*w->ctxs[1], p);
                    }
                }
            } catch (const sched::VthreadKilled&) {
                w->pod.mark_crashed(std::move(w->ctxs[1]));
            }
        },
        killable);
    // vthread 2: republishes the cells the migrator is moving — the
    // detectable-CAS publish decides every race, the loser is freed.
    run.spawn(
        "updates",
        [w] {
            try {
                for (int n = 0; n < 6; n++) {
                    w->publish_fresh(*w->ctxs[2],
                                     w->cell(static_cast<std::uint32_t>(n) %
                                             kCells));
                }
            } catch (const sched::VthreadKilled&) {
                w->pod.mark_crashed(std::move(w->ctxs[2]));
            }
        },
        killable);
}

TEST(SchedMigrate, MigrationRacesKeepAllTiersConsistent)
{
    Options opt;
    opt.seed = 101;
    opt.schedules = 48;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<MigrateWorld>();
        spawn_workload(run, w, /*killable=*/false);
        run.at_end([w](const sched::RunEnd&) {
            sweep_tiered_invariant(*w, w->ctxs[0]->mem());
        });
    });
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
}

TEST(SchedMigrate, KillAnyParticipantThenMigratorRecoverAndSweep)
{
    Options opt;
    opt.seed = 103;
    opt.schedules = 64;
    opt.crash = true;
    opt.crash_horizon = 500;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<MigrateWorld>();
        spawn_workload(run, w, /*killable=*/true);
        run.at_end([w](const sched::RunEnd& end) {
            std::unique_ptr<pod::ThreadContext> adopted;
            if (end.killed != kNoVthread) {
                adopted = w->pod.adopt_thread(w->procs[0],
                                              w->tids[end.killed]);
                // Migration-aware recovery: drives any in-flight stage
                // machine to completion, then every shard.
                w->migrator.recover(*adopted);
            }
            cxl::MemSession& mem = adopted != nullptr
                                       ? adopted->mem()
                                       : w->ctxs[0]->mem();
            sweep_tiered_invariant(*w, mem);
            if (adopted != nullptr) {
                cxl::HeapOffset p = w->alloc.allocate(*adopted, kObjSize);
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
