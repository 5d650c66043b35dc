/// @file
/// Tiered placement and hot-slab migration: stride-split placement into
/// the host-private DRAM window, capacity fallback to the CXL probe
/// order, the epoch promote/demote policy, inertness on DRAM-less
/// topologies, and a registry-driven crash sweep over every "migrate.*"
/// point with an exact no-lost/no-duplicated-blocks oracle.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cxlalloc/migrate.h"
#include "cxlalloc/size_class.h"
#include "fixture.h"
#include "pod/crashpoint.h"
#include "pod/pod.h"
#include "pod/topology.h"
#include "sync/detectable_cas.h"

namespace {

using cxlalloc::HotSlabMigrator;
using cxlalloc::PodShardedAllocator;
using pod::HostId;
using pod::Pod;
using pod::PodConfig;
using pod::ThreadCrashed;
using pod::Topology;

constexpr std::uint32_t kCells = 16;
constexpr std::uint64_t kObjSize = 64;

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    return e;
}

/// A 1-host (default) pod over 2 CXL devices, optionally extended with a
/// per-host private DRAM window, plus a migrator over the sharded heap.
struct TieredWorld {
    explicit TieredWorld(
        std::uint32_t dram_percent, bool tiered = true, HostId hosts = 1,
        cxl::CoherenceMode mode = cxl::CoherenceMode::PartialHwcc,
        std::uint32_t unsized_limit = cxlalloc::Config{}.unsized_limit)
    {
        cfg.small_slabs = 4;
        cfg.large_slabs = 2;
        cfg.huge_regions = 2;
        cfg.huge_region_size = 1 << 20;
        cfg.huge_descs_per_thread = 4;
        cfg.hazard_slots_per_thread = 4;
        cfg.app_sync_bytes = kCells * 8;
        cfg.dram_percent = dram_percent;
        cfg.unsized_limit = unsized_limit;
        dram_cfg = cfg;
        dram_cfg.small_slabs = 2;
        dram_cfg.app_sync_bytes = 0;

        Topology base = Topology::dense(hosts, 2, cxl::EdgeCost{}, far_edge());
        topo = tiered ? Topology::with_local_dram(base) : base;

        PodConfig pc;
        pc.device = PodShardedAllocator::device_config(
            cfg, topo, mode, /*simulate_cache=*/false, 0,
            tiered ? &dram_cfg : nullptr);
        pc.topology = topo;
        pod = std::make_unique<Pod>(pc);
        alloc = std::make_unique<PodShardedAllocator>(
            *pod, cfg, tiered ? &dram_cfg : nullptr);
        for (HostId h = 0; h < hosts; h++) {
            procs.push_back(pod->create_process(h));
            alloc->attach(*procs.back());
        }
        migrator = std::make_unique<HotSlabMigrator>(*alloc);
        migrator->set_cell_table(cell(0), kCells);
    }

    std::unique_ptr<pod::ThreadContext>
    thread(HostId host = 0)
    {
        auto ctx = pod->create_thread(procs[host]);
        alloc->attach_thread(*ctx);
        return ctx;
    }

    cxl::DeviceId home() const { return topo.home_of(0); }
    cxl::DeviceId dram() const { return topo.dram_device_of(0); }

    cxl::DeviceId device_of(cxl::HeapOffset p)
    {
        return pod->device().device_of(p);
    }

    cxl::HeapOffset
    cell(std::uint32_t i)
    {
        return alloc->shard(home()).layout().app_sync() +
               static_cast<cxl::HeapOffset>(i) * 8;
    }

    std::uint32_t
    cell_value(cxl::MemSession& mem, std::uint32_t i)
    {
        return alloc->shard(home()).dcas().read(mem, cell(i));
    }

    /// Allocates a block, fills it with @p fill, publishes it in cell @p i.
    cxl::HeapOffset
    make_object(pod::ThreadContext& ctx, std::uint32_t i, std::uint8_t fill)
    {
        cxl::HeapOffset off = alloc->allocate(ctx, kObjSize);
        EXPECT_NE(off, 0u);
        std::uint8_t buf[kObjSize];
        std::memset(buf, fill, sizeof buf);
        ctx.mem().write_bytes(off, buf, kObjSize);
        ctx.mem().flush(off, kObjSize);
        ctx.mem().fence();
        auto res = alloc->shard(home()).cell_publish(
            ctx, cell(i), 0, static_cast<std::uint32_t>(off >> 3));
        EXPECT_TRUE(res.success);
        return off;
    }

    bool
    payload_is(cxl::MemSession& mem, cxl::HeapOffset off, std::uint8_t fill)
    {
        std::uint8_t buf[kObjSize];
        mem.read_bytes(off, buf, kObjSize);
        for (std::uint8_t b : buf) {
            if (b != fill) {
                return false;
            }
        }
        return true;
    }

    /// Allocated blocks across the pod once the audit passes — the
    /// no-lost/no-duplicated-blocks oracle of the migration crash sweep.
    std::uint64_t
    live_blocks(cxl::MemSession& mem)
    {
        cxlalloc::AuditReport audit = alloc->audit(mem);
        EXPECT_TRUE(audit.ok()) << audit.to_string();
        return audit.live_blocks;
    }

    cxlalloc::Config cfg;
    cxlalloc::Config dram_cfg;
    Topology topo;
    std::unique_ptr<Pod> pod;
    std::unique_ptr<PodShardedAllocator> alloc;
    std::unique_ptr<HotSlabMigrator> migrator;
    std::vector<pod::Process*> procs;
};

TEST(TieredPlacement, StrideSplitsEligibleAllocations)
{
    TieredWorld w(/*dram_percent=*/50);
    auto ctx = w.thread();
    std::vector<cxl::HeapOffset> held;
    std::uint32_t on_dram = 0;
    for (int i = 0; i < 32; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*ctx, kObjSize);
        ASSERT_NE(p, 0u);
        held.push_back(p);
        if (w.device_of(p) == w.dram()) {
            on_dram++;
        }
    }
    EXPECT_EQ(on_dram, 16u) << "50% split must be exact over whole periods";

    // Oversize allocations (> kSmallMax) never tier to DRAM.
    for (int i = 0; i < 8; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*ctx, 2048);
        ASSERT_NE(p, 0u);
        EXPECT_NE(w.device_of(p), w.dram());
        held.push_back(p);
    }
    for (cxl::HeapOffset p : held) {
        w.alloc->deallocate(*ctx, p);
    }
    w.alloc->check_invariants(ctx->mem());
    w.pod->release_thread(std::move(ctx));
}

TEST(TieredPlacement, DramExhaustionFallsBackToCxlProbeOrder)
{
    // 100% DRAM preference against a 2-slab DRAM shard (64 1-KiB blocks):
    // the capacity limit degrades placement, never correctness.
    TieredWorld w(/*dram_percent=*/100);
    auto ctx = w.thread();
    std::vector<cxl::HeapOffset> held;
    std::uint32_t on_dram = 0;
    for (int i = 0; i < 100; i++) {
        cxl::HeapOffset p = w.alloc->allocate(*ctx, 1024);
        ASSERT_NE(p, 0u) << "fallback must absorb DRAM exhaustion";
        held.push_back(p);
        if (w.device_of(p) == w.dram()) {
            on_dram++;
        }
    }
    EXPECT_EQ(on_dram, 64u) << "DRAM fills to capacity first at 100%";
    for (cxl::HeapOffset p : held) {
        w.alloc->deallocate(*ctx, p);
    }
    w.alloc->check_invariants(ctx->mem());
    w.pod->release_thread(std::move(ctx));
}

TEST(TieredPlacement, ForeignHostDramIsNeverUsed)
{
    TieredWorld w(/*dram_percent=*/50, /*tiered=*/true, /*hosts=*/2);
    for (HostId h = 0; h < 2; h++) {
        cxl::DeviceId own_dram = w.topo.dram_device_of(h);
        cxl::DeviceId other_dram = w.topo.dram_device_of(1 - h);
        auto ctx = w.thread(h);
        std::vector<cxl::HeapOffset> held;
        bool used_own = false;
        for (int i = 0; i < 40; i++) {
            cxl::HeapOffset p = w.alloc->allocate(*ctx, kObjSize);
            ASSERT_NE(p, 0u);
            held.push_back(p);
            EXPECT_NE(w.device_of(p), other_dram)
                << "DRAM windows are host-private";
            used_own = used_own || w.device_of(p) == own_dram;
        }
        EXPECT_TRUE(used_own);
        for (cxl::HeapOffset p : held) {
            w.alloc->deallocate(*ctx, p);
        }
        w.alloc->check_invariants(ctx->mem()); // never the other host's DRAM
        w.pod->release_thread(std::move(ctx));
    }
}

TEST(Migrate, InertWithoutDramTier)
{
    TieredWorld w(/*dram_percent=*/50, /*tiered=*/false);
    EXPECT_FALSE(w.migrator->active());
    auto ctx = w.thread();
    cxl::HeapOffset obj = w.make_object(*ctx, 0, 0x11);
    w.migrator->note_access(obj); // no-op, must not touch anything
    EXPECT_EQ(w.migrator->run_epoch(*ctx), 0u);
    EXPECT_EQ(w.cell_value(ctx->mem(), 0),
              static_cast<std::uint32_t>(obj >> 3));
    EXPECT_EQ(w.device_of(obj), w.home());

    // recover() degrades to exactly PodShardedAllocator::recover.
    cxl::ThreadId tid = ctx->tid();
    w.pod->mark_crashed(std::move(ctx));
    auto rescuer = w.pod->adopt_thread(w.procs[0], tid);
    w.migrator->recover(*rescuer);
    w.alloc->check_invariants(rescuer->mem());
    cxl::HeapOffset p = w.alloc->allocate(*rescuer, kObjSize);
    ASSERT_NE(p, 0u);
    w.alloc->deallocate(*rescuer, p);
    w.alloc->deallocate(*rescuer, obj);
    w.pod->release_thread(std::move(rescuer));
}

TEST(Migrate, DebugMigrateRoundTripsWithIntactPayload)
{
    TieredWorld w(/*dram_percent=*/0); // placement all-CXL, migration on
    EXPECT_TRUE(w.migrator->active());
    auto ctx = w.thread();
    cxl::MemSession& mem = ctx->mem();
    cxl::HeapOffset obj = w.make_object(*ctx, 0, 0xab);
    EXPECT_EQ(w.device_of(obj), w.home());
    EXPECT_EQ(w.live_blocks(mem), 1u);

    // Promote: cell follows the copy, payload intact, loser freed.
    ASSERT_TRUE(w.migrator->debug_migrate_cell(*ctx, w.cell(0), w.dram()));
    std::uint32_t val = w.cell_value(mem, 0);
    ASSERT_NE(val, 0u);
    auto promoted = static_cast<cxl::HeapOffset>(val) << 3;
    EXPECT_NE(promoted, obj);
    EXPECT_EQ(w.device_of(promoted), w.dram());
    EXPECT_TRUE(w.payload_is(mem, promoted, 0xab));
    EXPECT_EQ(w.live_blocks(mem), 1u);

    // Migrating to the tier it already lives on is a no-op.
    EXPECT_FALSE(w.migrator->debug_migrate_cell(*ctx, w.cell(0), w.dram()));

    // Demote back to the home shard.
    ASSERT_TRUE(w.migrator->debug_migrate_cell(*ctx, w.cell(0), w.home()));
    val = w.cell_value(mem, 0);
    ASSERT_NE(val, 0u);
    auto demoted = static_cast<cxl::HeapOffset>(val) << 3;
    EXPECT_EQ(w.device_of(demoted), w.home());
    EXPECT_TRUE(w.payload_is(mem, demoted, 0xab));
    EXPECT_EQ(w.live_blocks(mem), 1u);

    w.alloc->deallocate(*ctx, demoted);
    EXPECT_EQ(w.live_blocks(mem), 0u);
    w.pod->release_thread(std::move(ctx));
}

TEST(Migrate, RunEpochPromotesHotDemotesColdAndDecaysHeat)
{
    TieredWorld w(/*dram_percent=*/0);
    auto ctx = w.thread();
    cxl::MemSession& mem = ctx->mem();

    // hot: 64-B object on the home shard, 32 recorded accesses.
    cxl::HeapOffset hot = w.make_object(*ctx, 0, 0x01);
    // lukewarm CXL: different size class => different slab, no accesses.
    cxl::HeapOffset cold_cxl = w.alloc->allocate(*ctx, 128);
    ASSERT_NE(cold_cxl, 0u);
    auto pub = w.alloc->shard(w.home()).cell_publish(
        *ctx, w.cell(1), 0, static_cast<std::uint32_t>(cold_cxl >> 3));
    ASSERT_TRUE(pub.success);
    // cold DRAM resident: placed by a forced migration, never accessed.
    w.make_object(*ctx, 2, 0x03);
    ASSERT_TRUE(w.migrator->debug_migrate_cell(*ctx, w.cell(2), w.dram()));

    for (int i = 0; i < 32; i++) {
        w.migrator->note_access(hot);
    }
    const cxlalloc::Layout& l = w.alloc->shard(w.home()).layout();
    auto hot_slab = static_cast<std::uint32_t>(
        (hot - l.small_data()) / cxlalloc::kSmallSlabSize);
    EXPECT_EQ(w.migrator->debug_heat(w.home(), hot_slab), 32u);

    EXPECT_EQ(w.migrator->run_epoch(*ctx), 2u);
    EXPECT_EQ(w.migrator->promotions(), 1u);
    EXPECT_EQ(w.migrator->demotions(), 1u);

    // The hot object moved to DRAM, the cold DRAM resident moved home,
    // the unheated CXL object stayed put.
    auto where = [&](std::uint32_t i) {
        return w.device_of(static_cast<cxl::HeapOffset>(
                               w.cell_value(mem, i))
                           << 3);
    };
    EXPECT_EQ(where(0), w.dram());
    EXPECT_EQ(where(1), w.home());
    EXPECT_EQ(where(2), w.home());

    // Heat decayed by half at the epoch boundary.
    EXPECT_EQ(w.migrator->debug_heat(w.home(), hot_slab), 16u);

    EXPECT_EQ(w.live_blocks(mem), 3u);
    w.pod->release_thread(std::move(ctx));
}

/// Every "migrate.*" crash point, pulled from the central registry so new
/// points widen the sweep automatically.
std::vector<pod::CrashPointInfo>
migrate_crash_points()
{
    cxlalloc::register_migrate_crash_points();
    std::vector<pod::CrashPointInfo> points;
    for (const pod::CrashPointInfo& info :
         pod::CrashPointRegistry::instance().all(
             pod::PointKind::Crash)) {
        if (info.name.rfind("migrate.", 0) == 0) {
            points.push_back(info);
        }
    }
    return points;
}

TEST(MigrateCrash, EveryCrashPointRecoversWithExactBlockAccounting)
{
    std::vector<pod::CrashPointInfo> points = migrate_crash_points();
    ASSERT_GE(points.size(), 6u);
    for (const pod::CrashPointInfo& point : points) {
        SCOPED_TRACE(point.name);
        TieredWorld w(/*dram_percent=*/0);
        auto ctx = w.thread();
        cxl::ThreadId tid = ctx->tid();
        cxl::HeapOffset obj = w.make_object(*ctx, 0, 0x5c);
        ASSERT_EQ(w.device_of(obj), w.home());

        ctx->arm_crash(point.id, 1);
        EXPECT_THROW(
            w.migrator->debug_migrate_cell(*ctx, w.cell(0), w.dram()),
            ThreadCrashed);
        w.pod->mark_crashed(std::move(ctx));

        auto rescuer = w.pod->adopt_thread(w.procs[0], tid);
        w.migrator->recover(*rescuer);
        cxl::MemSession& mem = rescuer->mem();

        // Oracle: the cell names exactly one live, intact block — nothing
        // leaked on either tier, nothing freed twice.
        std::uint32_t val = w.cell_value(mem, 0);
        ASSERT_NE(val, 0u);
        auto winner = static_cast<cxl::HeapOffset>(val) << 3;
        EXPECT_TRUE(w.payload_is(mem, winner, 0x5c));
        cxl::DeviceId dev = w.device_of(winner);
        EXPECT_TRUE(dev == w.home() || dev == w.dram());
        EXPECT_EQ(w.live_blocks(mem), 1u);

        // The adopted slot keeps working, and a fresh migration of the
        // same cell completes cleanly after recovery.
        cxl::HeapOffset p = w.alloc->allocate(*rescuer, kObjSize);
        ASSERT_NE(p, 0u);
        w.alloc->deallocate(*rescuer, p);
        cxl::DeviceId other = dev == w.dram() ? w.home() : w.dram();
        EXPECT_TRUE(
            w.migrator->debug_migrate_cell(*rescuer, w.cell(0), other));
        w.alloc->deallocate(
            *rescuer,
            static_cast<cxl::HeapOffset>(w.cell_value(mem, 0)) << 3);
        EXPECT_EQ(w.live_blocks(mem), 0u);
        w.pod->release_thread(std::move(rescuer));
    }
}

TEST(MigrateCrash, DeferredLoserFreeIsNotRefreedUnderNoHwcc)
{
    // Without HWcc the loser's free is remote (its slab belongs to the
    // thread that made the object), so it waits in the migrating thread's
    // pending list. A crash right after its Op::FreeDeferred record must
    // leave exactly one free: shard recovery redoes the append and lands
    // it, and Free-stage recovery sees a free-type record and does not
    // free the loser again.
    TieredWorld w(/*dram_percent=*/0, /*tiered=*/false, /*hosts=*/1,
                  cxl::CoherenceMode::NoHwcc);
    auto maker = w.thread();
    cxl::HeapOffset obj = w.make_object(*maker, 0, 0x3c);
    auto ctx = w.thread();
    cxl::ThreadId tid = ctx->tid();
    cxl::DeviceId other = w.home() == 0 ? 1 : 0;
    cxltest::FireOnce arm(
        [](const sched::Event& e) {
            return e.op == sched::Op::CrashPoint &&
                   e.aux == static_cast<std::uint64_t>(
                                cxlalloc::migratepoint::kMidFree);
        },
        [&] { ctx->arm_crash(cxlalloc::crashpoint::kAfterRecord, 1); });
    sched::t_listener = &arm;
    EXPECT_THROW(w.migrator->debug_migrate_cell(*ctx, w.cell(0), other),
                 ThreadCrashed);
    sched::t_listener = nullptr;
    ASSERT_TRUE(arm.fired());
    EXPECT_EQ(w.alloc->shard(w.home()).pending_record(*ctx).op,
              cxlalloc::Op::FreeDeferred);
    w.pod->mark_crashed(std::move(ctx));

    auto rescuer = w.pod->adopt_thread(w.procs[0], tid);
    w.migrator->recover(*rescuer);
    cxl::MemSession& mem = rescuer->mem();
    auto winner = static_cast<cxl::HeapOffset>(w.cell_value(mem, 0)) << 3;
    EXPECT_NE(winner, obj);
    EXPECT_EQ(w.device_of(winner), other);
    EXPECT_TRUE(w.payload_is(mem, winner, 0x3c));
    EXPECT_EQ(w.live_blocks(mem), 1u) << "the loser was freed twice or never";
    EXPECT_EQ(w.alloc->audit(mem).pending_frees, 0u);
    w.alloc->deallocate(*rescuer, winner);
    w.pod->release_thread(std::move(rescuer));
    w.pod->release_thread(std::move(maker));
}

/// The loser's own free steals its slab, and with unsized_limit 0 the trim
/// pushes the slab straight on to the global list: the freeing shard's
/// record ends as Op::PushGlobal. Under NoHwcc the free's append launches
/// the round that lands its decrement, and the round is still out when
/// the free returns: the record ends as Op::FreeRemoteBatch. A crash there
/// (the loser's free has happened) must not make Free-stage recovery free
/// the loser again.
void
loser_free_that_trims(cxl::CoherenceMode mode)
{
    const bool nohwcc = mode == cxl::CoherenceMode::NoHwcc;
    TieredWorld w(/*dram_percent=*/0, /*tiered=*/false, /*hosts=*/1, mode,
                  /*unsized_limit=*/0);
    auto maker = w.thread();
    // Cell 0's object is the first block of a 64 B slab the maker fills;
    // the migrating thread remote-frees every other block, so the loser's
    // free is the slab's last decrement. Under NoHwcc the full rows along
    // the way land all but the last of those frees, and frees of one 8 B
    // slab then fill the row to one block short of its capacity (no
    // cleanup): the loser's append fills it, and the round it launches
    // lands both entries of the row's only line. Recovery finishes the
    // round's steal.
    cxl::HeapOffset obj = w.make_object(*maker, 0, 0x4b);
    std::vector<cxl::HeapOffset> rest;
    for (std::uint64_t i = 1; i < cxlalloc::kSmallSlabSize / kObjSize; i++) {
        rest.push_back(w.alloc->allocate(*maker, kObjSize));
        ASSERT_GT(rest.back(), obj);
        ASSERT_LT(rest.back(), obj + cxlalloc::kSmallSlabSize);
    }
    // The maker gives the full slab up (disowned, pin freed): the last
    // remote free then steals it.
    w.alloc->detach_thread(*maker);
    auto ctx = w.thread();
    cxl::ThreadId tid = ctx->tid();
    for (cxl::HeapOffset p : rest) {
        w.alloc->deallocate(*ctx, p);
    }
    constexpr std::uint64_t kCapacity = cxlalloc::PendingList::kSmallCapacity;
    std::uint64_t pending = w.alloc->audit(maker->mem()).pending_frees;
    ASSERT_EQ(pending, nohwcc ? 1u : 0u);
    for (std::uint64_t i = pending; i + 1 < kCapacity; i++) {
        cxl::HeapOffset pad = w.alloc->allocate(*maker, 8);
        ASSERT_NE(pad, 0u);
        w.alloc->deallocate(*ctx, pad);
    }
    if (nohwcc) {
        ASSERT_EQ(w.alloc->audit(maker->mem()).pending_frees, kCapacity - 1);
    }
    cxl::DeviceId other = w.home() == 0 ? 1 : 0;
    cxltest::FireOnce arm(
        [](const sched::Event& e) {
            return e.op == sched::Op::CrashPoint &&
                   e.aux == static_cast<std::uint64_t>(
                                cxlalloc::migratepoint::kMidFree);
        },
        [&] {
            ctx->arm_crash(nohwcc ? cxlalloc::crashpoint::kMidBatchDrain
                                  : cxlalloc::crashpoint::kMidPushGlobal,
                           1);
        });
    sched::t_listener = &arm;
    EXPECT_THROW(w.migrator->debug_migrate_cell(*ctx, w.cell(0), other),
                 ThreadCrashed);
    sched::t_listener = nullptr;
    ASSERT_TRUE(arm.fired());
    EXPECT_EQ(w.alloc->shard(w.home()).pending_record(*ctx).op,
              nohwcc ? cxlalloc::Op::FreeRemoteBatch
                     : cxlalloc::Op::PushGlobal);
    w.pod->mark_crashed(std::move(ctx));

    auto rescuer = w.pod->adopt_thread(w.procs[0], tid);
    w.migrator->recover(*rescuer);
    cxl::MemSession& mem = rescuer->mem();
    auto winner = static_cast<cxl::HeapOffset>(w.cell_value(mem, 0)) << 3;
    EXPECT_EQ(w.device_of(winner), other);
    EXPECT_TRUE(w.payload_is(mem, winner, 0x4b));
    EXPECT_EQ(w.live_blocks(mem), 1u) << "the loser was freed twice or never";
    EXPECT_EQ(w.alloc->audit(mem).pending_frees, 0u);
    w.alloc->deallocate(*rescuer, winner);
    w.pod->release_thread(std::move(rescuer));
    w.pod->release_thread(std::move(maker));
}

TEST(Migrate, MovesABlockOfAStolenSlabAtItsNewClass)
{
    // Under the cache model the migrator reads a slab's class from the
    // device. An owner fills a 1 KiB-class slab and leaves, a thief frees
    // every block, steals the slab and inits it for 64 B objects. Init
    // writes the owner-word line back, so the migrator sizes the thief's
    // object by the 64 B class, not by the class the device held before.
    cxlalloc::Config cfg;
    cfg.small_slabs = 4;
    cfg.large_slabs = 2;
    cfg.huge_regions = 2;
    cfg.huge_region_size = 1 << 20;
    cfg.huge_descs_per_thread = 4;
    cfg.hazard_slots_per_thread = 4;
    cfg.app_sync_bytes = kCells * 8;
    const Topology topo = Topology::dense(1, 2, cxl::EdgeCost{}, far_edge());
    PodConfig pc;
    pc.device = PodShardedAllocator::device_config(
        cfg, topo, cxl::CoherenceMode::PartialHwcc, /*simulate_cache=*/true);
    pc.topology = topo;
    Pod pod(pc);
    PodShardedAllocator alloc(pod, cfg);
    pod::Process* proc = pod.create_process(0);
    alloc.attach(*proc);
    HotSlabMigrator migrator(alloc);
    const cxl::DeviceId home = topo.home_of(0);
    const cxl::DeviceId other = home == 0 ? 1 : 0;
    const cxl::HeapOffset cell = alloc.shard(home).layout().app_sync();
    migrator.set_cell_table(cell, kCells);
    auto thread = [&] {
        auto ctx = pod.create_thread(proc);
        alloc.attach_thread(*ctx);
        return ctx;
    };
    auto owner = thread();
    auto thief = thread();
    auto mover = thread();
    const cxlalloc::Layout& hl = alloc.shard(home).layout();
    auto slab_in = [](const cxlalloc::Layout& l, cxl::HeapOffset p) {
        return static_cast<std::uint32_t>((p - l.small_data()) /
                                          cxlalloc::kSmallSlabSize);
    };
    std::vector<cxl::HeapOffset> big;
    for (int i = 0; i < 32; i++) { // one full 1 KiB-class slab
        big.push_back(alloc.allocate(*owner, 1024));
        ASSERT_EQ(slab_in(hl, big.back()), slab_in(hl, big[0]));
    }
    alloc.detach_thread(*owner);
    for (cxl::HeapOffset p : big) {
        alloc.deallocate(*thief, p); // the last one steals the slab
    }
    cxl::HeapOffset obj = alloc.allocate(*thief, kObjSize);
    ASSERT_EQ(slab_in(hl, obj), slab_in(hl, big[0])) << "no steal and Init";
    ASSERT_TRUE(alloc.shard(home)
                    .cell_publish(*thief, cell, 0,
                                  static_cast<std::uint32_t>(obj >> 3))
                    .success);
    ASSERT_TRUE(migrator.debug_migrate_cell(*mover, cell, other));
    auto moved = static_cast<cxl::HeapOffset>(
                     alloc.shard(home).dcas().read(mover->mem(), cell))
                 << 3;
    ASSERT_EQ(pod.device().device_of(moved), other);
    const cxlalloc::Layout& ol = alloc.shard(other).layout();
    std::uint8_t biased = alloc.shard(other).small_heap().debug_class_biased(
        mover->mem(), slab_in(ol, moved));
    ASSERT_NE(biased, 0u);
    EXPECT_EQ(cxlalloc::small_class_size(biased - 1u), kObjSize)
        << "the migrator sized the copy by the slab's previous class";
    pod.release_thread(std::move(owner));
    pod.release_thread(std::move(thief));
    pod.release_thread(std::move(mover));
}

TEST(MigrateCrash, LoserFreeThatTrimsIsNotRefreed)
{
    for (cxl::CoherenceMode mode :
         {cxl::CoherenceMode::PartialHwcc, cxl::CoherenceMode::NoHwcc}) {
        SCOPED_TRACE(mode == cxl::CoherenceMode::NoHwcc ? "NoHwcc"
                                                        : "PartialHwcc");
        loser_free_that_trims(mode);
    }
}

TEST(MigrateCrash, RecoveryReentersAfterCrashingMidRecovery)
{
    TieredWorld w(/*dram_percent=*/0);
    auto ctx = w.thread();
    cxl::ThreadId tid = ctx->tid();
    cxl::HeapOffset obj = w.make_object(*ctx, 0, 0x77);

    // First crash after the payload copy (stage Copied: target block
    // allocated and recorded, cell still pointing at the original).
    ctx->arm_crash(cxlalloc::migratepoint::kAfterCopy, 1);
    EXPECT_THROW(w.migrator->debug_migrate_cell(*ctx, w.cell(0), w.dram()),
                 ThreadCrashed);
    w.pod->mark_crashed(std::move(ctx));

    // The rescuer crashes again inside recovery's own free of the loser.
    auto r1 = w.pod->adopt_thread(w.procs[0], tid);
    r1->arm_crash(cxlalloc::migratepoint::kMidFree, 1);
    EXPECT_THROW(w.migrator->recover(*r1), ThreadCrashed);
    w.pod->mark_crashed(std::move(r1));

    auto r2 = w.pod->adopt_thread(w.procs[0], tid);
    w.migrator->recover(*r2);
    cxl::MemSession& mem = r2->mem();
    std::uint32_t val = w.cell_value(mem, 0);
    ASSERT_NE(val, 0u);
    auto winner = static_cast<cxl::HeapOffset>(val) << 3;
    EXPECT_EQ(winner, obj) << "unpublished migration keeps the original";
    EXPECT_TRUE(w.payload_is(mem, winner, 0x77));
    EXPECT_EQ(w.live_blocks(mem), 1u);
    w.alloc->deallocate(*r2, winner);
    w.pod->release_thread(std::move(r2));
}

} // namespace
