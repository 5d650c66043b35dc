/// @file
/// Coalesced remote-free drains under explored schedules (paper §3.2.1,
/// §4): two drainers free interleaved halves of an owner's full slabs
/// through deallocate_batch and land them with cleanup — one operand per
/// slab per ring, the round that zeroes a counter stealing its slab —
/// while the owner frees blocks of its own locally; and an owner whose
/// frees into its own disowned slabs wait in its pending list (NoHwcc)
/// while a neighbour batch-frees and lands the same slabs.
/// A drainer keeps allocating, freeing and appending with its round out
/// (launched, not finished) while a neighbour lands frees of the same
/// slabs. With crash injection any participant dies at any yield, and a
/// recoverer adopts and recovers its slot while the others keep running
/// (until then the dead thread's staged operands doom every competing
/// mCAS on their targets). The end oracle is the heap audit plus: every
/// slab whose counter reached zero was stolen exactly once.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cxlalloc/allocator.h"
#include "cxlalloc/size_class.h"
#include "pod/pod.h"
#include "sched/explorer.h"

namespace {

using sched::Explorer;
using sched::kNoVthread;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;

constexpr int kDrainers = 2;  // vthreads 1..kDrainers; 0 is the owner
constexpr int kSlabs = 2;     // full 1 KiB-class slabs the drainers free
constexpr int kPerSlab = 32;
constexpr std::uint32_t kBatch = 8;
constexpr int kLocal = 4; // 64 B blocks the owner frees itself
static_assert(kSlabs * kPerSlab % (kDrainers * kBatch) == 0,
              "each drainer's share splits into whole batches");

/// True if @p slab is on @p tid's small unsized list.
bool
on_unsized_list(cxlalloc::CxlAllocator& alloc, cxl::MemSession& mem,
                cxl::ThreadId tid, std::uint32_t slab)
{
    const cxlalloc::Layout& l = alloc.layout();
    auto raw = mem.load<std::uint32_t>(l.small_local(tid));
    for (std::uint32_t steps = 0;
         raw != 0 && steps <= alloc.config().small_slabs; steps++) {
        if (raw - 1 == slab) {
            return true;
        }
        raw = mem.load<std::uint32_t>(l.small_swcc_desc(raw - 1) +
                                      cxlalloc::DescField::kNext);
    }
    return false;
}

/// Every slab of @p slabs whose counter reached zero sits on exactly one
/// of @p stealers' unsized lists, owned by that thread; every other slab
/// is on none. With @p all_freed (nobody died) every slab was stolen.
void
check_steals(cxlalloc::CxlAllocator& alloc, cxl::MemSession& mem,
             const std::vector<std::uint32_t>& slabs,
             const std::vector<cxl::ThreadId>& stealers, bool all_freed)
{
    cxlalloc::SlabHeap& heap = alloc.small_heap();
    for (std::uint32_t slab : slabs) {
        bool stolen = heap.debug_remote_free(mem, slab) == 0;
        int holders = 0;
        bool owner_holds = false;
        for (cxl::ThreadId tid : stealers) {
            if (on_unsized_list(alloc, mem, tid, slab)) {
                holders++;
                owner_holds |= heap.debug_owner(mem, slab) == tid;
            }
        }
        std::string at = "slab " + std::to_string(slab) + ": ";
        if (stolen && (holders != 1 || !owner_holds)) {
            throw OracleFailure(at + "stolen, but on " +
                                std::to_string(holders) +
                                " stealer lists (owner holds: " +
                                std::to_string(owner_holds) + ")");
        }
        if (!stolen && holders != 0) {
            throw OracleFailure(at + "on a stealer list, counter > 0");
        }
        if (all_freed && !stolen) {
            throw OracleFailure(at + "every block freed, never stolen");
        }
    }
}

/// Slab index of small-heap block @p p.
std::uint32_t
slab_of(const cxlalloc::CxlAllocator& alloc, cxl::HeapOffset p)
{
    return static_cast<std::uint32_t>((p - alloc.layout().small_data()) /
                                      cxlalloc::kSmallSlabSize);
}

struct DrainWorld {
    DrainWorld() : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg)
    {
        process = pod.create_process();
        alloc.attach(*process);
        for (int i = 0; i <= kDrainers; i++) {
            ctxs.push_back(pod.create_thread(process));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        // Unhooked pre-state: the owner fills kSlabs slabs and gives them
        // up (disowned, pins landed: detach_thread), then holds a few
        // blocks it will free locally.
        std::vector<cxl::HeapOffset> full;
        for (int n = 0; n < kSlabs * kPerSlab; n++) {
            full.push_back(alloc.allocate(*ctxs[0], 1024));
        }
        alloc.detach_thread(*ctxs[0]);
        for (int n = 0; n < kLocal; n++) {
            local.push_back(alloc.allocate(*ctxs[0], 64));
        }
        // Drainer d takes every kDrainers-th block of every slab,
        // slab-interleaved: each batch holds one same-slab group per slab.
        drains.resize(kDrainers);
        for (int b = 0; b < kPerSlab; b++) {
            for (int s = 0; s < kSlabs; s++) {
                drains[b % kDrainers].push_back(full[s * kPerSlab + b]);
            }
        }
        for (int s = 0; s < kSlabs; s++) {
            slabs.push_back(slab_of(alloc, full[s * kPerSlab]));
        }
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
    make_pod(const cxlalloc::Config& cfg)
    {
        pod::PodConfig pc;
        // Every sync op is an NMP mCAS; no cache simulation, so the end
        // oracle may read every thread's lists from one session.
        pc.device = cxlalloc::Layout(cfg).device_config(
            cxl::CoherenceMode::NoHwcc, /*simulate_cache=*/false);
        return pc;
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    std::vector<cxl::HeapOffset> local;
    std::vector<std::vector<cxl::HeapOffset>> drains;
    std::vector<std::uint32_t> slabs;
    /// Vthreads run one at a time, so plain fields suffice.
    int finished = 0;
    std::uint32_t dead = kNoVthread;
};

/// The body of participant vthread @p v of world @p w: runs @p work; a
/// kill marks the slot crashed for the recoverer.
template <typename World, typename Work>
std::function<void()>
participant(const std::shared_ptr<World>& w, std::uint32_t v, Work work)
{
    return [w, v, work] {
        try {
            work();
        } catch (const sched::VthreadKilled&) {
            w->pod.mark_crashed(std::move(w->ctxs[v]));
            w->dead = v;
        }
        w->finished++;
    };
}

/// Adopts and recovers a killed slot while the others run, until all
/// @p participants have finished and any dead slot is recovered.
template <typename World>
void
spawn_recoverer(Run& run, const std::shared_ptr<World>& w, int participants)
{
    run.spawn("recoverer", [w, participants] {
        while (w->finished < participants ||
               (w->dead != kNoVthread && w->ctxs[w->dead] == nullptr)) {
            if (w->dead != kNoVthread && w->ctxs[w->dead] == nullptr) {
                w->ctxs[w->dead] =
                    w->pod.adopt_thread(w->process, w->tids[w->dead]);
                w->alloc.recover(*w->ctxs[w->dead]);
            } else {
                sched::hook(sched::Op::Load); // yield until there is work
            }
        }
    });
}

void
spawn_workload(Run& run, const std::shared_ptr<DrainWorld>& w, bool killable)
{
    auto owner = [w] {
        for (cxl::HeapOffset p : w->local) {
            w->alloc.deallocate(*w->ctxs[0], p);
        }
    };
    run.spawn("owner", participant(w, 0, owner), killable);
    for (std::uint32_t d = 1; d <= kDrainers; d++) {
        auto drain = [w, d] {
            const auto& mine = w->drains[d - 1];
            for (std::size_t at = 0; at < mine.size(); at += kBatch) {
                w->alloc.deallocate_batch(*w->ctxs[d], mine.data() + at,
                                          kBatch);
            }
            w->alloc.cleanup(*w->ctxs[d]);
        };
        run.spawn("drain" + std::to_string(d), participant(w, d, drain),
                  killable);
    }
    spawn_recoverer(run, w, kDrainers + 1);
}

/// The drain race; with @p crash one participant dies at a random yield.
std::function<void(sched::Run&)>
drain_race(bool crash)
{
    return [crash](sched::Run& run) {
        auto w = std::make_shared<DrainWorld>();
        spawn_workload(run, w, /*killable=*/crash);
        run.at_end([w](const sched::RunEnd& end) {
            cxl::MemSession& mem = w->ctxs[0]->mem();
            sched::fail_unless_ok(w->alloc.audit(mem));
            // A dead owner loses no drainer's free: every slab must fall.
            check_steals(w->alloc, mem, w->slabs,
                         {w->tids.begin() + 1, w->tids.end()},
                         /*all_freed=*/end.killed == kNoVthread ||
                             end.killed == 0);
            for (auto& ctx : w->ctxs) {
                cxl::HeapOffset p = w->alloc.allocate(*ctx, 1024);
                if (p == 0) {
                    throw OracleFailure("allocation failed after the drain");
                }
                w->alloc.deallocate(*ctx, p);
            }
        });
    };
}

TEST(SchedBatch, CoalescedDrainsStealEachSlabExactlyOnce)
{
    Options opt;
    opt.seed = 83;
    opt.schedules = 48;
    Result r = Explorer(opt).run(drain_race(/*crash=*/false));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
}

TEST(SchedBatch, KillAnyParticipantRecoverConcurrentlyAndAudit)
{
    Options opt;
    opt.seed = 89;
    opt.schedules = 96;
    opt.crash = true;
    opt.crash_horizon = 400;
    Result r = Explorer(opt).run(drain_race(/*crash=*/true));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
    EXPECT_EQ(r.truncated, 0u);
}

/// The owner's frees into its own disowned slabs are remote, so under
/// NoHwcc they wait in its pending list (landed by its cleanup) while a
/// neighbour batch-frees the other half of the same slabs and lands them
/// with its own cleanup: both race every slab's counter to zero.
struct DeferWorld {
    static constexpr int kOwner = 0;
    static constexpr int kNeighbour = 1;
    static constexpr int kSlabs = 2;
    static constexpr std::uint32_t kBatch = 4;
    static_assert(kPerSlab / 2 * kSlabs % kBatch == 0,
                  "the neighbour's share splits into whole batches");

    DeferWorld()
        : cfg(DrainWorld::make_config()), pod(DrainWorld::make_pod(cfg)),
          alloc(pod, cfg)
    {
        process = pod.create_process();
        alloc.attach(*process);
        for (int i = 0; i < 2; i++) {
            ctxs.push_back(pod.create_thread(process));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        // Unhooked pre-state: a remote free of each slab's first block
        // lands before the owner fills the rest, so every slab disowns
        // itself when full (31 live blocks, counter 31).
        for (int s = 0; s < kSlabs; s++) {
            cxl::HeapOffset first = alloc.allocate(*ctxs[kOwner], 1024);
            alloc.deallocate_batch(*ctxs[kNeighbour], &first, 1);
            alloc.cleanup(*ctxs[kNeighbour]);
            slabs.push_back(slab_of(alloc, first));
            for (int b = 1; b < kPerSlab; b++) {
                cxl::HeapOffset p = alloc.allocate(*ctxs[kOwner], 1024);
                frees[b % 2].push_back(p);
            }
        }
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    /// frees[v]: the blocks vthread v frees, both slabs interleaved.
    std::vector<cxl::HeapOffset> frees[2];
    std::vector<std::uint32_t> slabs;
    int finished = 0;
    std::uint32_t dead = kNoVthread;
};

/// The defer race; with @p crash one participant dies at a random yield.
std::function<void(sched::Run&)>
defer_race(bool crash)
{
    return [crash](sched::Run& run) {
        auto w = std::make_shared<DeferWorld>();
        auto owner = [w] {
            pod::ThreadContext& ctx = *w->ctxs[DeferWorld::kOwner];
            for (cxl::HeapOffset p : w->frees[DeferWorld::kOwner]) {
                w->alloc.deallocate(ctx, p);
            }
            w->alloc.cleanup(ctx);
        };
        auto neighbour = [w] {
            const auto& mine = w->frees[DeferWorld::kNeighbour];
            for (std::size_t at = 0; at < mine.size();
                 at += DeferWorld::kBatch) {
                w->alloc.deallocate_batch(*w->ctxs[DeferWorld::kNeighbour],
                                          mine.data() + at,
                                          DeferWorld::kBatch);
            }
            w->alloc.cleanup(*w->ctxs[DeferWorld::kNeighbour]);
        };
        run.spawn("owner", participant(w, DeferWorld::kOwner, owner), crash);
        run.spawn("neighbour",
                  participant(w, DeferWorld::kNeighbour, neighbour), crash);
        spawn_recoverer(run, w, 2);
        run.at_end([w](const sched::RunEnd& end) {
            cxl::MemSession& mem = w->ctxs[0]->mem();
            cxlalloc::AuditReport report = w->alloc.audit(mem);
            sched::fail_unless_ok(report);
            if (report.pending_frees != 0) {
                throw OracleFailure(std::to_string(report.pending_frees) +
                                    " pending frees never landed");
            }
            check_steals(w->alloc, mem, w->slabs, w->tids,
                         /*all_freed=*/end.killed == kNoVthread);
        });
    };
}

TEST(SchedBatch, DeferredOwnerFreesRaceANeighboursDrain)
{
    Options opt;
    opt.seed = 97;
    opt.schedules = 48;
    Result r = Explorer(opt).run(defer_race(/*crash=*/false));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
}

TEST(SchedBatch, DeferredFreesSurviveAKillAnywhereRecoveredConcurrently)
{
    Options opt;
    opt.seed = 101;
    opt.schedules = 96;
    opt.crash = true;
    opt.crash_horizon = 400;
    Result r = Explorer(opt).run(defer_race(/*crash=*/true));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
    EXPECT_EQ(r.truncated, 0u);
}

/// The drainer's round stays out while it keeps working: its last append
/// launches a round of four slabs' decrements, then it appends one more
/// free of a round slab (into the round's line), allocates and frees
/// blocks of its own, and lands everything with cleanup. Meanwhile a
/// neighbour batch-frees other blocks of the same four slabs and lands
/// them with its cleanup, racing the round's counters.
struct OutRoundWorld {
    static constexpr int kDrainer = 0;
    static constexpr int kNeighbour = 1;
    static constexpr int kOwner = 2; // fills the slabs; not a vthread
    static constexpr int kSlabs = 4;
    static constexpr std::uint64_t kSize = 256;
    static constexpr int kBlocks = cxlalloc::kSmallSlabSize / kSize;
    static constexpr int kMine = 64;   // per slab, the drainer's frees
    static constexpr int kTheirs = 16; // per slab, the neighbour's
    static constexpr std::uint32_t kBatch = 16;
    static constexpr int kLocal = 4;
    static_assert(kSlabs * kMine ==
                      cxlalloc::PendingList::kSmallCapacity + 1,
                  "the drainer's last free but one fills its row");
    static_assert(kSlabs * kTheirs % kBatch == 0,
                  "the neighbour's share splits into whole batches");

    OutRoundWorld()
        : cfg(DrainWorld::make_config()), pod(DrainWorld::make_pod(cfg)),
          alloc(pod, cfg)
    {
        process = pod.create_process();
        alloc.attach(*process);
        for (int i = 0; i <= kOwner; i++) {
            ctxs.push_back(pod.create_thread(process));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        // Unhooked pre-state: the owner fills the slabs, the drainer frees
        // all of its share but the last two (its row one block short of
        // full) and holds a warm 64 B slab.
        std::vector<cxl::HeapOffset> full;
        for (int n = 0; n < kSlabs * kBlocks; n++) {
            full.push_back(alloc.allocate(*ctxs[kOwner], kSize));
        }
        for (int b = 0; b < kMine + kTheirs; b++) {
            for (int s = 0; s < kSlabs; s++) {
                cxl::HeapOffset p = full[s * kBlocks + b];
                (b < kMine ? mine : theirs).push_back(p);
            }
        }
        for (std::size_t i = 0; i + 2 < mine.size(); i++) {
            alloc.deallocate(*ctxs[kDrainer], mine[i]);
        }
        warm = alloc.allocate(*ctxs[kDrainer], 64);
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    std::vector<cxl::HeapOffset> mine;
    std::vector<cxl::HeapOffset> theirs;
    cxl::HeapOffset warm = 0;
    int finished = 0;
    std::uint32_t dead = kNoVthread;
};

/// The out-round race; with @p crash one participant dies at a random
/// yield.
std::function<void(sched::Run&)>
out_round_race(bool crash)
{
    return [crash](sched::Run& run) {
        auto w = std::make_shared<OutRoundWorld>();
        auto drainer = [w] {
            pod::ThreadContext& ctx = *w->ctxs[OutRoundWorld::kDrainer];
            const std::size_t n = w->mine.size();
            w->alloc.deallocate(ctx, w->mine[n - 2]); // launches the round
            w->alloc.deallocate(ctx, w->mine[n - 1]);
            std::vector<cxl::HeapOffset> local;
            for (int i = 0; i < OutRoundWorld::kLocal; i++) {
                local.push_back(w->alloc.allocate(ctx, 64));
            }
            for (cxl::HeapOffset p : local) {
                w->alloc.deallocate(ctx, p);
            }
            w->alloc.cleanup(ctx);
        };
        auto neighbour = [w] {
            const auto& theirs = w->theirs;
            for (std::size_t at = 0; at < theirs.size();
                 at += OutRoundWorld::kBatch) {
                w->alloc.deallocate_batch(
                    *w->ctxs[OutRoundWorld::kNeighbour], theirs.data() + at,
                    OutRoundWorld::kBatch);
            }
            w->alloc.cleanup(*w->ctxs[OutRoundWorld::kNeighbour]);
        };
        run.spawn("drainer", participant(w, OutRoundWorld::kDrainer, drainer),
                  crash);
        run.spawn("neighbour",
                  participant(w, OutRoundWorld::kNeighbour, neighbour),
                  crash);
        spawn_recoverer(run, w, 2);
        run.at_end([w](const sched::RunEnd& end) {
            cxl::MemSession& mem = w->ctxs[OutRoundWorld::kOwner]->mem();
            cxlalloc::AuditReport report = w->alloc.audit(mem);
            sched::fail_unless_ok(report);
            if (report.pending_frees != 0) {
                throw OracleFailure(std::to_string(report.pending_frees) +
                                    " pending frees never landed");
            }
            // Without a kill, exactly the owner's unfreed blocks and the
            // drainer's warm one stay live.
            const std::uint64_t live =
                OutRoundWorld::kSlabs *
                    (OutRoundWorld::kBlocks - OutRoundWorld::kMine -
                     OutRoundWorld::kTheirs) +
                1;
            if (end.killed == kNoVthread && report.live_blocks != live) {
                throw OracleFailure(std::to_string(report.live_blocks) +
                                    " live blocks, expected " +
                                    std::to_string(live));
            }
        });
    };
}

TEST(SchedBatch, DrainerWorksWithItsRoundOutWhileANeighbourFrees)
{
    Options opt;
    opt.seed = 103;
    opt.schedules = 48;
    Result r = Explorer(opt).run(out_round_race(/*crash=*/false));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
}

TEST(SchedBatch, OutRoundSurvivesAKillAnywhereRecoveredConcurrently)
{
    Options opt;
    opt.seed = 107;
    opt.schedules = 96;
    opt.crash = true;
    opt.crash_horizon = 800;
    Result r = Explorer(opt).run(out_round_race(/*crash=*/true));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
    EXPECT_EQ(r.truncated, 0u);
}

} // namespace
