/// @file
/// Slab steal/scavenge races under explored schedules (paper §3.2.1): an
/// owner churns its local heap while two remote threads free disjoint
/// halves of the owner's detached slabs, racing the remote-free counter
/// to zero and the resulting steal. The end oracle is the heap audit
/// (free counter == bitset popcount on every classed slab, remote
/// balance, global list, huge descriptors); the crash variant kills any
/// participant at an arbitrary yield, recovers the slot, audits again
/// and checks the recovered slot's local lists.

#include <gtest/gtest.h>

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
using sched::Strategy;

constexpr int kVthreads = 3; // owner + two remote freers
constexpr int kBlocks = 64;  // two full 32 KiB slabs of 1 KiB blocks

struct StealWorld {
    StealWorld() : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg)
    {
        process = pod.create_process();
        alloc.attach(*process);
        for (int i = 0; i < kVthreads; i++) {
            ctxs.push_back(pod.create_thread(process));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        // Unhooked pre-state (the factory runs outside the scheduler):
        // fill two slabs so both start detached-full, owned by vthread 0.
        for (int n = 0; n < kBlocks; n++) {
            blocks.push_back(alloc.allocate(*ctxs[0], 1024));
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
        // No cache simulation: the end oracle reads every slab descriptor
        // from a single session, which under simulated caches could see
        // legitimately-unflushed owner-local state.
        pc.device = cxlalloc::Layout(cfg).device_config(
            cxl::CoherenceMode::PartialHwcc, /*simulate_cache=*/false);
        return pc;
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    std::vector<cxl::HeapOffset> blocks;
    /// The owner ends by lowering one held block's slab free counter.
    bool corrupt = false;
};

void
spawn_workload(Run& run, const std::shared_ptr<StealWorld>& w, bool killable)
{
    // vthread 0: the owner keeps churning its local heap.
    run.spawn(
        "owner",
        [w] {
            try {
                for (int n = 0; n < 8; n++) {
                    cxl::HeapOffset p = w->alloc.allocate(*w->ctxs[0], 1024);
                    w->alloc.deallocate(*w->ctxs[0], p);
                }
                if (w->corrupt) {
                    cxl::HeapOffset p = w->alloc.allocate(*w->ctxs[0], 1024);
                    const cxlalloc::Layout& l = w->alloc.layout();
                    auto slab = static_cast<std::uint32_t>(
                        (p - l.small_data()) / cxlalloc::kSmallSlabSize);
                    cxl::HeapOffset free_at =
                        l.small_swcc_desc(slab) + cxlalloc::DescField::kFree;
                    cxl::MemSession& mem = w->ctxs[0]->mem();
                    auto free = mem.load<std::uint16_t>(free_at);
                    mem.store(free_at, static_cast<std::uint16_t>(free - 1));
                }
            } catch (const sched::VthreadKilled&) {
                w->pod.mark_crashed(std::move(w->ctxs[0]));
            }
        },
        killable);
    // vthreads 1, 2: remote-free interleaved halves of the owner's slabs,
    // racing both slabs' counters toward the steal.
    for (int i = 1; i <= 2; i++) {
        run.spawn(
            "remote" + std::to_string(i),
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

/// The unkilled steal race with the heap audit as its end oracle; with
/// @p corrupt the owner breaks one free counter before the end.
std::function<void(sched::Run&)>
audited_steal(bool corrupt)
{
    return [corrupt](sched::Run& run) {
        auto w = std::make_shared<StealWorld>();
        w->corrupt = corrupt;
        spawn_workload(run, w, /*killable=*/false);
        run.at_end([w](const sched::RunEnd&) {
            cxl::MemSession& mem = w->ctxs[0]->mem();
            sched::fail_unless_ok(w->alloc.audit(mem));
        });
    };
}

TEST(SchedSteal, RemoteFreeRacesKeepCounterAndBitsetConsistent)
{
    Options opt;
    opt.seed = 61;
    opt.schedules = 48;
    Result r = Explorer(opt).run(audited_steal(/*corrupt=*/false));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
}

TEST(SchedSteal, PctSchedulesKeepInvariants)
{
    Options opt;
    opt.strategy = Strategy::Pct;
    opt.seed = 67;
    opt.schedules = 48;
    opt.pct_depth = 3;
    Result r = Explorer(opt).run(audited_steal(/*corrupt=*/false));
    EXPECT_TRUE(r.ok) << r.summary();
}

TEST(SchedSteal, KillAnyParticipantThenRecoverAndSweep)
{
    Options opt;
    opt.seed = 71;
    opt.schedules = 64;
    opt.crash = true;
    opt.crash_horizon = 400;
    Result r = Explorer(opt).run([](sched::Run& run) {
        auto w = std::make_shared<StealWorld>();
        spawn_workload(run, w, /*killable=*/true);
        run.at_end([w](const sched::RunEnd& end) {
            std::unique_ptr<pod::ThreadContext> adopted;
            if (end.killed != kNoVthread) {
                adopted = w->pod.adopt_thread(w->process,
                                              w->tids[end.killed]);
                w->alloc.recover(*adopted);
            }
            cxl::MemSession& mem = adopted != nullptr
                                       ? adopted->mem()
                                       : w->ctxs[0]->mem();
            sched::fail_unless_ok(w->alloc.audit(mem));
            if (adopted != nullptr) {
                // The recovered slot must still be able to allocate.
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

TEST(SchedSteal, CorruptedFreeCounterFailsTheAuditAndReplays)
{
    Options opt;
    opt.seed = 73;
    opt.schedules = 8;
    Explorer ex(opt);
    Result r = ex.run(audited_steal(/*corrupt=*/true));
    ASSERT_FALSE(r.ok) << "the broken counter escaped the audit";
    EXPECT_NE(r.summary().find("[free-counter]"), std::string::npos)
        << r.summary();

    Result again = ex.replay(*r.failure, audited_steal(/*corrupt=*/true));
    ASSERT_FALSE(again.ok);
    EXPECT_EQ(again.failure->message, r.failure->message);
    EXPECT_EQ(again.failure->trace, r.failure->trace);
}

} // namespace
