/// @file
/// A thread's local slab lists under crash injection: one owner edits its
/// sized and unsized lists (relink, detach, recycle, init) and is killed at
/// an arbitrary yield; recovery adopts the slot. The end oracle is the
/// audit, whose list walk checks the adopted slot's lists (links, tail
/// word, count, owner, state, class) and gives each slab one home; it
/// audits, allocates, and audits again.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "cxlalloc/allocator.h"
#include "pod/pod.h"
#include "sched/explorer.h"

namespace {

using sched::Explorer;
using sched::kNoVthread;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;

struct ListWorld {
    explicit ListWorld(int preload)
        : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg)
    {
        process = pod.create_process();
        alloc.attach(*process);
        ctx = pod.create_thread(process);
        alloc.attach_thread(*ctx);
        tid = ctx->tid();
        // Unhooked pre-state: 1 KiB blocks, 32 to a slab, filled in order.
        for (int n = 0; n < preload; n++) {
            blocks.push_back(alloc.allocate(*ctx, 1024));
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
        // No cache simulation: the audit reads the device directly.
        pc.device = cxlalloc::Layout(cfg).device_config(
            cxl::CoherenceMode::PartialHwcc, /*simulate_cache=*/false);
        return pc;
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
    std::unique_ptr<pod::ThreadContext> ctx;
    cxl::ThreadId tid = 0;
    std::vector<cxl::HeapOffset> blocks;
};

/// Runs @p body as the one killable owner; the end oracle recovers a
/// killed slot, audits, allocates 8 blocks and audits again.
std::function<void(Run&)>
killed_owner(int preload, std::function<void(ListWorld&)> body)
{
    return [preload, body](Run& run) {
        auto w = std::make_shared<ListWorld>(preload);
        run.spawn(
            "owner",
            [w, body] {
                try {
                    body(*w);
                } catch (const sched::VthreadKilled&) {
                    w->pod.mark_crashed(std::move(w->ctx));
                }
            },
            /*killable=*/true);
        run.at_end([w](const sched::RunEnd& end) {
            if (end.killed != kNoVthread) {
                w->ctx = w->pod.adopt_thread(w->process, w->tid);
                w->alloc.recover(*w->ctx);
            }
            cxl::MemSession& mem = w->ctx->mem();
            sched::fail_unless_ok(w->alloc.audit(mem));
            for (int n = 0; n < 8; n++) {
                if (w->alloc.allocate(*w->ctx, n % 2 == 0 ? 1024 : 64) == 0) {
                    throw OracleFailure("allocation failed after recovery");
                }
            }
            sched::fail_unless_ok(w->alloc.audit(mem));
        });
    };
}

TEST(SchedLocalLists, KilledRelinkAndDetachLeaveWellFormedSizedLists)
{
    // Three full slabs; one free relinks each, three allocations fill and
    // detach them again, and a last free relinks slab 0.
    Options opt;
    opt.seed = 5;
    opt.schedules = 256;
    opt.crash = true;
    opt.crash_horizon = 600;
    Result r = Explorer(opt).run(killed_owner(96, [](ListWorld& w) {
        for (int b : {5, 40, 70}) {
            w.alloc.deallocate(*w.ctx, w.blocks[b]);
        }
        for (int n = 0; n < 3; n++) {
            w.alloc.allocate(*w.ctx, 1024);
        }
        w.alloc.deallocate(*w.ctx, w.blocks[6]);
    }));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
}

TEST(SchedLocalLists, KilledRecycleAndInitLeaveWellFormedUnsizedList)
{
    // Slab 0 full, slab 1 partly used: emptying slab 0 recycles it onto
    // the unsized list, and the first 64 B allocation initializes it.
    Options opt;
    opt.seed = 9;
    opt.schedules = 384;
    opt.crash = true;
    opt.crash_horizon = 900;
    Result r = Explorer(opt).run(killed_owner(40, [](ListWorld& w) {
        for (int b = 0; b < 32; b++) {
            w.alloc.deallocate(*w.ctx, w.blocks[b]);
        }
        for (int n = 0; n < 3; n++) {
            w.alloc.allocate(*w.ctx, 64);
        }
    }));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
}

} // namespace
