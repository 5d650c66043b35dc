/// @file
/// A thread's local slab lists under crash injection: one owner edits its
/// sized and unsized lists (relink, detach, recycle, init) and is killed at
/// an arbitrary yield; recovery adopts the slot. The shared-heap audit
/// cannot see a half-done list edit, so the end oracle first walks the
/// adopted slot's own lists (links, tail word, count, owner, state,
/// class), then audits, checks local invariants and allocates.

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

/// Offset of a sized slab's prev word in its descriptor (layout.h).
constexpr std::uint64_t kPrevWord = 12;

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
        // No cache simulation: the oracle reads descriptors directly.
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

/// Walks @p tid's small-heap lists through @p mem and throws OracleFailure
/// at the first broken link, count, owner, state or class.
void
walk_small_lists(cxl::MemSession& mem, const cxlalloc::Layout& l,
                 cxl::ThreadId tid)
{
    using cxlalloc::DescField;
    using cxlalloc::SlabState;
    const std::uint32_t slabs = l.config().small_slabs;
    auto fail = [](const std::string& what) { throw OracleFailure(what); };
    auto field = [&](std::uint32_t slab, std::uint64_t at) {
        return l.small_swcc_desc(slab) + at;
    };
    auto state = [&](std::uint32_t slab) {
        return static_cast<SlabState>(
            mem.load<std::uint8_t>(field(slab, DescField::kState)));
    };
    auto check_owned = [&](std::uint32_t slab, SlabState want,
                           std::uint8_t biased, const char* list) {
        if (slab >= slabs) {
            fail(std::string(list) + " link past the heap: " +
                 std::to_string(slab));
        }
        auto who = mem.load<cxl::ThreadId>(field(slab, DescField::kOwner));
        if (who != tid) {
            fail(std::string(list) + " slab " + std::to_string(slab) +
                 " owned by " + std::to_string(who));
        }
        if (state(slab) != want) {
            fail(std::string(list) + " slab " + std::to_string(slab) +
                 " in state " + cxlalloc::to_string(state(slab)));
        }
        auto cls = mem.load<std::uint8_t>(field(slab, DescField::kClass));
        if (cls != biased) {
            fail(std::string(list) + " slab " + std::to_string(slab) +
                 " class " + std::to_string(cls) + " != " +
                 std::to_string(biased));
        }
    };

    const cxl::HeapOffset row = l.small_local(tid);
    std::uint32_t raw = mem.load<std::uint32_t>(row);
    std::uint32_t count = 0;
    while (raw != 0) {
        if (++count > slabs) {
            fail("unsized list is cyclic");
        }
        check_owned(raw - 1, SlabState::TlUnsized, 0, "unsized");
        raw = mem.load<std::uint32_t>(field(raw - 1, DescField::kNext));
    }
    auto stored = mem.load<std::uint32_t>(
        row + 4 + 4 * static_cast<cxl::HeapOffset>(cxlalloc::kNumSmallClasses));
    if (stored != count) {
        fail("unsized count " + std::to_string(stored) + " != list " +
             std::to_string(count));
    }

    for (std::uint32_t cls = 0; cls < cxlalloc::kNumSmallClasses; cls++) {
        const auto head = mem.load<std::uint32_t>(row + 4 + 4 * cls);
        std::uint32_t prev = 0;
        std::uint32_t steps = 0;
        for (raw = head; raw != 0;) {
            if (++steps > slabs) {
                fail("sized list of class " + std::to_string(cls) +
                     " is cyclic");
            }
            const std::uint32_t slab = raw - 1;
            check_owned(slab, SlabState::TlSized,
                        static_cast<std::uint8_t>(cls + 1), "sized");
            if (mem.load<std::uint16_t>(field(slab, DescField::kFree)) == 0) {
                fail("sized slab " + std::to_string(slab) + " is full");
            }
            if (raw != head &&
                mem.load<std::uint32_t>(field(slab, kPrevWord)) != prev) {
                fail("prev link broken at slab " + std::to_string(slab));
            }
            prev = raw;
            raw = mem.load<std::uint32_t>(field(slab, DescField::kNext));
        }
        if (head != 0 &&
            mem.load<std::uint32_t>(field(head - 1, kPrevWord)) != prev) {
            fail("head of class " + std::to_string(cls) +
                 " does not name its tail " + std::to_string(prev - 1));
        }
    }
}

/// Runs @p body as the one killable owner; the end oracle recovers a
/// killed slot, walks its lists, audits, checks local invariants and
/// allocates 8 blocks.
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
            walk_small_lists(mem, w->alloc.layout(), w->tid);
            sched::fail_unless_ok(w->alloc.audit(mem));
            w->alloc.check_local_invariants(mem);
            for (int n = 0; n < 8; n++) {
                if (w->alloc.allocate(*w->ctx, n % 2 == 0 ? 1024 : 64) == 0) {
                    throw OracleFailure("allocation failed after recovery");
                }
            }
            w->alloc.check_local_invariants(mem);
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
