/// @file
/// The owner's pin under explored schedules (RECOVERY.md, "The owner's
/// pin"): an owner fills a slab while a freer frees every block of it,
/// under simulated incoherent caches. The fill detaches the slab without
/// writing anything back, or disowns it (written back, then unpinned)
/// when a remote free landed first; the owner then takes a pin-only slab
/// back before it grows the heap, and in cleanup. Two oracles watch every
/// yield: at any CAS that takes a slab's remote-free counter to zero (the
/// moment another thread may take the slab) no thread holds a dirty line
/// of its descriptor, and every CAS that links a slab onto the global
/// list finds its descriptor written back. With kills, either participant
/// dies at any yield and a recoverer adopts its slot. The end oracle is
/// the heap audit. A detach that frees the pin before any write-back is
/// caught and replays bit for bit.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/test_faults.h"
#include "cxlalloc/allocator.h"
#include "cxlalloc/size_class.h"
#include "pod/pod.h"
#include "sched/explorer.h"
#include "sched/oracles.h"
#include "sync/detectable_cas.h"

namespace {

using cxlsync::DcasWord;
using sched::Event;
using sched::Explorer;
using sched::kNoVthread;
using sched::Op;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;

constexpr std::uint64_t kSize = 512;
constexpr int kBlocks = 64; // one 32 KiB slab of 512 B blocks

/// What the explored schedules did, summed over them: the oracles must
/// have watched both paths of a fill, and the takes they guard.
struct Totals {
    std::uint64_t disowns = 0;  ///< fills that disowned (then unpinned)
    std::uint64_t reclaims = 0; ///< pin-only slabs their owner took back
    std::uint64_t zeroings = 0; ///< counters CASed to zero (steals)
    std::uint64_t publishes = 0; ///< slabs linked onto the global list
};

struct PinWorld {
    PinWorld()
        : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg),
          tracker(alloc.layout().small_swcc_desc(0),
                  alloc.layout().small_swcc_desc(cfg.small_slabs))
    {
        process = pod.create_process();
        alloc.attach(*process);
        for (int i = 0; i < 2; i++) {
            ctxs.push_back(pod.create_thread(process));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
        }
        // Unhooked pre-state: the owner holds all but one block of a slab
        // and has handed them to the freer; its next allocation fills it.
        for (int n = 0; n + 1 < kBlocks; n++) {
            handed.push_back(alloc.allocate(*ctxs[0], kSize));
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
        cfg.unsized_limit = 0; // a taken-back slab goes on to the global list
        return cfg;
    }

    static pod::PodConfig
    make_pod(const cxlalloc::Config& cfg)
    {
        pod::PodConfig pc;
        pc.device = cxlalloc::Layout(cfg).device_config(
            cxl::CoherenceMode::PartialHwcc, /*simulate_cache=*/true);
        return pc;
    }

    cxlalloc::Config cfg;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
    std::vector<std::unique_ptr<pod::ThreadContext>> ctxs;
    std::vector<cxl::ThreadId> tids;
    std::vector<cxl::HeapOffset> handed;
    /// The filling block, once the owner has it (vthreads run one at a
    /// time, so plain fields suffice).
    cxl::HeapOffset last = 0;
    bool freed_all = false;
    sched::DirtyLineTracker tracker;
    int finished = 0;
    std::uint32_t dead = kNoVthread;
};

/// Fails the schedule when a CAS takes a small slab's remote-free counter
/// to zero while any thread holds a dirty line of its descriptor, or
/// links a slab on the global list with the linker's lines dirty.
void
install_oracles(Run& run, const std::shared_ptr<PinWorld>& w, Totals& totals)
{
    run.on_event([w, &totals](std::uint32_t vthread, const Event& e) {
        w->tracker.observe(vthread, e);
        if (e.op == Op::CrashPoint) {
            totals.disowns += e.aux == cxlalloc::crashpoint::kMidUnpin;
            totals.reclaims += e.aux == cxlalloc::crashpoint::kMidReclaim;
        }
        if (e.op != Op::Cas) {
            return;
        }
        const cxlalloc::Layout& l = w->alloc.layout();
        const cxl::HeapOffset counters = l.small_hwcc_desc(0);
        if (e.addr >= counters &&
            e.addr < l.small_hwcc_desc(w->cfg.small_slabs) &&
            DcasWord::value(e.aux) == 0) {
            auto slab = static_cast<std::uint32_t>((e.addr - counters) / 8);
            totals.zeroings++;
            cxl::HeapOffset desc = l.small_swcc_desc(slab);
            for (std::uint32_t v = 0; v < w->ctxs.size() + 1; v++) {
                sched::require_flushed(
                    w->tracker, v, desc,
                    desc + cxlalloc::Layout::kSmallDescStride,
                    "slab " + std::to_string(slab) +
                        " counted to zero (vthread " + std::to_string(v) +
                        ")");
            }
        }
        if (e.addr == l.small_free() && DcasWord::value(e.aux) != 0) {
            totals.publishes++;
            cxl::HeapOffset desc =
                l.small_swcc_desc(DcasWord::value(e.aux) - 1);
            sched::require_flushed(
                w->tracker, vthread, desc,
                desc + cxlalloc::Layout::kSmallDescStride,
                "global slab " + std::to_string(DcasWord::value(e.aux) - 1));
        }
    });
}

/// Participant @p v: runs @p work; a kill marks its slot crashed (its
/// cache written back) for the recoverer.
std::function<void()>
participant(const std::shared_ptr<PinWorld>& w, std::uint32_t v,
            std::function<void()> work)
{
    return [w, v, work] {
        try {
            work();
        } catch (const sched::VthreadKilled&) {
            w->pod.mark_crashed(std::move(w->ctxs[v]));
            w->tracker.written_back(v);
            w->dead = v;
        }
        w->finished++;
    };
}

void
spawn_workload(Run& run, const std::shared_ptr<PinWorld>& w, bool killable)
{
    auto owner = [w] {
        cxlalloc::CxlAllocator& a = w->alloc;
        w->last = a.allocate(*w->ctxs[0], kSize); // fills the slab
        // A pin-only slab serves this refill before the heap grows.
        cxl::HeapOffset p = a.allocate(*w->ctxs[0], kSize);
        a.deallocate(*w->ctxs[0], p);
        while (!w->freed_all && w->dead != 1) {
            sched::hook(Op::Load); // yield until every block is freed
        }
        a.cleanup(*w->ctxs[0]); // takes a pin-only slab back
    };
    auto freer = [w] {
        for (cxl::HeapOffset p : w->handed) {
            w->alloc.deallocate(*w->ctxs[1], p);
        }
        while (w->last == 0 && w->dead != 0) {
            sched::hook(Op::Load); // yield until the owner filled it
        }
        if (w->last != 0) {
            w->alloc.deallocate(*w->ctxs[1], w->last);
        }
        w->freed_all = true;
    };
    run.spawn("owner", participant(w, 0, owner), killable);
    run.spawn("freer", participant(w, 1, freer), killable);
    run.spawn("recoverer", [w] {
        while (w->finished < 2 ||
               (w->dead != kNoVthread && w->ctxs[w->dead] == nullptr)) {
            if (w->dead != kNoVthread && w->ctxs[w->dead] == nullptr) {
                w->ctxs[w->dead] =
                    w->pod.adopt_thread(w->process, w->tids[w->dead]);
                w->alloc.recover(*w->ctxs[w->dead]);
            } else {
                sched::hook(Op::Load); // yield until there is work
            }
        }
    });
}

/// The race; @p totals outlives every schedule it sums.
std::function<void(sched::Run&)>
pin_race(bool killable, Totals& totals)
{
    return [killable, &totals](sched::Run& run) {
        auto w = std::make_shared<PinWorld>();
        spawn_workload(run, w, killable);
        install_oracles(run, w, totals);
        run.at_end([w](const sched::RunEnd&) {
            // Every thread's cache back, as a quiescent pod would have it:
            // the audit reads each descriptor from the device.
            for (auto& ctx : w->ctxs) {
                ctx->mem().cache().writeback_all();
            }
            sched::fail_unless_ok(w->alloc.audit(w->ctxs[0]->mem()));
        });
    };
}

TEST(SchedPin, DetachWithoutWriteBackNeverLosesTheSlab)
{
    Options opt;
    opt.seed = 211;
    opt.schedules = 48;
    Totals totals;
    Result r = Explorer(opt).run(pin_race(/*killable=*/false, totals));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.truncated, 0u);
    EXPECT_GT(totals.disowns, 0u);
    EXPECT_GT(totals.reclaims, 0u);
    EXPECT_GT(totals.zeroings, 0u);
    EXPECT_GT(totals.publishes, 0u);
}

TEST(SchedPin, KillAnyParticipantRecoverAndAudit)
{
    Options opt;
    opt.seed = 223;
    opt.schedules = 64;
    opt.crash = true;
    opt.crash_horizon = 600;
    Totals totals;
    Result r = Explorer(opt).run(pin_race(/*killable=*/true, totals));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
}

TEST(SchedPin, PinFreedAtDetachIsCaughtAndReplaysBitForBit)
{
    struct Reset {
        ~Reset() { cxlcommon::test_faults::reset(); }
    } reset;
    cxlcommon::test_faults::free_pin_at_detach = true;
    Options opt;
    opt.seed = 227;
    opt.schedules = 48;
    Explorer ex(opt);
    Totals totals;
    Result r = ex.run(pin_race(/*killable=*/false, totals));
    ASSERT_FALSE(r.ok) << "a detach that gave its pin up escaped";
    EXPECT_NE(r.summary().find("counted to zero"), std::string::npos)
        << r.summary();
    Result again =
        ex.replay(*r.failure, pin_race(/*killable=*/false, totals));
    ASSERT_FALSE(again.ok);
    EXPECT_EQ(again.failure->message, r.failure->message);
    EXPECT_EQ(again.failure->trace, r.failure->trace);
}

} // namespace
