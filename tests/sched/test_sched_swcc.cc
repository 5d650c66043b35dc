/// @file
/// SWcc publication protocol under explored schedules (paper §3.2.2): two
/// allocator threads churn small slabs with simulated incoherent caches
/// while a DirtyLineTracker oracle enforces flush-before-publish on every
/// CAS that pushes a descriptor onto the global free list. The deliberate
/// protocol mutation (skipping the descriptor flush in push_global_one)
/// must be caught within the CI budget and replay bit-for-bit — the
/// acceptance check of the schedule-explorer subsystem.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/test_faults.h"
#include "cxlalloc/allocator.h"
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

constexpr int kVthreads = 2;
constexpr int kBlocks = 64; // two 32 KiB slabs of 1 KiB blocks per thread

/// Allocator rig with unsized_limit = 0: every slab that empties while its
/// class has siblings spills straight to the global list, so each body
/// deterministically exercises the publish path the oracle watches.
struct SwccWorld {
    SwccWorld()
        : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg),
          tracker(alloc.layout().small_swcc_desc(0),
                  alloc.layout().small_swcc_desc(cfg.small_slabs))
    {
        process = pod.create_process();
        alloc.attach(*process);
        for (int i = 0; i < kVthreads; i++) {
            ctxs.push_back(pod.create_thread(process));
            alloc.attach_thread(*ctxs.back());
            tids.push_back(ctxs.back()->tid());
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
        cfg.unsized_limit = 0;
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
    sched::DirtyLineTracker tracker;
    std::uint64_t publishes = 0;
};

void
churn(SwccWorld& w, int i)
{
    std::vector<cxl::HeapOffset> blocks;
    for (int n = 0; n < kBlocks; n++) {
        blocks.push_back(w.alloc.allocate(*w.ctxs[i], 1024));
    }
    for (cxl::HeapOffset p : blocks) {
        w.alloc.deallocate(*w.ctxs[i], p);
    }
}

/// Watches every yield: any CAS installing a nonzero head on the small
/// global free list publishes desc(head - 1); the CASing thread must hold
/// no dirty lines of that descriptor.
void
install_publish_oracle(Run& run, const std::shared_ptr<SwccWorld>& w)
{
    run.on_event([w](std::uint32_t vthread, const Event& e) {
        w->tracker.observe(vthread, e);
        if (e.op != Op::Cas || e.addr != w->alloc.layout().small_free()) {
            return;
        }
        std::uint32_t raw = DcasWord::value(e.aux);
        if (raw == 0) {
            return;
        }
        w->publishes++;
        cxl::HeapOffset desc = w->alloc.layout().small_swcc_desc(raw - 1);
        sched::require_flushed(w->tracker, vthread, desc,
                               desc + cxlalloc::Layout::kSmallDescStride,
                               "small slab descriptor " +
                                   std::to_string(raw - 1));
    });
}

std::function<void(Run&)>
swcc_factory(const std::shared_ptr<std::uint64_t>& publish_total)
{
    return [publish_total](sched::Run& run) {
        auto w = std::make_shared<SwccWorld>();
        for (int i = 0; i < kVthreads; i++) {
            run.spawn("churn" + std::to_string(i), [w, i] { churn(*w, i); });
        }
        install_publish_oracle(run, w);
        run.at_end([w, publish_total](const sched::RunEnd&) {
            *publish_total += w->publishes;
            if (w->publishes == 0) {
                throw OracleFailure("workload never reached the publish "
                                    "path the oracle watches");
            }
        });
    };
}

TEST(SchedSwcc, CorrectProtocolFlushesBeforeEveryPublish)
{
    auto publishes = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 47;
    opt.schedules = 12;
    Result r = Explorer(opt).run(swcc_factory(publishes));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(*publishes, 0u);
}

TEST(SchedSwcc, SkippedPublishFlushIsCaughtAndReplaysBitForBit)
{
    struct FaultGuard {
        ~FaultGuard() { cxlcommon::test_faults::reset(); }
    } guard;
    cxlcommon::test_faults::skip_swcc_publish_flush = true;

    auto publishes = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 53;
    opt.schedules = 8;
    Explorer ex(opt);
    Result r = ex.run(swcc_factory(publishes));
    ASSERT_FALSE(r.ok) << "unflushed publish escaped the oracle";
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("flush-before-publish"),
              std::string::npos);

    Result r1 = ex.replay(*r.failure, swcc_factory(publishes));
    Result r2 = ex.replay(*r.failure, swcc_factory(publishes));
    ASSERT_FALSE(r1.ok);
    ASSERT_FALSE(r2.ok);
    EXPECT_EQ(r1.failure->message, r.failure->message);
    EXPECT_EQ(r1.failure->trace, r.failure->trace);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint)
        << "replay must be bit-for-bit deterministic";
}

TEST(SchedSwcc, KillDuringChurnThenRecoveryKeepsHeapUsable)
{
    auto publishes = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 59;
    opt.schedules = 24;
    opt.crash = true;
    opt.crash_horizon = 2000;
    Result r = Explorer(opt).run([publishes](sched::Run& run) {
        auto w = std::make_shared<SwccWorld>();
        for (int i = 0; i < kVthreads; i++) {
            run.spawn(
                "churn" + std::to_string(i),
                [w, i] {
                    try {
                        churn(*w, i);
                    } catch (const sched::VthreadKilled&) {
                        w->pod.mark_crashed(std::move(w->ctxs[i]));
                    }
                },
                /*killable=*/true);
        }
        install_publish_oracle(run, w);
        run.at_end([w, publishes](const sched::RunEnd& end) {
            *publishes += w->publishes;
            if (end.killed == kNoVthread) {
                return;
            }
            auto adopted =
                w->pod.adopt_thread(w->process, w->tids[end.killed]);
            w->alloc.recover(*adopted);
            // The recovered slot must be fully usable again.
            cxl::HeapOffset p = w->alloc.allocate(*adopted, 1024);
            if (p == 0) {
                throw OracleFailure("allocation failed after recovery");
            }
            w->alloc.deallocate(*adopted, p);
            // The survivor's cache back too: the audit reads the device.
            for (auto& ctx : w->ctxs) {
                if (ctx != nullptr) {
                    ctx->mem().cache().writeback_all();
                }
            }
            sched::fail_unless_ok(w->alloc.audit(adopted->mem()));
        });
    });
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(r.kills, 0u);
    EXPECT_GT(*publishes, 0u);
}

} // namespace
