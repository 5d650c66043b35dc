/// @file
/// Record-durable-before-CAS oracle under explored schedules.
///
/// The deferred-record discipline (RecoveryLog::log_local) removes the
/// per-op flush+fence from the local fast path. Its soundness boundary is
/// the detectable CAS: a record describing a CAS-bearing operation must
/// be durable BEFORE the CAS fires, or `did_succeed` reasoning breaks
/// after a host crash. sched::RecordFlushOracle watches every vthread's
/// recovery-record row and fails any schedule where an Op::DcasTry fires
/// while the row is dirty, or where the CAS it begins tags the word with
/// a version other than the durable record's. The correct allocator must
/// pass, its recovery redos included; the skip_record_publish_flush fault
/// (defer where deferral is unsound) must be caught within the CI budget
/// and replay bit-for-bit.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/test_faults.h"
#include "cxlalloc/allocator.h"
#include "cxlalloc/recovery.h"
#include "pod/pod.h"
#include "sched/explorer.h"
#include "sched/oracles.h"

namespace {

using sched::Event;
using sched::Explorer;
using sched::Op;
using sched::Options;
using sched::OracleFailure;
using sched::Result;
using sched::Run;

constexpr int kVthreads = 2;
constexpr int kBlocks = 64;

/// Same rig as test_sched_swcc: unsized_limit = 0 forces every empty slab
/// through the push-global detectable CAS, so each body crosses the
/// record-durability boundary many times.
struct RecordWorld {
    RecordWorld()
        : cfg(make_config()), pod(make_pod(cfg)), alloc(pod, cfg),
          oracle(alloc.layout().recovery_row(0),
                 alloc.layout().recovery_row(cxl::kMaxThreads) + 64,
                 [this](std::uint64_t row) {
                     std::uint64_t word = 0;
                     std::memcpy(&word, pod.device().raw(row), sizeof word);
                     return cxlalloc::OpRecord::unpack(word).version;
                 })
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
    sched::RecordFlushOracle oracle;
    std::uint64_t cas_tries = 0;
};

void
churn(RecordWorld& w, int i)
{
    std::vector<cxl::HeapOffset> blocks;
    for (int n = 0; n < kBlocks; n++) {
        blocks.push_back(w.alloc.allocate(*w.ctxs[i], 1024));
    }
    for (cxl::HeapOffset p : blocks) {
        w.alloc.deallocate(*w.ctxs[i], p);
    }
}

std::function<void(Run&)>
record_factory(const std::shared_ptr<std::uint64_t>& cas_total)
{
    return [cas_total](Run& run) {
        auto w = std::make_shared<RecordWorld>();
        for (int i = 0; i < kVthreads; i++) {
            w->oracle.bind(static_cast<std::uint32_t>(i),
                           w->alloc.layout().recovery_row(w->tids[i]), 8);
            run.spawn("churn" + std::to_string(i), [w, i] { churn(*w, i); });
        }
        run.on_event([w](std::uint32_t vthread, const Event& e) {
            if (e.op == Op::DcasTry) {
                w->cas_tries++;
            }
            w->oracle.observe(vthread, e);
        });
        run.at_end([w, cas_total](const sched::RunEnd&) {
            *cas_total += w->cas_tries;
            if (w->cas_tries == 0) {
                throw OracleFailure("workload never crossed the "
                                    "record-durability boundary");
            }
        });
    };
}

/// vthread 0 empties a 1 KiB slab that shares its class, and the trim
/// that follows dies between its pop and its CAS (kMidPushGlobal). Its
/// adopter recovers on the same vthread, so the oracle watches the redo's
/// CAS, while vthread 1 churns.
std::function<void(Run&)>
redo_factory()
{
    return [](Run& run) {
        auto w = std::make_shared<RecordWorld>();
        auto ptrs = std::make_shared<std::vector<cxl::HeapOffset>>();
        for (int n = 0; n < 40; n++) {
            ptrs->push_back(w->alloc.allocate(*w->ctxs[0], 1024));
        }
        for (int i = 0; i < kVthreads; i++) {
            w->oracle.bind(static_cast<std::uint32_t>(i),
                           w->alloc.layout().recovery_row(w->tids[i]), 8);
        }
        run.spawn("trim", [w, ptrs] {
            pod::ThreadContext& ctx = *w->ctxs[0];
            ctx.arm_crash(cxlalloc::crashpoint::kMidPushGlobal, 1);
            try {
                for (int n = 0; n < 32; n++) {
                    w->alloc.deallocate(ctx, (*ptrs)[n]);
                }
                throw OracleFailure("the trim never reached its CAS");
            } catch (const pod::ThreadCrashed&) {
            }
            cxl::ThreadId tid = ctx.tid();
            w->pod.mark_crashed(std::move(w->ctxs[0]));
            w->oracle.written_back(0);
            w->ctxs[0] = w->pod.adopt_thread(w->process, tid);
            w->alloc.recover(*w->ctxs[0]);
        });
        run.spawn("churn", [w] { churn(*w, 1); });
        run.on_event([w](std::uint32_t vthread, const Event& e) {
            w->oracle.observe(vthread, e);
        });
        run.at_end([w](const sched::RunEnd&) {
            sched::fail_unless_ok(w->alloc.audit(w->ctxs[1]->mem()));
        });
    };
}

TEST(SchedRecord, RedoCasCarriesItsRecordsVersion)
{
    // The PushGlobal redo pushes the slab through the trim, under a record
    // of its own: a CAS at a version no record holds would look failed to
    // a second adopter, which would push the slab again.
    Options opt;
    opt.seed = 71;
    opt.schedules = 8;
    Result r = Explorer(opt).run(redo_factory());
    EXPECT_TRUE(r.ok) << r.summary();
}

TEST(SchedRecord, DeferredRecordsAreDurableBeforeEveryCas)
{
    auto cas_tries = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 61;
    opt.schedules = 12;
    Result r = Explorer(opt).run(record_factory(cas_tries));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_GT(*cas_tries, 0u);
}

TEST(SchedRecord, UnsoundDeferralIsCaughtAndReplaysBitForBit)
{
    struct FaultGuard {
        ~FaultGuard() { cxlcommon::test_faults::reset(); }
    } guard;
    cxlcommon::test_faults::skip_record_publish_flush = true;

    auto cas_tries = std::make_shared<std::uint64_t>(0);
    Options opt;
    opt.seed = 67;
    opt.schedules = 8;
    Explorer ex(opt);
    Result r = ex.run(record_factory(cas_tries));
    ASSERT_FALSE(r.ok) << "dirty record at DcasTry escaped the oracle";
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("record-durable-before-CAS"),
              std::string::npos)
        << r.failure->message;

    Result r1 = ex.replay(*r.failure, record_factory(cas_tries));
    Result r2 = ex.replay(*r.failure, record_factory(cas_tries));
    ASSERT_FALSE(r1.ok);
    ASSERT_FALSE(r2.ok);
    EXPECT_EQ(r1.failure->message, r.failure->message);
    EXPECT_EQ(r1.failure->trace, r.failure->trace);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint)
        << "replay must be bit-for-bit deterministic";
}

} // namespace
