/// Systematic crash-point sweep: run a fixed mixed workload and crash the
/// thread at the Nth instrumentation point for every N, recovering each
/// time and checking full heap consistency. This brute-forces the space of
/// interrupted-operation states far beyond the targeted white-box tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fixture.h"
#include "pod/crashpoint.h"

namespace {

using cxltest::Rig;
using pod::ThreadCrashed;

/// Every allocator-layer crash point, pulled from the central registry so
/// new points widen the sweep automatically (`cxlalloc_inspect
/// --list-crashpoints` prints the same inventory).
std::vector<int>
allocator_crash_points()
{
    cxlalloc::register_crash_points();
    std::vector<int> points;
    for (const pod::CrashPointInfo& info :
         pod::CrashPointRegistry::instance().all(
             pod::PointKind::Crash)) {
        const std::string& name = info.name;
        if (name.rfind("slab.", 0) == 0 || name.rfind("huge.", 0) == 0) {
            points.push_back(info.id);
        }
    }
    return points;
}

/// The workload whose every instrumentation point we sweep: mixed sizes,
/// frees (local + empty-slab recycling), plus a huge allocation.
std::uint64_t
workload_step(Rig& rig, pod::ThreadContext& ctx, cxlcommon::Xoshiro& rng,
              std::vector<cxl::HeapOffset>& live)
{
    if (rng.next_below(3) != 0 || live.empty()) {
        std::uint64_t size = rng.next_below(100) == 0
                                 ? (1 << 20)                // occasional huge
                                 : 8 + rng.next_below(2040);
        cxl::HeapOffset p = rig.alloc.allocate(ctx, size);
        if (p != 0) {
            live.push_back(p);
        }
        return 1;
    }
    std::size_t pick = rng.next_below(live.size());
    rig.alloc.deallocate(ctx, live[pick]);
    live[pick] = live.back();
    live.pop_back();
    return 1;
}

class CrashEverywhere : public ::testing::TestWithParam<int> {};

TEST_P(CrashEverywhere, SweepCountdownRange)
{
    // Each instance sweeps a band of countdown values so CTest can
    // parallelize; every maybe_crash() site in the band gets hit once.
    const int base = GetParam();
    for (int countdown = base; countdown < base + 40; countdown += 4) {
        Rig rig;
        auto t = rig.thread();
        cxlcommon::Xoshiro rng(countdown); // different schedule per sweep
        std::vector<cxl::HeapOffset> live;

        // Arm a crash at the countdown-th instrumentation point of ANY
        // kind: use random-crash with probability derived deterministically
        // is imprecise, so instead arm each registered point in turn.
        bool crashed = false;
        for (int point : allocator_crash_points()) {
            t->arm_crash(point, static_cast<std::uint32_t>(countdown));
            try {
                for (int i = 0; i < 800 && !crashed; i++) {
                    workload_step(rig, *t, rng, live);
                }
                t->disarm_crash();
            } catch (const ThreadCrashed&) {
                crashed = true;
                cxl::ThreadId tid = t->tid();
                rig.pod.mark_crashed(std::move(t));
                t = rig.pod.adopt_thread(rig.process, tid);
                rig.alloc.recover(*t);
                rig.alloc.check_invariants(t->mem());
            }
            if (crashed) {
                break;
            }
        }
        // Whether or not a crash fired at this depth, the heap must stay
        // fully usable afterwards.
        for (int i = 0; i < 50; i++) {
            cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
            ASSERT_NE(p, 0u);
            rig.alloc.deallocate(*t, p);
        }
        if (!crashed) {
            // No crash: `live` is exact, so every entry frees cleanly.
            // (After a crash mid-free the interrupted offset may already
            // have been freed by recovery, so tracking is conservative and
            // we leave `live` to the heap.)
            for (auto p : live) {
                rig.alloc.deallocate(*t, p);
            }
        }
        rig.alloc.check_invariants(t->mem());
        rig.pod.release_thread(std::move(t));
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, CrashEverywhere,
                         ::testing::Values(1, 41, 81, 121));

/// The owner's pin, window by window: thread A fills a 512 B slab (a
/// detach, no write-back) and B frees every block of it, so it holds only
/// the pin and A's next refill takes it back (reclaim); A fills a 256 B
/// slab after B freed one block of it (a disown, then the unpin); A holds
/// blocks of a 1 KiB and an 8 B slab and a 64 B slab with no live block,
/// and leaves (the release). B frees every block A handed it.
enum class PinWindow { Reclaim, DisownUnpin, Release };

/// One run with A's crash armed at (@p point, @p countdown) over
/// @p window only. Returns true if it fired. The end: a clean audit, no
/// pending free, and no live block but the one an interrupted allocation
/// may have kept (the application never saw its pointer).
bool
pin_life(cxl::CoherenceMode mode, PinWindow window, int point,
         std::uint32_t countdown)
{
    cxltest::RigOptions opt;
    opt.mode = mode;
    Rig rig(opt);
    auto a = rig.thread();
    auto b = rig.thread();
    std::vector<cxl::HeapOffset> handed;
    bool crashed = false;
    bool in_alloc = false;
    auto land = [&] { rig.alloc.cleanup(*b); };
    // Runs @p step as A, with the crash armed when @p w is the window.
    auto as_a = [&](PinWindow w, bool allocating, auto step) {
        if (w == window && !crashed) {
            a->arm_crash(point, countdown);
        }
        try {
            step();
            a->disarm_crash();
        } catch (const ThreadCrashed&) {
            crashed = true;
            in_alloc = allocating;
            cxl::ThreadId tid = a->tid();
            rig.pod.mark_crashed(std::move(a));
            a = rig.pod.adopt_thread(rig.process, tid);
            rig.alloc.recover(*a);
            cxlalloc::AuditReport r = rig.alloc.audit(a->mem());
            EXPECT_TRUE(r.ok()) << r.to_string();
            if (w == PinWindow::Release) {
                rig.alloc.detach_thread(*a); // the slot is still leaving
            }
        }
    };
    auto alloc_a = [&](std::uint64_t size) {
        cxl::HeapOffset p = rig.alloc.allocate(*a, size);
        EXPECT_NE(p, 0u);
        handed.push_back(p);
    };
    for (int i = 0; i < 64; i++) {
        alloc_a(512);
    }
    for (cxl::HeapOffset p : handed) {
        rig.alloc.deallocate(*b, p);
    }
    handed.clear();
    land();
    as_a(PinWindow::Reclaim, true, [&] { alloc_a(1024); });
    for (int i = 0; i < 3; i++) {
        alloc_a(1024);
    }
    for (int i = 0; i < 127; i++) {
        alloc_a(256);
    }
    rig.alloc.deallocate(*b, handed[4]);
    handed.erase(handed.begin() + 4);
    land();
    as_a(PinWindow::DisownUnpin, true, [&] { alloc_a(256); }); // fills it
    for (int i = 0; i < 3; i++) {
        alloc_a(8);
    }
    // A 64 B slab whose one block B frees: it comes back whole.
    alloc_a(64);
    rig.alloc.deallocate(*b, handed.back());
    handed.pop_back();
    land();
    as_a(PinWindow::Release, false, [&] { rig.alloc.detach_thread(*a); });
    for (cxl::HeapOffset p : handed) {
        rig.alloc.deallocate(*b, p);
    }
    land();
    cxlalloc::AuditReport r = rig.alloc.audit(b->mem());
    EXPECT_TRUE(r.ok()) << r.to_string();
    EXPECT_EQ(r.pending_frees, 0u);
    EXPECT_LE(r.live_blocks, in_alloc ? 1u : 0u);
    for (int i = 0; i < 40; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*b, 64 + i);
        EXPECT_NE(p, 0u);
        rig.alloc.deallocate(*b, p);
    }
    rig.pod.release_thread(std::move(a));
    rig.pod.release_thread(std::move(b));
    return crashed;
}

class PinWindows : public ::testing::TestWithParam<cxl::CoherenceMode> {};

TEST_P(PinWindows, EveryPointRecoversToACleanAudit)
{
    using cxlalloc::crashpoint::kMidReclaim;
    using cxlalloc::crashpoint::kMidRelease;
    using cxlalloc::crashpoint::kMidUnpin;
    std::vector<std::pair<PinWindow, int>> fired;
    for (PinWindow window : {PinWindow::Reclaim, PinWindow::DisownUnpin,
                             PinWindow::Release}) {
        for (int point : allocator_crash_points()) {
            for (std::uint32_t countdown = 1; countdown <= 8; countdown++) {
                SCOPED_TRACE("window " +
                             std::to_string(static_cast<int>(window)) +
                             " point " + std::to_string(point) +
                             " countdown " + std::to_string(countdown));
                if (pin_life(GetParam(), window, point, countdown)) {
                    fired.emplace_back(window, point);
                } else {
                    break; // the window reaches this point fewer times
                }
            }
        }
    }
    auto hit = [&](PinWindow w, int point) {
        return std::find(fired.begin(), fired.end(),
                         std::make_pair(w, point)) != fired.end();
    };
    EXPECT_TRUE(hit(PinWindow::Reclaim, kMidReclaim));
    EXPECT_TRUE(hit(PinWindow::DisownUnpin, kMidUnpin));
    EXPECT_TRUE(hit(PinWindow::Release, kMidUnpin));
    EXPECT_TRUE(hit(PinWindow::Release, kMidRelease));
}

INSTANTIATE_TEST_SUITE_P(Modes, PinWindows,
                         ::testing::Values(cxl::CoherenceMode::PartialHwcc,
                                           cxl::CoherenceMode::NoHwcc),
                         [](const auto& info) {
                             return info.param == cxl::CoherenceMode::NoHwcc
                                        ? std::string("NoHwcc")
                                        : std::string("PartialHwcc");
                         });

/// Thread A's scripted life, which reaches every registered slab and
/// huge crash point (the drain round's only under NoHwcc), with A's crash
/// armed at the @p countdown-th hit of @p point. unsized_limit 0 sends
/// every emptied spare slab to the global list. Returns true once A died:
/// the rest of the life is skipped, and A's slot waits for its adopter.
bool
scripted_life(Rig& rig, std::unique_ptr<pod::ThreadContext>& a, int point,
              std::uint32_t countdown)
{
    auto b = rig.thread();
    a->arm_crash(point, countdown);
    try {
        // A huge allocation (HugeReserve, HugeAlloc), then a full 512 B
        // slab (Extend, Init, Alloc, the full slab's Detach).
        cxl::HeapOffset huge = rig.alloc.allocate(*a, 1 << 20);
        std::vector<cxl::HeapOffset> x;
        for (int i = 0; i < 64; i++) {
            x.push_back(rig.alloc.allocate(*a, 512));
        }
        // B frees every block of it: it holds only the pin, and A's next
        // refill takes it back (reclaim), then trims it to the global
        // list (PushGlobal), from which the refill pops it.
        for (cxl::HeapOffset p : x) {
            rig.alloc.deallocate(*b, p);
        }
        rig.alloc.cleanup(*b);
        std::vector<cxl::HeapOffset> y;
        for (int i = 0; i < 40; i++) {
            y.push_back(rig.alloc.allocate(*a, 1024));
        }
        // Local frees relink the full first 1 KiB slab, then empty it.
        for (int i = 0; i < 32; i++) {
            rig.alloc.deallocate(*a, y[i]);
        }
        rig.alloc.deallocate(*a, huge); // HugeFree
        // A fills a 128 B slab after B freed one of its blocks: a disown,
        // then the unpin.
        std::vector<cxl::HeapOffset> z;
        for (int i = 0; i < 255; i++) {
            z.push_back(rig.alloc.allocate(*a, 128));
        }
        rig.alloc.deallocate(*b, z[0]);
        rig.alloc.cleanup(*b);
        rig.alloc.allocate(*a, 128);
        // C leaves with 16 live 256 B blocks (its slab disowned), and A
        // frees them: the last decrement steals the slab (a drain round
        // under NoHwcc).
        auto c = rig.thread();
        std::vector<cxl::HeapOffset> w;
        for (int i = 0; i < 16; i++) {
            w.push_back(rig.alloc.allocate(*c, 256));
        }
        rig.alloc.detach_thread(*c);
        rig.pod.release_thread(std::move(c));
        for (cxl::HeapOffset p : w) {
            rig.alloc.deallocate(*a, p);
        }
        rig.alloc.cleanup(*a);
        // A leaves holding one 64 B block: under NoHwcc its slab's 511
        // free blocks are deferred a row at a time before the disown.
        rig.alloc.allocate(*a, 64);
        rig.alloc.detach_thread(*a);
        a->disarm_crash();
    } catch (const ThreadCrashed&) {
        rig.alloc.detach_thread(*b);
        rig.pod.release_thread(std::move(b));
        return true;
    }
    rig.alloc.detach_thread(*b);
    rig.pod.release_thread(std::move(b));
    return false;
}

/// Throws ThreadCrashed at the installing thread's @p k-th hook event.
class KillAt : public sched::Listener {
  public:
    explicit KillAt(std::uint64_t k) : k_(k) {}

    void
    on_event(const sched::Event&) override
    {
        if (++seen_ == k_) {
            throw ThreadCrashed{-1};
        }
    }

  private:
    std::uint64_t k_;
    std::uint64_t seen_ = 0;
};

struct DeathCase {
    cxl::CoherenceMode mode;
    int point;
};

class RecoveryDeath : public ::testing::TestWithParam<DeathCase> {};

TEST_P(RecoveryDeath, SecondAdopterMatchesASingleRecovery)
{
    // For each of the first 16 hits of the point, then the 32nd, 64th, ...
    // while the life reaches it: the state A's death there leaves,
    // recovered once, is the reference. Then, for every k until recovery
    // completes (every k up to kEveryK, sampled past it), its adopter dies
    // at its k-th hook event inside recover() and a second adopter
    // recovers: the audit must be clean, with the live blocks and pending
    // frees of the reference.
    constexpr std::uint64_t kEveryK = 256;
    cxltest::RigOptions opt;
    opt.mode = GetParam().mode;
    opt.unsized_limit = 0;
    std::uint32_t countdown = 1;
    bool reached = true;
    auto recovered = [&](std::uint64_t kill_at, bool* killed) {
        auto rig = std::make_unique<Rig>(opt);
        auto a = rig->thread();
        reached = scripted_life(*rig, a, GetParam().point, countdown);
        if (!reached) {
            rig->pod.release_thread(std::move(a));
            return cxlalloc::AuditReport{};
        }
        cxl::ThreadId tid = a->tid();
        rig->pod.mark_crashed(std::move(a));
        a = rig->pod.adopt_thread(rig->process, tid);
        KillAt kill(kill_at);
        sched::t_listener = &kill;
        *killed = false;
        try {
            rig->alloc.recover(*a);
        } catch (const ThreadCrashed&) {
            *killed = true;
        }
        sched::t_listener = nullptr;
        if (*killed) {
            rig->pod.mark_crashed(std::move(a));
            a = rig->pod.adopt_thread(rig->process, tid);
            rig->alloc.recover(*a);
        }
        cxlalloc::AuditReport r = rig->alloc.audit(a->mem());
        rig->pod.release_thread(std::move(a));
        return r;
    };
    for (; ; countdown += countdown < 16 ? 1 : countdown) {
        SCOPED_TRACE("hit " + std::to_string(countdown) + " of the point");
        bool killed = false;
        cxlalloc::AuditReport ref = recovered(0, &killed);
        if (!reached) {
            break;
        }
        ASSERT_TRUE(ref.ok()) << ref.to_string();
        std::uint64_t k = 0;
        do {
            k += k < kEveryK ? 1 : k / 16;
            SCOPED_TRACE("adopter killed at hook event " + std::to_string(k));
            cxlalloc::AuditReport r = recovered(k, &killed);
            ASSERT_TRUE(r.ok()) << r.to_string();
            ASSERT_EQ(r.live_blocks, ref.live_blocks);
            ASSERT_EQ(r.pending_frees, ref.pending_frees);
        } while (killed);
        EXPECT_GT(k, 8u) << "recovery ran too few hook events to kill";
    }
    EXPECT_GT(countdown, 1u) << "the life never reaches the point";
}

std::vector<DeathCase>
death_cases()
{
    std::vector<DeathCase> cases;
    for (cxl::CoherenceMode mode : {cxl::CoherenceMode::PartialHwcc,
                                    cxl::CoherenceMode::NoHwcc}) {
        for (int point : allocator_crash_points()) {
            const bool batch =
                point == cxlalloc::crashpoint::kMidBatchStage ||
                point == cxlalloc::crashpoint::kMidBatchDoorbell ||
                point == cxlalloc::crashpoint::kMidBatchDrain;
            if (!batch || mode == cxl::CoherenceMode::NoHwcc) {
                cases.push_back({mode, point});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Points, RecoveryDeath, ::testing::ValuesIn(death_cases()),
    [](const ::testing::TestParamInfo<DeathCase>& info) {
        std::string name = info.param.mode == cxl::CoherenceMode::NoHwcc
                               ? "NoHwcc_"
                               : "PartialHwcc_";
        name += pod::CrashPointRegistry::instance()
                    .find(info.param.point)
                    ->name;
        std::replace(name.begin(), name.end(), '.', '_');
        return name;
    });

TEST(CrashEverywhere, RepeatedCrashRecoverCyclesOnOneSlot)
{
    // The same slot crashes and recovers many times in a row; versions,
    // help entries and records must keep working across generations.
    Rig rig;
    auto t = rig.thread();
    cxlcommon::Xoshiro rng(99);
    std::vector<cxl::HeapOffset> live;
    int crashes = 0;
    for (int round = 0; round < 60; round++) {
        t->arm_crash(cxlalloc::crashpoint::kAfterRecord,
                     1 + static_cast<std::uint32_t>(rng.next_below(20)));
        try {
            for (int i = 0; i < 200; i++) {
                workload_step(rig, *t, rng, live);
            }
            t->disarm_crash();
        } catch (const ThreadCrashed&) {
            crashes++;
            cxl::ThreadId tid = t->tid();
            rig.pod.mark_crashed(std::move(t));
            t = rig.pod.adopt_thread(rig.process, tid);
            rig.alloc.recover(*t);
            rig.alloc.check_invariants(t->mem());
            // Forget `live` tracking fidelity after a crash mid-free; just
            // stop freeing old pointers and keep allocating.
            live.clear();
        }
    }
    EXPECT_GT(crashes, 20);
    cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
    EXPECT_NE(p, 0u);
    rig.pod.release_thread(std::move(t));
}

TEST(CrashEverywhere, TwoThreadsCrashSimultaneously)
{
    Rig rig;
    auto a = rig.thread();
    auto b = rig.thread();
    for (int i = 0; i < 200; i++) {
        rig.alloc.allocate(*a, 128);
        rig.alloc.allocate(*b, 256);
    }
    a->arm_crash(cxlalloc::crashpoint::kAfterRecord, 1);
    b->arm_crash(cxlalloc::crashpoint::kMidInit, 1);
    try {
        rig.alloc.allocate(*a, 128);
    } catch (const ThreadCrashed&) {
    }
    try {
        for (int i = 0; i < 200; i++) {
            rig.alloc.allocate(*b, 8 + i); // force an init eventually
        }
        b->disarm_crash();
    } catch (const ThreadCrashed&) {
    }
    cxl::ThreadId ta = a->tid();
    cxl::ThreadId tb = b->tid();
    rig.pod.mark_crashed(std::move(a));
    rig.pod.mark_crashed(std::move(b));
    EXPECT_EQ(rig.pod.crashed_threads().size(), 2u);
    // Recover in the opposite order of crashing.
    auto rb = rig.pod.adopt_thread(rig.process, tb);
    rig.alloc.recover(*rb);
    auto ra = rig.pod.adopt_thread(rig.process, ta);
    rig.alloc.recover(*ra);
    rig.alloc.check_invariants(ra->mem());
    EXPECT_NE(rig.alloc.allocate(*ra, 64), 0u);
    EXPECT_NE(rig.alloc.allocate(*rb, 64), 0u);
    rig.pod.release_thread(std::move(ra));
    rig.pod.release_thread(std::move(rb));
}

} // namespace
