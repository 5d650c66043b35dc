/// Model test of the SWccDesc.free counter (the O(1) slab-fullness
/// tracker): after every operation — alloc, local free, remote free with
/// steal, scavenge, crash recovery — every classed slab's counter must
/// equal the popcount of its free bitset. The bitset stays the durable
/// truth; the counter is a shadow the fast path trusts, so any divergence
/// is a correctness bug (a slab could be mis-detected as full or empty).

#include <gtest/gtest.h>
#include <vector>

#include "common/random.h"
#include "fixture.h"

namespace {

using cxltest::Rig;
using pod::ThreadCrashed;

/// The audit, whose free-counter law checks counter == popcount on every
/// classed slab of both slab heaps.
void
expect_audit_ok(Rig& rig, cxl::MemSession& mem)
{
    cxlalloc::AuditReport audit = rig.alloc.audit(mem);
    ASSERT_TRUE(audit.ok()) << audit.to_string();
}

TEST(BitsetCounter, RandomizedAllocFreeKeepsCounterExact)
{
    Rig rig;
    auto t = rig.thread();
    cxlcommon::Xoshiro rng(7);
    std::vector<cxl::HeapOffset> live;
    for (int step = 0; step < 3000; step++) {
        if (rng.next_below(3) != 0 || live.empty()) {
            // Mixed small + large classes; tiny sizes exercise the widest
            // bitsets (8 B class: 4096 blocks, 64 words).
            std::uint64_t size = 8 + rng.next_below(2040);
            cxl::HeapOffset p = rig.alloc.allocate(*t, size);
            if (p != 0) {
                live.push_back(p);
            }
        } else {
            std::size_t pick = rng.next_below(live.size());
            rig.alloc.deallocate(*t, live[pick]);
            live[pick] = live.back();
            live.pop_back();
        }
        expect_audit_ok(rig, t->mem());
    }
    for (auto p : live) {
        rig.alloc.deallocate(*t, p);
    }
    expect_audit_ok(rig, t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(BitsetCounter, RemoteFreeAndStealKeepCounterExact)
{
    Rig rig;
    auto producer = rig.thread();
    auto consumer = rig.thread();
    // Fill several slabs completely (512 blocks each at 64 B) so they
    // detach, then free every block from the other thread: the HWcc
    // down-counter hits zero and the consumer steals the slabs.
    std::vector<cxl::HeapOffset> blocks;
    for (int i = 0; i < 4 * 512; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*producer, 64);
        ASSERT_NE(p, 0u);
        blocks.push_back(p);
    }
    expect_audit_ok(rig, producer->mem());
    for (std::size_t i = 0; i < blocks.size(); i++) {
        rig.alloc.deallocate(*consumer, blocks[i]);
        if (i % 64 == 0) {
            expect_audit_ok(rig, consumer->mem());
        }
    }
    expect_audit_ok(rig, consumer->mem());
    // Stolen slabs must be reusable with a consistent counter.
    for (int i = 0; i < 600; i++) {
        cxl::HeapOffset p = rig.alloc.allocate(*consumer, 64);
        ASSERT_NE(p, 0u);
    }
    expect_audit_ok(rig, consumer->mem());
    rig.pod.release_thread(std::move(producer));
    rig.pod.release_thread(std::move(consumer));
}

TEST(BitsetCounter, ScavengeUnderPressureKeepsCounterExact)
{
    // Exhaust the small heap with one class, free everything (leaving warm
    // slabs on the sized list), then demand another class until scavenging
    // reclaims them: the one-load emptiness check must agree with the scan.
    Rig rig;
    auto t = rig.thread();
    std::vector<cxl::HeapOffset> live;
    cxl::HeapOffset p;
    while ((p = rig.alloc.allocate(*t, 512)) != 0) {
        live.push_back(p);
    }
    expect_audit_ok(rig, t->mem());
    for (auto q : live) {
        rig.alloc.deallocate(*t, q);
    }
    expect_audit_ok(rig, t->mem());
    live.clear();
    while ((p = rig.alloc.allocate(*t, 1024)) != 0) {
        live.push_back(p);
    }
    EXPECT_FALSE(live.empty());
    expect_audit_ok(rig, t->mem());
    rig.pod.release_thread(std::move(t));
}

TEST(BitsetCounter, CrashpointSweepKeepsCounterExact)
{
    // Crash at every instrumentation point in turn, recover, and demand
    // the counter/bitset agreement recovery promises (the counter is
    // recomputed from the durable bitset, never trusted across a crash).
    for (int countdown = 1; countdown <= 60; countdown += 3) {
        Rig rig;
        auto t = rig.thread();
        cxlcommon::Xoshiro rng(1000 + countdown);
        std::vector<cxl::HeapOffset> live;
        bool crashed = false;
        for (int point :
             {cxlalloc::crashpoint::kAfterRecord,
              cxlalloc::crashpoint::kMidInit,
              cxlalloc::crashpoint::kAfterDcas,
              cxlalloc::crashpoint::kMidAlloc,
              cxlalloc::crashpoint::kMidDetach,
              cxlalloc::crashpoint::kMidFreeLocal,
              cxlalloc::crashpoint::kMidSteal,
              cxlalloc::crashpoint::kMidPushGlobal}) {
            t->arm_crash(point, static_cast<std::uint32_t>(countdown));
            try {
                for (int i = 0; i < 400 && !crashed; i++) {
                    if (rng.next_below(3) != 0 || live.empty()) {
                        cxl::HeapOffset p =
                            rig.alloc.allocate(*t, 8 + rng.next_below(1016));
                        if (p != 0) {
                            live.push_back(p);
                        }
                    } else {
                        std::size_t pick = rng.next_below(live.size());
                        rig.alloc.deallocate(*t, live[pick]);
                        live[pick] = live.back();
                        live.pop_back();
                    }
                }
                t->disarm_crash();
            } catch (const ThreadCrashed&) {
                crashed = true;
                cxl::ThreadId tid = t->tid();
                rig.pod.mark_crashed(std::move(t));
                t = rig.pod.adopt_thread(rig.process, tid);
                rig.alloc.recover(*t);
                expect_audit_ok(rig, t->mem());
            }
            if (crashed) {
                break;
            }
        }
        // Crashed or not, the heap keeps serving with exact counters.
        for (int i = 0; i < 30; i++) {
            cxl::HeapOffset p = rig.alloc.allocate(*t, 64);
            ASSERT_NE(p, 0u);
            rig.alloc.deallocate(*t, p);
        }
        expect_audit_ok(rig, t->mem());
        rig.pod.release_thread(std::move(t));
    }
}

} // namespace
