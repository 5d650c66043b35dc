/// Edge cases and misuse guards of the memory-access layer.

#include <gtest/gtest.h>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/test_faults.h"
#include "cxl/mem_ops.h"

namespace {

using cxl::CoherenceMode;
using cxl::Device;
using cxl::DeviceConfig;
using cxl::MemSession;
using cxl::Nmp;

struct Rig {
    explicit Rig(CoherenceMode mode, bool sim = false,
                 std::uint64_t size = 1 << 20)
        : dev(DeviceConfig{.size = size,
                           .mode = mode,
                           .sync_region_size = 64 << 10,
                           .simulate_cache = sim}),
          nmp(&dev)
    {
    }

    MemSession session(cxl::ThreadId tid) { return MemSession(&dev, &nmp, tid); }

    Device dev;
    Nmp nmp;
};

TEST(MemOpsEdge, CasOutsideSyncRegionDies)
{
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    std::uint64_t expected = 0;
    EXPECT_DEATH(s.cas64(512 << 10, expected, 1), "CAS outside");
}

TEST(MemOpsEdge, FullHwccAllowsCasAnywhere)
{
    Rig rig(CoherenceMode::FullHwcc);
    MemSession s = rig.session(1);
    std::uint64_t expected = 0;
    EXPECT_TRUE(s.cas64(512 << 10, expected, 1));
}

TEST(MemOpsEdge, MisalignedAtomicDies)
{
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    EXPECT_DEATH(s.atomic_load64(12345), "misaligned");
}

TEST(MemOpsEdge, AccessPastDeviceEndDies)
{
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    EXPECT_DEATH(s.load<std::uint64_t>(rig.dev.size() - 4), "past device");
}

TEST(MemOpsEdge, OverflowingAccessLengthDies)
{
    // offset + len wraps uint64_t: the old `offset + len <= size` bounds
    // check wrapped to a tiny sum and let the access through.
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    EXPECT_DEATH(s.data_ptr(8, ~std::uint64_t{0} - 4), "past device");
    EXPECT_DEATH(s.data_ptr(~std::uint64_t{0} - 4, 8), "past device");
}

TEST(MemOpsEdge, FullRangeAccessAllowed)
{
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    EXPECT_NE(s.data_ptr(0, rig.dev.size()), nullptr);
    EXPECT_NE(s.data_ptr(rig.dev.size() - 8, 8), nullptr);
}

TEST(MemOpsEdge, InvalidThreadIdDies)
{
    Rig rig(CoherenceMode::PartialHwcc);
    EXPECT_DEATH(rig.session(0), "valid thread id");
    EXPECT_DEATH(rig.session(cxl::kMaxThreads + 1), "valid thread id");
}

TEST(MemOpsEdge, CountersAccumulateAndReset)
{
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    s.store<std::uint32_t>(200000, 1);
    (void)s.load<std::uint32_t>(200000);
    s.flush(200000, 4);
    s.fence();
    std::uint64_t expected = 0;
    s.cas64(128, expected, 1);
    EXPECT_EQ(s.counters().stores, 1u);
    EXPECT_EQ(s.counters().loads, 1u);
    EXPECT_EQ(s.counters().flushes, 1u);
    EXPECT_EQ(s.counters().fences, 1u);
    EXPECT_EQ(s.counters().cas_ops, 1u);
    s.reset_accounting();
    EXPECT_EQ(s.counters().stores, 0u);
    EXPECT_EQ(s.sim_ns(), 0u);
}

TEST(MemOpsEdge, CounterAggregationOperator)
{
    cxl::MemEventCounters a;
    cxl::MemEventCounters b;
    a.loads = 3;
    b.loads = 4;
    a.mcas_conflicts = 1;
    b.mcas_conflicts = 2;
    a += b;
    EXPECT_EQ(a.loads, 7u);
    EXPECT_EQ(a.mcas_conflicts, 3u);
}

TEST(MemOpsEdge, McasConflictCountedAndRecovered)
{
    // Force a real Fig. 6(b) conflict through the session layer.
    Rig rig(CoherenceMode::NoHwcc);
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    // Leave thread 1's operand staged (posted, doorbell not yet rung).
    ASSERT_TRUE(rig.nmp.spwr_post(
        1, cxl::McasOperand{.target = 256, .expected = 0, .swap = 7}));
    std::uint64_t expected = 0;
    EXPECT_FALSE(s2.cas64(256, expected, 9));
    EXPECT_EQ(s2.counters().mcas_conflicts, 1u);
    EXPECT_EQ(rig.nmp.doorbell(1), 1u);
    cxl::McasResult r1;
    ASSERT_TRUE(rig.nmp.poll(1, &r1));
    EXPECT_TRUE(r1.success);
    // After the in-flight op completes, thread 2 succeeds (with the fresh
    // expected value cas64 reloaded).
    EXPECT_EQ(expected, 0u); // conflict happened before T1's write landed
    expected = s2.atomic_load64(256);
    EXPECT_TRUE(s2.cas64(256, expected, 9));
}

TEST(MemOpsEdge, WritebackAllPreservesDirtyData)
{
    Rig rig(CoherenceMode::PartialHwcc, /*sim=*/true);
    MemSession s = rig.session(1);
    s.store<std::uint64_t>(200000, 42);
    // Process crash: cache written back, store survives.
    s.cache().writeback_all();
    MemSession fresh = rig.session(2);
    EXPECT_EQ(fresh.load<std::uint64_t>(200000), 42u);
}

TEST(MemOpsEdge, SimulatedCacheLineGranularity)
{
    Rig rig(CoherenceMode::PartialHwcc, /*sim=*/true);
    MemSession a = rig.session(1);
    MemSession b = rig.session(2);
    // Two fields on ONE line: flushing the line publishes both.
    a.store<std::uint32_t>(200000, 1);
    a.store<std::uint32_t>(200004, 2);
    a.flush(200000, 1); // one byte -> whole line
    b.flush(200000, 64);
    EXPECT_EQ(b.load<std::uint32_t>(200000), 1u);
    EXPECT_EQ(b.load<std::uint32_t>(200004), 2u);
}

/// Guard stub recording every on_access and an adjustable mapping epoch.
struct CountingGuard : cxl::MappingGuard {
    bool
    on_access(MemSession&, cxl::HeapOffset offset, std::uint64_t len) override
    {
        calls++;
        last_offset = offset;
        last_len = len;
        return true; // verified: session may cache the translation
    }
    std::uint64_t mapping_epoch() const override { return epoch; }

    std::uint64_t calls = 0;
    std::uint64_t epoch = 1;
    cxl::HeapOffset last_offset = 0;
    std::uint64_t last_len = 0;
};

TEST(MemOpsEdge, FlushConsultsMappingGuard)
{
    // Regression: flush() used to skip check_access entirely, so flushing
    // a reclaimed (remapped) range bypassed the munmap-shootdown analog.
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    CountingGuard g;
    s.set_mapping_guard(&g);

    s.flush(8192, 64);
    EXPECT_EQ(g.calls, 1u) << "flush must fault unverified ranges in";
    EXPECT_EQ(g.last_offset, 8192u);

    s.flush(8192, 64); // translation now cached in the session TLB
    EXPECT_EQ(g.calls, 1u);

    g.epoch++; // a mapping was removed somewhere: shootdown
    s.flush(8192, 64);
    EXPECT_EQ(g.calls, 2u)
        << "flush after a remap must re-verify, not use the stale TLB";
}

TEST(MemOpsEdge, ZeroLengthFlushIsNoOp)
{
    // Regression: flush(offset, 0) underflowed the covered-line count and
    // flushed (and charged for) a huge range.
    Rig rig(CoherenceMode::PartialHwcc, /*sim=*/true);
    MemSession s = rig.session(1);
    std::uint64_t flushes = s.counters().flushes;
    std::uint64_t lines = s.counters().flushed_lines;
    s.flush(4096, 0);
    s.flush(rig.dev.size(), 0); // boundary: end-of-device, still a no-op
    EXPECT_EQ(s.counters().flushes, flushes);
    EXPECT_EQ(s.counters().flushed_lines, lines);
    EXPECT_EQ(s.sim_ns(), 0u);
}

TEST(MemOpsEdge, BulkOpsCountPerCoveredLine)
{
    // read_bytes/write_bytes used to count one load/store and charge zero
    // latency regardless of length; they now account per covered line,
    // consistent with flush (see ARCHITECTURE.md on mem.loads semantics).
    Rig rig(CoherenceMode::PartialHwcc);
    MemSession s = rig.session(1);
    std::vector<std::byte> buf(260);

    s.write_bytes(8192 + 28, buf.data(), 260); // spans 5 lines
    EXPECT_EQ(s.counters().stores, 5u);
    s.read_bytes(8192 + 28, buf.data(), 260);
    EXPECT_EQ(s.counters().loads, 5u);

    // A one-word transfer still costs exactly one event, like load<>.
    s.write_bytes(16384, buf.data(), 8);
    EXPECT_EQ(s.counters().stores, 6u);

    // Zero-length transfers touch no lines.
    s.read_bytes(8192, buf.data(), 0);
    s.write_bytes(8192, buf.data(), 0);
    EXPECT_EQ(s.counters().loads, 5u);
    EXPECT_EQ(s.counters().stores, 6u);

    // flush matches: one flush event, per-line write-back accounting.
    std::uint64_t lines = s.counters().flushed_lines;
    s.flush(8192 + 28, 260);
    EXPECT_EQ(s.counters().flushes, 1u);
    EXPECT_EQ(s.counters().flushed_lines - lines, 5u);
}

TEST(MemOpsEdge, FlushDirtyWritesBackOnlyDirtiedLines)
{
    Rig rig(CoherenceMode::PartialHwcc, /*sim=*/true);
    MemSession s = rig.session(1);
    const cxl::HeapOffset base = 128 << 10;
    const std::uint64_t len = 576; // a 9-line descriptor

    s.store<std::uint64_t>(base, 1);       // line 0
    s.store<std::uint64_t>(base + 128, 2); // line 2
    std::uint64_t flushes = s.counters().flushes;
    std::uint64_t lines = s.counters().flushed_lines;
    s.flush_dirty(base, len);
    EXPECT_EQ(s.counters().flushes - flushes, 2u) << "two disjoint runs";
    EXPECT_EQ(s.counters().flushed_lines - lines, 2u)
        << "only the 2 dirtied of 9 lines written back";

    // Idempotent: the lines are clean now.
    flushes = s.counters().flushes;
    s.flush_dirty(base, len);
    EXPECT_EQ(s.counters().flushes, flushes);

    // Adjacent dirty lines coalesce into one ranged clwb.
    s.store<std::uint64_t>(base + 64, 3);
    s.store<std::uint64_t>(base + 128, 4);
    flushes = s.counters().flushes;
    lines = s.counters().flushed_lines;
    s.flush_dirty(base, len);
    EXPECT_EQ(s.counters().flushes - flushes, 1u);
    EXPECT_EQ(s.counters().flushed_lines - lines, 2u);

    // The elided flushes were real elisions, not lost writes: a reader
    // sees everything after the publication fence.
    s.fence();
    MemSession r = rig.session(2);
    r.flush(base, len);
    EXPECT_EQ(r.load<std::uint64_t>(base), 1u);
    EXPECT_EQ(r.load<std::uint64_t>(base + 64), 3u);
    EXPECT_EQ(r.load<std::uint64_t>(base + 128), 4u);

    // Zero-length request: no-op.
    flushes = s.counters().flushes;
    s.flush_dirty(base, 0);
    EXPECT_EQ(s.counters().flushes, flushes);
}

TEST(MemOpsEdge, FlushDirtyStaysExactPastTheOldCapacity)
{
    // flush_dirty() stays exact however many lines are dirty: past 49,152
    // of them (where a bounded index would have to give up and flush whole
    // ranges), a 9-line range with 2 dirty lines still costs exactly 2
    // one-line flushes.
    constexpr std::uint64_t kLines = 49'153;
    Rig rig(CoherenceMode::PartialHwcc, /*sim=*/false, 8 << 20);
    MemSession s = rig.session(1);
    const cxl::HeapOffset bulk = 1 << 20;
    for (std::uint64_t i = 0; i < kLines; i++) {
        s.store<std::uint64_t>(bulk + i * 64, i);
    }
    EXPECT_EQ(s.dirty_set().size(), kLines);

    const cxl::HeapOffset base = 7 << 20;
    s.store<std::uint64_t>(base, 1);
    s.store<std::uint64_t>(base + 128, 2);
    std::uint64_t flushes = s.counters().flushes;
    std::uint64_t lines = s.counters().flushed_lines;
    s.flush_dirty(base, 576);
    EXPECT_EQ(s.counters().flushes - flushes, 2u);
    EXPECT_EQ(s.counters().flushed_lines - lines, 2u);
    EXPECT_EQ(s.dirty_set().size(), kLines);
}

TEST(MemOpsEdge, DirtyLineSetInsertEraseGrowOverflow)
{
    cxl::DirtyLineSet set;
    EXPECT_FALSE(set.contains(64));
    set.insert(64);
    EXPECT_TRUE(set.contains(64));
    EXPECT_EQ(set.size(), 1u);
    set.insert(64); // dedup
    EXPECT_EQ(set.size(), 1u);
    set.erase(64);
    EXPECT_FALSE(set.contains(64));
    EXPECT_EQ(set.size(), 0u);
}

TEST(MemOpsEdge, DirtyLineSetChurnDoesNotLatchOverflow)
{
    // Steady alloc/free cycling (insert + erase of a small working set)
    // next to long-lived dirty lines: the count and every long-lived line
    // survive the churn.
    cxl::DirtyLineSet set;
    for (std::uint64_t i = 0; i < 100; i++) {
        set.insert((1 << 20) + i * 64); // long-lived dirty lines
    }
    for (std::uint64_t i = 0; i < 200000; i++) {
        std::uint64_t line = (i % 16) * 64;
        set.insert(line);
        set.erase(line);
    }
    EXPECT_EQ(set.size(), 100u);
    for (std::uint64_t i = 0; i < 100; i++) {
        ASSERT_TRUE(set.contains((1 << 20) + i * 64)) << i;
    }
}

TEST(MemOpsEdge, FlushDirtyConsultsMappingGuard)
{
    // Regression: flush_dirty() never check_access'd the REQUESTED range —
    // the nested flush() calls only cover dirty sub-runs, so a flush_dirty
    // over a reclaimed range whose lines happened to be clean silently
    // succeeded, bypassing the guard invariant flush() enforces.
    Rig rig(CoherenceMode::PartialHwcc, /*sim=*/true);
    MemSession s = rig.session(1);
    CountingGuard g;
    s.set_mapping_guard(&g);

    s.flush_dirty(8192, 576); // nothing dirty: no flush is issued...
    EXPECT_EQ(g.calls, 1u) << "...but the range must still be verified";
    EXPECT_EQ(g.last_offset, 8192u);
    EXPECT_EQ(g.last_len, 576u);

    s.flush_dirty(8192, 576); // translation now cached in the session TLB
    EXPECT_EQ(g.calls, 1u);

    g.epoch++; // a mapping was removed somewhere: shootdown
    s.flush_dirty(8192, 576);
    EXPECT_EQ(g.calls, 2u)
        << "clean-range flush_dirty after a remap must re-verify";
}

TEST(MemOpsEdge, DisabledDirtyTrackingDegradesButStillPublishes)
{
    // The skip_dirty_line_tracking fault models an undertracking bug:
    // flush_dirty believes nothing is dirty and elides everything. The
    // litmus suite proves this is CAUGHT (publish-undertracked); here we
    // just pin the mechanism the fault relies on.
    struct FaultGuard {
        ~FaultGuard() { cxlcommon::test_faults::reset(); }
    } guard;
    cxlcommon::test_faults::skip_dirty_line_tracking = true;

    Rig rig(CoherenceMode::PartialHwcc, /*sim=*/true);
    MemSession s = rig.session(1);
    s.store<std::uint64_t>(128 << 10, 7);
    EXPECT_EQ(s.dirty_set().size(), 0u);
    std::uint64_t flushes = s.counters().flushes;
    s.flush_dirty(128 << 10, 576);
    EXPECT_EQ(s.counters().flushes, flushes) << "undertracked: elides all";
}

} // namespace
