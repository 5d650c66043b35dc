/// @file
/// The 8-byte per-thread redo record (paper §3.4.2).
///
/// "Each thread atomically updates 8 bytes of state in place, which records
/// which operation the thread is currently performing, and contains enough
/// information to recover the operation in an idempotent manner."
///
/// Word packing (64 bits):
///     [ index:32 | version:15 | aux:13 | op:4 ]
/// where index is a slab / huge-descriptor / reservation-region index,
/// version is the detectable-CAS version the operation used (15-bit
/// circular), and aux carries the size class or block index plus a bit
/// selecting the small vs large heap.
///
/// The record is single-writer (its thread) and written before the
/// operation's first shared-visible step; the next operation overwrites
/// it, so on recovery exactly one — possibly interrupted, possibly
/// completed — operation needs an idempotent redo. Every record, a
/// cleared one (Op::None) included, carries a version at least the
/// thread's newest: recovery resumes past it (RECOVERY.md §2).
///
/// Durability discipline (the fence-elision case analysis):
///  - Operations that publish through a detectable CAS (PopGlobal,
///    Extend, FreeRemote[Batch], PushGlobal, Huge*) make the record
///    durable before the CAS: log() (store + flush + fence), or — where
///    a pending line changes in the same step — log_local(), the line
///    store, then flush_pending() + the line flush + one fence. After a
///    HOST crash the record that described the CAS must be durable for
///    `did_succeed` version reasoning to hold. Guarded by
///    sched::RecordFlushOracle (and the skip_record_publish_flush fault
///    shows the oracle has teeth).
///  - Purely local operations (Alloc, FreeLocal, FreeDeferred, scavenge,
///    and the Detach/Disown descriptor transitions) use log_local():
///    store only.
///    Recovery from a PROCESS crash writes the thread's cache back (see
///    ThreadCache::writeback_all()), so recovery always reads the newest
///    record; no flush or fence is needed on the fast path. Guarded by
///    litmus shape MpCoalesced + tests/sched RecordFlushOracle suites and
///    SwccProtocol.OwnerKeepsDescriptorCached.
///  - A deferred record is written back at the latest by the next
///    flush_pending() (flush_desc folds it into the publication's
///    existing fence) or the next log()/clear() of the same row.
///  - HOST crashes drop the cache instead of writing it back, and the
///    redo of Alloc/FreeLocal mutates the bitset unconditionally — so the
///    device must never hold a later operation's effect next to a stale
///    record (replaying an outdated FreeLocal would re-free a block that
///    was re-allocated since: double allocation). Explicit flushes are
///    protocol-ordered (flush_pending rides every flush_desc), which
///    leaves capacity EVICTIONS as the only out-of-order durability
///    channel. log_local() therefore registers the record row as the
///    session cache's *durable line*: ThreadCache persists its newest
///    value ahead of any other dirty victim's early write-back, keeping
///    the durable record at least as new as every durable effect. Guarded
///    by CrashRecovery.HostCrashEvictionCannotResurrectStaleRecord and
///    CacheModelTest.DurableLinePersistsAheadOfDirtyEvictions.

#pragma once

#include <array>
#include <cstdint>

#include "common/test_faults.h"
#include "cxl/mem_ops.h"
#include "cxlalloc/layout.h"

namespace cxlalloc {

/// Operation codes (4 bits). Slab operations apply to the small or large
/// heap according to the aux heap bit.
enum class Op : std::uint8_t {
    None = 0,
    Alloc = 1,      ///< clear one block bit            (aux: heap|block)
    Init = 2,       ///< unsized -> sized slab init     (aux: heap|class)
    PopGlobal = 3,  ///< global -> TL unsized           (dcas)
    Extend = 4,     ///< grow heap length               (dcas)
    /// Full slab, no remote frees (aux 0); or a NoHwcc release step that
    /// marks free blocks allocated and defers their remote frees (aux:
    /// the slab's free blocks before it).
    Detach = 5,
    /// Full slab with remote frees, or a released slab (aux: the free
    /// blocks it marks allocated); the pin is freed after it.
    Disown = 6,
    FreeLocal = 7,  ///< set one block bit              (aux: heap|block)
    FreeRemote = 8, ///< HWcc remote-counter decrement  (dcas; may steal;
                    ///< aux: the decrement minus one)
    PushGlobal = 9, ///< TL unsized overflow -> global  (dcas)
    HugeReserve = 10, ///< claim a reservation region   (dcas)
    HugeAlloc = 11,   ///< build + link huge descriptor
    HugeFree = 12,    ///< set huge descriptor free bit
    /// A ring of pending-list decrements submitted as one batched NMP
    /// doorbell, stealing the slab of each operand that lands a zero
    /// counter (aux: heap|count; version: LAST of `count` consecutive
    /// dcas versions, so recovery resumes versioning past the whole
    /// batch). The per-operand state — which slabs, how many blocks,
    /// which executed — lives in the thread's NMP operand ring, which is
    /// device memory and survives the crash; the stamp of the pending
    /// line the round drew from says whether the ring's operands are out
    /// of it. See SlabHeap::drain_pending and reconcile_ring.
    FreeRemoteBatch = 13,
    /// An application (or migrator) reference-cell publish through the
    /// allocator's detectable CAS (CxlAllocator::cell_publish): consumes
    /// one CAS version but needs no heap redo. The record exists so the
    /// version counter resumes past the publish on recovery — without it
    /// an adopted slot could reuse the version and corrupt did_succeed
    /// reasoning (the help array may already have advanced to it).
    CellPublish = 14,
    /// NoHwcc remote frees appended to one line of the thread's pending
    /// row (SlabHeap::defer_remote; aux: heap|line << 8|that line's size
    /// after the append, index: slab). Local: log_local, no flush.
    /// Recovery redoes the append iff that line is short of the size.
    FreeDeferred = 15,
};

const char* to_string(Op op);

/// Decoded recovery record.
struct OpRecord {
    Op op = Op::None;
    bool large_heap = false;   ///< aux bit 12: slab op targets large heap
    std::uint16_t aux = 0;     ///< class or block index (12 bits)
    std::uint16_t version = 0; ///< detectable-CAS version (15 bits)
    std::uint32_t index = 0;   ///< slab / descriptor / region index

    std::uint64_t pack() const;
    static OpRecord unpack(std::uint64_t word);

    static constexpr std::uint16_t kAuxMask = 0x0fff;
};

/// Writes and reads per-thread recovery records in the shared heap.
class RecoveryLog {
  public:
    RecoveryLog(const Layout* layout, bool enabled)
        : layout_(layout), enabled_(enabled)
    {
    }

    /// True in the recoverable build; false in the cxlalloc-nonrecoverable
    /// ablation, where log() is a no-op.
    bool enabled() const { return enabled_; }

    /// Publishes @p record as the calling thread's in-flight operation
    /// and makes it durable: 8-byte store, flush, fence. Required before
    /// any detectable CAS (see the header discipline).
    void
    log(cxl::MemSession& mem, const OpRecord& record)
    {
        if (!enabled_) {
            return;
        }
        cxl::HeapOffset row = layout_->recovery_row(mem.tid());
        mem.store<std::uint64_t>(row, record.pack());
        if (cxlcommon::test_faults::skip_record_publish_flush) {
            // Deliberately-broken variant: defer where deferral is NOT
            // sound. RecordFlushOracle must catch the dirty row at the
            // next DcasTry.
            pending_[mem.tid()] = true;
            return;
        }
        mem.flush(row, 8);
        mem.fence();
        pending_[mem.tid()] = false;
    }

    /// Records a purely local operation: 8-byte store only, no ordering.
    /// Sound because process-crash recovery writes the cache back before
    /// reading the record, and because the row is registered as the
    /// session's durable line — the cache persists its newest value ahead
    /// of any dirty capacity eviction, so even a HOST crash never pairs a
    /// durable later effect with a stale durable record (see the header
    /// discipline). The row is otherwise written back opportunistically by
    /// the next flush_pending() / log() / clear().
    void
    log_local(cxl::MemSession& mem, const OpRecord& record)
    {
        if (!enabled_) {
            return;
        }
        cxl::HeapOffset row = layout_->recovery_row(mem.tid());
        mem.set_durable_row(row);
        mem.store<std::uint64_t>(row, record.pack());
        pending_[mem.tid()] = true;
    }

    /// Writes back a deferred record (flush only — the caller's fence
    /// completes it). flush_desc calls this right before its fence, so a
    /// Disown/PushGlobal record rides the descriptor publication's
    /// existing ordering at zero extra fences.
    void
    flush_pending(cxl::MemSession& mem)
    {
        if (!enabled_ || !pending_[mem.tid()]) {
            return;
        }
        mem.flush(layout_->recovery_row(mem.tid()), 8);
        pending_[mem.tid()] = false;
    }

    /// Reads thread @p tid's last record (used by that thread's recovery).
    OpRecord
    read(cxl::MemSession& mem, cxl::ThreadId tid)
    {
        cxl::HeapOffset row = layout_->recovery_row(tid);
        mem.flush(row, 8); // refetch: never act on a stale cached record
        return OpRecord::unpack(mem.load<std::uint64_t>(row));
    }

    /// Clears the record after a completed recovery (or a quiesce): an
    /// Op::None record that keeps the thread's current @p version, so a
    /// recovery that reads it still resumes past every version used.
    void
    clear(cxl::MemSession& mem, std::uint16_t version)
    {
        cxl::HeapOffset row = layout_->recovery_row(mem.tid());
        mem.store<std::uint64_t>(
            row, OpRecord{.op = Op::None, .version = version}.pack());
        mem.flush(row, 8);
        mem.fence();
        pending_[mem.tid()] = false;
    }

  private:
    const Layout* layout_;
    bool enabled_;
    /// Per-thread "record stored but not yet written back" flags.
    /// Single-writer (each slot only by its own thread), like the rows.
    std::array<bool, cxl::kMaxThreads + 1> pending_{};
};

/// Named crash-injection points (white-box recovery tests, paper §5.1).
namespace crashpoint {

inline constexpr int kAfterRecord = 1;     ///< record flushed, op not begun
inline constexpr int kMidInit = 2;         ///< popped unsized, not pushed
inline constexpr int kAfterDcas = 3;       ///< dcas applied, post-work not
inline constexpr int kMidSteal = 4;        ///< counter hit 0, steal not done
inline constexpr int kMidDetach = 5;       ///< owner word stored, not written back
inline constexpr int kMidFreeLocal = 6;    ///< bit set, lists not fixed
inline constexpr int kMidPushGlobal = 7;   ///< desc flushed, dcas not done
inline constexpr int kMidHugeAlloc = 8;    ///< desc written, not linked
inline constexpr int kMidHugeMap = 9;      ///< hazard published, not mapped
inline constexpr int kMidHugeFree = 10;    ///< free bit set, not unmapped
inline constexpr int kMidAlloc = 11;       ///< bit cleared, not returned
inline constexpr int kMidBatchStage = 12;  ///< ring staged, record not logged
inline constexpr int kMidBatchDoorbell = 13; ///< record logged, doorbell not rung
inline constexpr int kMidBatchDrain = 14;  ///< doorbell rung, results not drained
inline constexpr int kMidUnpin = 15;       ///< disown written back, pin not freed
inline constexpr int kMidReclaim = 16;     ///< pin-only slab found, not relinked
inline constexpr int kMidRelease = 17;     ///< released blocks appended, not landed

} // namespace crashpoint

/// Registers the allocator's crash points with pod::CrashPointRegistry
/// (idempotent; called by the Allocator constructor, callable directly by
/// tools that never build an allocator).
void register_crash_points();

} // namespace cxlalloc
