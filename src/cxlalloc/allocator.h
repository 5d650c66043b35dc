/// @file
/// CxlAllocator: the public API of the cxlalloc reproduction.
///
/// One CxlAllocator instance manages one shared heap on one pod. Each
/// sharing process calls attach() once; each thread allocates and frees
/// through its pod::ThreadContext. Pointers are HeapOffsets (offset
/// pointers, §2.3): stable across processes (PC-S), dereferenceable
/// immediately in any attached process (PC-T via the fault handler).
///
/// Usage sketch:
///     pod::Pod pod(...);
///     cxlalloc::CxlAllocator heap(pod, cxlalloc::Config{});
///     auto* proc = pod.create_process();
///     heap.attach(*proc);
///     auto thread = pod.create_thread(proc);
///     cxl::HeapOffset p = heap.allocate(*thread, 64);
///     std::byte* data = heap.pointer(*thread, p, 64);
///     heap.deallocate(*thread, p);

#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "cxlalloc/huge_heap.h"
#include "cxlalloc/layout.h"
#include "cxlalloc/recovery.h"
#include "cxlalloc/slab_heap.h"
#include "cxlalloc/thread_state.h"
#include "obs/registry.h"
#include "pod/fault_handler.h"
#include "pod/pod.h"

namespace cxlalloc {

/// The cxlalloc memory allocator.
class CxlAllocator : public pod::FaultResolver {
  public:
    /// Binds the allocator to @p pod's device. The device must have been
    /// sized with Layout::device_config (or larger). No initialization of
    /// heap memory happens here or ever: zeroed memory is a valid heap
    /// (paper §4), so processes need no bootstrap coordination.
    CxlAllocator(pod::Pod& pod, const Config& config);

    /// Per-process setup: registers virtual-address-space reservations
    /// (PC-S), installs the fault resolver (PC-T), and eagerly maps the
    /// fixed metadata regions.
    void attach(pod::Process& process);

    /// Per-thread setup: rebuilds the thread's volatile state from shared
    /// metadata, resuming CAS versions past the newest one the slot's help
    /// entry records (one sync load). Must be called once per ThreadContext
    /// before use (done automatically on first allocate, but explicit is
    /// cheaper to reason about in tests).
    void attach_thread(pod::ThreadContext& ctx);

    /// Per-thread teardown before Pod::release_thread: under NoHwcc, lands
    /// the thread's pending remote frees (a remote free may wait in the
    /// freeing thread's pending lines until it drains); hands back every
    /// small and large slab the thread holds (SlabHeap::release: an empty
    /// slab to the global list, any other disowned with its pin freed);
    /// then records the thread's newest CAS version in its help entry, so
    /// the slot's next occupant never reuses a version this one may have
    /// left on a word. A slot released without it keeps its pending frees
    /// in its lines and its slabs on its lists until the next occupant
    /// uses them, and the next occupant may reuse its versions.
    void detach_thread(pod::ThreadContext& ctx);

    /// Allocates @p size bytes; returns the heap offset or 0 on
    /// exhaustion. Routes to the small (<= 1 KiB), large (<= 512 KiB) or
    /// huge heap.
    cxl::HeapOffset allocate(pod::ThreadContext& ctx, std::uint64_t size);

    /// Frees an allocation by offset (any attached thread/process).
    void deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset);

    /// Frees @p n allocations: n deallocate() calls, counted as one batch.
    /// Under NoHwcc its remote frees wait in the thread's pending rows
    /// like any other and land as full rings of slabs, one NMP doorbell
    /// each (§4), when a list fills; the rest wait for refill exhaustion,
    /// cleanup(), detach_thread() or recover().
    void deallocate_batch(pod::ThreadContext& ctx,
                          const cxl::HeapOffset* offsets, std::uint32_t n);

    /// Resolves an offset to a pointer in this process, enforcing PC-T
    /// (faults in the mapping if needed).
    std::byte*
    pointer(pod::ThreadContext& ctx, cxl::HeapOffset offset,
            std::uint64_t len)
    {
        return ctx.mem().data_ptr(offset, len);
    }

    /// Recovers the crashed thread slot that @p ctx adopted: puts a drain
    /// round's non-landed ring operands back into its pending lines and
    /// finishes the round's steals, releases its NMP ring, idempotently redoes its interrupted
    /// operation, rebuilds volatile state, and (NoHwcc) lands its pending
    /// frees. Non-blocking: live threads keep allocating throughout.
    void recover(pod::ThreadContext& ctx);

    /// The adopted slot's full recovery record, without redoing anything.
    /// Migration recovery snapshots every shard's record BEFORE shard
    /// recovery clears them, then uses the snapshot to tell "block handed
    /// to the interrupted migration" (Op::Alloc on the target shard) and
    /// "free already redone" (a free-type op on the freeing shard) apart.
    OpRecord pending_record(pod::ThreadContext& ctx);

    /// Durably clears the calling thread's recovery record (store + flush
    /// + fence). The migrator quiesces a shard's record before a stage
    /// whose recovery inspects it, so a stale record of an earlier
    /// completed operation can never be misattributed to the migration.
    /// Under NoHwcc it first lands the thread's pending frees when its
    /// next free could land a round before logging its own record
    /// (SlabHeap::lands_before_append).
    void quiesce_record(pod::ThreadContext& ctx);

    /// Publishes a detectable CAS on an application reference cell: logs
    /// an Op::CellPublish record for a fresh version (durable before the
    /// CAS, as the version-resume discipline requires), then makes one
    /// try_cas attempt on the 32-bit value at @p cell. The cell must be a
    /// word in HWcc memory (Layout::app_sync() or other sync space).
    cxlsync::DetectableCas::Result
    cell_publish(pod::ThreadContext& ctx, cxl::HeapOffset cell,
                 std::uint32_t expected, std::uint32_t desired);

    /// The logging half of cell_publish: consumes and durably records a
    /// fresh CAS version without performing the CAS. The migrator uses
    /// this to persist the version into its own migration record between
    /// the log and the CAS (see cxlalloc/migrate.h).
    std::uint16_t log_cell_publish(pod::ThreadContext& ctx);

    /// The detectable-CAS instance of this heap (help array in this
    /// heap's window). For migration publish/did_succeed on cells this
    /// heap's layout owns.
    cxlsync::DetectableCas& dcas() { return dcas_; }

    /// Data offset of the block a (completed) slab Alloc/FreeLocal record
    /// names: slab index + block index + the slab's current class. Only
    /// meaningful while the slab still carries the class the record's
    /// operation ran under (migration recovery reads it before any reuse).
    cxl::HeapOffset record_block_offset(cxl::MemSession& mem,
                                        const OpRecord& record);

    /// Lands the calling thread's pending remote frees (NoHwcc), takes back
    /// its Detached slabs that hold only the pin (SlabHeap::reclaim), then
    /// runs the huge heap's asynchronous reclamation pass for it.
    void cleanup(pod::ThreadContext& ctx);

    /// Block-accounting audit (paper §5.1) of the small, large and huge
    /// heaps, appended to @p report; see cxlalloc/audit.h. Requires
    /// quiescence.
    AuditReport audit(cxl::MemSession& mem, AuditReport report = {});

    /// audit(), panicking with the report unless it is ok.
    void check_invariants(cxl::MemSession& mem) { audit(mem).require_ok(); }

    /// Aggregate statistics.
    struct Stats {
        SlabHeap::Stats small;
        SlabHeap::Stats large;
        HugeHeap::Stats huge;
        /// Bytes of HWcc memory the layout consumes (paper §5.2.1 metric).
        std::uint64_t hwcc_bytes = 0;
        /// Committed device bytes (PSS analog).
        std::uint64_t committed_bytes = 0;
    };

    Stats stats(cxl::MemSession& mem);

    /// Enables op counters ("alloc.*"), alloc/free/remote-free latency
    /// histograms, and per-op tracing, sharded by thread id in
    /// @p registry. nullptr (the default) disables instrumentation; the
    /// disabled hot path costs a single branch on a member pointer.
    void set_metrics(obs::MetricsRegistry* registry);

    const Layout& layout() const { return layout_; }
    const Config& config() const { return layout_.config(); }

    /// pod::FaultResolver: the signal-handler body (paper §3.3).
    bool resolve_fault(pod::Process& process, cxl::MemSession& mem,
                       cxl::HeapOffset offset,
                       pod::MappedRange* out) override;

    /// Per-thread volatile state (exposed for tests).
    ThreadState& thread_state(cxl::ThreadId tid);

    /// Heap internals (the migrator reads raw slab descriptors).
    SlabHeap& small_heap() { return small_; }
    SlabHeap& large_heap() { return large_; }

  private:
    ThreadState& state_of(pod::ThreadContext& ctx);

    cxl::HeapOffset allocate_impl(pod::ThreadContext& ctx,
                                  std::uint64_t size);

    /// Which free path one free took (indexes deallocate_batch's tally).
    enum FreeKind : std::uint8_t { kFreeLocal, kFreeRemote, kFreeHuge };

    /// Routes one free of @p offset to its heap.
    FreeKind free_one(pod::ThreadContext& ctx, ThreadState& ts,
                      cxl::HeapOffset offset);

    /// Resolved metric ids; valid only while registry != nullptr.
    struct Instruments {
        obs::MetricsRegistry* registry = nullptr;
        obs::MetricId alloc_small = obs::kInvalidMetric;
        obs::MetricId alloc_large = obs::kInvalidMetric;
        obs::MetricId alloc_huge = obs::kInvalidMetric;
        obs::MetricId alloc_failures = obs::kInvalidMetric;
        obs::MetricId free_local = obs::kInvalidMetric;
        obs::MetricId free_remote = obs::kInvalidMetric;
        obs::MetricId free_huge = obs::kInvalidMetric;
        obs::MetricId free_batches = obs::kInvalidMetric;
        obs::MetricId free_batch_ns = obs::kInvalidMetric;
        obs::MetricId recoveries = obs::kInvalidMetric;
        obs::MetricId cleanups = obs::kInvalidMetric;
        obs::MetricId alloc_ns = obs::kInvalidMetric;
        obs::MetricId free_ns = obs::kInvalidMetric;
        obs::MetricId remote_free_ns = obs::kInvalidMetric;
        obs::MetricId op_alloc = obs::kInvalidMetric;
        obs::MetricId op_free = obs::kInvalidMetric;
    };

    pod::Pod& pod_;
    Layout layout_;
    cxlsync::DetectableCas dcas_;
    RecoveryLog log_;
    SlabHeap small_;
    SlabHeap large_;
    HugeHeap huge_;

    struct PerThread {
        ThreadState state;
        bool attached = false;
    };

    /// Under NoHwcc, lands the calling thread's pending remote frees in
    /// both slab heaps.
    void drain_pending(pod::ThreadContext& ctx, ThreadState& ts);

    std::array<PerThread, cxl::kMaxThreads + 1> threads_{};
    Instruments inst_;
};

} // namespace cxlalloc
