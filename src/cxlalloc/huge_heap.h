/// @file
/// The huge heap (paper §3.1.2, §3.3.2): allocations >= 512 KiB, each
/// backed by its own memory mapping.
///
/// Reproduced design:
///  - a HWcc *reservation array* hands out coarse virtual-address regions;
///    an entry grants one thread exclusive permission to install mappings
///    in that region (PC-S for huge allocations);
///  - each thread tracks its free address space in a volatile interval set
///    reconstructible from shared state (paper §3.4.2);
///  - every allocation gets a HugeDesc (offset, size, free bit) linked into
///    the owner's intrusive descriptor list — the structure the SIGSEGV
///    handler walks to provide PC-T;
///  - *hazard offsets* protect mappings from reclamation while any process
///    still has them installed; reclamation is asynchronous (cleanup());
///  - huge SWcc metadata follows the simple rule: flush after every write,
///    flush before every read (paper §3.2.2, last paragraph).

#pragma once

#include <cstdint>

#include "cxl/mem_ops.h"
#include "cxlalloc/audit.h"
#include "cxlalloc/layout.h"
#include "cxlalloc/recovery.h"
#include "cxlalloc/thread_state.h"
#include "pod/fault_handler.h"
#include "pod/thread_context.h"
#include "sync/detectable_cas.h"
#include "sync/hazard_offsets.h"

namespace cxlalloc {

class HugeHeap {
  public:
    HugeHeap(const Layout* layout, cxlsync::DetectableCas* dcas,
             RecoveryLog* log);

    /// Allocates @p size bytes (page-rounded) backed by a fresh mapping;
    /// returns the data offset or 0 if address space is exhausted.
    cxl::HeapOffset allocate(pod::ThreadContext& ctx, ThreadState& ts,
                             std::uint64_t size);

    /// Frees the huge allocation starting at @p offset (any thread, any
    /// process).
    void deallocate(pod::ThreadContext& ctx, ThreadState& ts,
                    cxl::HeapOffset offset);

    /// Asynchronous reclamation pass (paper: "each thread occasionally
    /// walks its hazard offset list and huge descriptor list"):
    ///  - unmaps + un-hazards this process's mappings of freed allocations;
    ///  - recycles this thread's freed, unhazarded descriptors and their
    ///    address space.
    void cleanup(pod::ThreadContext& ctx, ThreadState& ts);

    bool contains(cxl::HeapOffset offset) const;

    /// PC-T fault support: walks descriptor lists for a live allocation
    /// covering @p offset; publishes a hazard for the faulting thread and
    /// fills @p out on success.
    bool resolve(cxl::MemSession& mem, cxl::HeapOffset offset,
                 pod::MappedRange* out);

    /// Rebuilds @p ts's volatile state (free interval set, free descriptor
    /// pool) from the reservation array and descriptor list. Called on
    /// attach and on recovery.
    void rebuild_thread_state(pod::ThreadContext& ctx, ThreadState& ts);

    /// Idempotently redoes an interrupted huge-heap operation.
    void recover(pod::ThreadContext& ctx, ThreadState& ts,
                 const OpRecord& record);

    /// Adds this heap's AuditLaw::HugeDesc violations (cxlalloc/audit.h),
    /// as shard @p shard, to @p report. Requires quiescence.
    void audit(cxl::MemSession& mem, cxl::DeviceId shard,
               AuditReport& report);

    struct Stats {
        std::uint32_t regions_claimed = 0;
        std::uint32_t live_allocations = 0;
        std::uint64_t live_bytes = 0;
    };

    Stats stats(cxl::MemSession& mem);

    /// Hazard-offset table (exposed for tests).
    cxlsync::HazardOffsets& hazards() { return hazards_; }

  private:
    /// allocate's steps after the link of @p index, and the HugeAlloc
    /// redo's: the hazard, then the mapping, or (row still full after a
    /// cleanup) the roll-back. False after a roll-back.
    bool allocate_tail(pod::ThreadContext& ctx, ThreadState& ts,
                       std::uint32_t index, std::uint64_t start,
                       std::uint64_t size);
    /// deallocate's steps after its record, and the HugeFree redo's.
    void deallocate_tail(pod::ThreadContext& ctx, std::uint32_t index);

    // Descriptor field access (flush-after-write / flush-before-read).
    cxl::HeapOffset desc(std::uint32_t index) const;
    std::uint32_t desc_next(cxl::MemSession& mem, std::uint32_t index);
    std::uint32_t desc_flags(cxl::MemSession& mem, std::uint32_t index);
    std::uint64_t desc_offset(cxl::MemSession& mem, std::uint32_t index);
    std::uint64_t desc_size(cxl::MemSession& mem, std::uint32_t index);
    std::uint32_t desc_gen(cxl::MemSession& mem, std::uint32_t index);
    void refetch_desc(cxl::MemSession& mem, std::uint32_t index);
    void publish_desc(cxl::MemSession& mem, std::uint32_t index);

    /// Claims an unowned reservation region for the calling thread.
    bool claim_region(pod::ThreadContext& ctx, ThreadState& ts,
                      std::uint32_t* region_out);

    /// Owner of @p region per the reservation array (kNoThread if free).
    cxl::ThreadId region_owner(cxl::MemSession& mem, std::uint32_t region);

    /// Walks @p owner_tid's descriptor list for a descriptor covering
    /// @p offset; returns its index or kNoDesc.
    std::uint32_t find_desc(cxl::MemSession& mem, cxl::ThreadId owner_tid,
                            cxl::HeapOffset offset, bool require_live);

    /// Unlinks descriptor @p index from the calling thread's list.
    void unlink_desc(cxl::MemSession& mem, std::uint32_t index);

    bool on_desc_list(cxl::MemSession& mem, cxl::ThreadId tid,
                      std::uint32_t index);
    void link_desc(cxl::MemSession& mem, std::uint32_t index);

    static constexpr std::uint32_t kNoDesc = ~std::uint32_t{0};

    const Layout* layout_;
    cxlsync::DetectableCas* dcas_;
    RecoveryLog* log_;
    cxlsync::HazardOffsets hazards_;

    std::uint32_t num_regions_;
    std::uint64_t region_size_;
    cxl::HeapOffset data_base_;
    std::uint32_t descs_per_thread_;
};

} // namespace cxlalloc
