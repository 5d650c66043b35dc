#include "cxlalloc/huge_heap.h"

#include "common/assert.h"
#include "common/cacheline.h"
#include "pod/process.h"

namespace cxlalloc {

using cxlcommon::align_up;
using cxlsync::DcasWord;

namespace {

// A HugeFree record holds its descriptor in the index's low 16 bits, and
// the generation of the allocation it frees (HugeDescField::kGen) in the
// index's high 16 bits (generation bits 12-27) and aux (bits 0-11).

OpRecord
huge_free_record(std::uint32_t index, std::uint32_t gen,
                 std::uint16_t version)
{
    return OpRecord{.op = Op::HugeFree,
                    .large_heap = false,
                    .aux = static_cast<std::uint16_t>(gen & OpRecord::kAuxMask),
                    .version = version,
                    .index = index | (gen >> 12) << 16};
}

std::uint32_t
freed_desc(const OpRecord& record)
{
    return record.index & 0xffffu;
}

std::uint32_t
freed_gen(const OpRecord& record)
{
    return (record.index >> 16) << 12 | record.aux;
}

} // namespace

HugeHeap::HugeHeap(const Layout* layout, cxlsync::DetectableCas* dcas,
                   RecoveryLog* log)
    : layout_(layout), dcas_(dcas), log_(log),
      hazards_(layout->hazard_table(),
               layout->config().hazard_slots_per_thread),
      num_regions_(layout->config().huge_regions),
      region_size_(layout->config().huge_region_size),
      data_base_(layout->huge_data()),
      descs_per_thread_(layout->config().huge_descs_per_thread)
{
    CXL_ASSERT(layout->huge_desc_count() <= 1u << 16,
               "a HugeFree record holds 16 bits of descriptor index");
}

// ------------------------------------------------------- descriptor access

cxl::HeapOffset
HugeHeap::desc(std::uint32_t index) const
{
    CXL_ASSERT(index < layout_->huge_desc_count(), "desc index out of range");
    return layout_->huge_desc(index);
}

void
HugeHeap::refetch_desc(cxl::MemSession& mem, std::uint32_t index)
{
    // Huge-heap SWcc rule: flush before every read (paper §3.2.2).
    mem.flush(desc(index), HugeDescField::kStride);
}

void
HugeHeap::publish_desc(cxl::MemSession& mem, std::uint32_t index)
{
    // Huge-heap SWcc rule: flush + fence after every write.
    mem.flush(desc(index), HugeDescField::kStride);
    mem.fence();
}

std::uint32_t
HugeHeap::desc_next(cxl::MemSession& mem, std::uint32_t index)
{
    return mem.load<std::uint32_t>(desc(index) + HugeDescField::kNext);
}

std::uint32_t
HugeHeap::desc_flags(cxl::MemSession& mem, std::uint32_t index)
{
    return mem.load<std::uint32_t>(desc(index) + HugeDescField::kFlags);
}

std::uint64_t
HugeHeap::desc_offset(cxl::MemSession& mem, std::uint32_t index)
{
    return mem.load<std::uint64_t>(desc(index) + HugeDescField::kOffset);
}

std::uint64_t
HugeHeap::desc_size(cxl::MemSession& mem, std::uint32_t index)
{
    return mem.load<std::uint64_t>(desc(index) + HugeDescField::kSize);
}

std::uint32_t
HugeHeap::desc_gen(cxl::MemSession& mem, std::uint32_t index)
{
    return mem.load<std::uint32_t>(desc(index) + HugeDescField::kGen);
}

// ------------------------------------------------------------------ regions

cxl::ThreadId
HugeHeap::region_owner(cxl::MemSession& mem, std::uint32_t region)
{
    return static_cast<cxl::ThreadId>(
        DcasWord::value(mem.atomic_load64(layout_->huge_reservation(region))));
}

bool
HugeHeap::claim_region(pod::ThreadContext& ctx, ThreadState& ts,
                       std::uint32_t* region_out)
{
    cxl::MemSession& mem = ctx.mem();
    for (std::uint32_t region = 0; region < num_regions_; region++) {
        cxl::HeapOffset word = layout_->huge_reservation(region);
        if (DcasWord::value(mem.atomic_load64(word)) != 0) {
            continue;
        }
        std::uint16_t ver = ts.next_version();
        log_->log(mem, OpRecord{.op = Op::HugeReserve,
                                .large_heap = false,
                                .aux = 0,
                                .version = ver,
                                .index = region});
        ctx.maybe_crash(crashpoint::kAfterRecord);
        if (dcas_->try_cas(mem, word, 0, mem.tid(), ver).success) {
            *region_out = region;
            return true;
        }
        // Lost the race for this region; keep scanning.
    }
    return false;
}

// --------------------------------------------------------- descriptor lists

bool
HugeHeap::on_desc_list(cxl::MemSession& mem, cxl::ThreadId tid,
                       std::uint32_t index)
{
    cxl::HeapOffset head = layout_->huge_local(tid);
    mem.flush(head, 8);
    std::uint32_t raw = mem.load<std::uint32_t>(head);
    std::uint32_t steps = 0;
    while (raw != 0 && steps++ <= layout_->huge_desc_count()) {
        if (raw - 1 == index) {
            return true;
        }
        refetch_desc(mem, raw - 1);
        raw = desc_next(mem, raw - 1);
    }
    return false;
}

void
HugeHeap::link_desc(cxl::MemSession& mem, std::uint32_t index)
{
    cxl::HeapOffset head = layout_->huge_local(mem.tid());
    std::uint32_t old = mem.load<std::uint32_t>(head);
    mem.store<std::uint32_t>(desc(index) + HugeDescField::kNext, old);
    publish_desc(mem, index);
    mem.store<std::uint32_t>(head, index + 1);
    mem.flush(head, 8);
    mem.fence();
}

void
HugeHeap::unlink_desc(cxl::MemSession& mem, std::uint32_t index)
{
    cxl::HeapOffset head = layout_->huge_local(mem.tid());
    std::uint32_t raw = mem.load<std::uint32_t>(head);
    CXL_ASSERT(raw != 0, "unlink from empty descriptor list");
    if (raw - 1 == index) {
        mem.store<std::uint32_t>(head, desc_next(mem, index));
        mem.flush(head, 8);
        mem.fence();
        return;
    }
    std::uint32_t prev = raw - 1;
    std::uint32_t steps = 0;
    while (true) {
        CXL_ASSERT(steps++ <= layout_->huge_desc_count(),
                   "descriptor list cyclic or entry missing");
        std::uint32_t next = desc_next(mem, prev);
        CXL_ASSERT(next != 0, "descriptor not on list");
        if (next - 1 == index) {
            mem.store<std::uint32_t>(desc(prev) + HugeDescField::kNext,
                                     desc_next(mem, index));
            publish_desc(mem, prev);
            return;
        }
        prev = next - 1;
    }
}

std::uint32_t
HugeHeap::find_desc(cxl::MemSession& mem, cxl::ThreadId owner_tid,
                    cxl::HeapOffset offset, bool require_live)
{
    cxl::HeapOffset head = layout_->huge_local(owner_tid);
    mem.flush(head, 8);
    std::uint32_t raw = mem.load<std::uint32_t>(head);
    std::uint32_t steps = 0;
    while (raw != 0 && steps++ <= layout_->huge_desc_count()) {
        std::uint32_t index = raw - 1;
        refetch_desc(mem, index);
        std::uint32_t flags = desc_flags(mem, index);
        if (flags & HugeDescField::kFlagAllocated) {
            std::uint64_t start = desc_offset(mem, index);
            std::uint64_t size = desc_size(mem, index);
            bool live = !(flags & HugeDescField::kFlagFree);
            if (offset >= start && offset < start + size &&
                (!require_live || live)) {
                return index;
            }
        }
        raw = desc_next(mem, index);
    }
    return kNoDesc;
}

// --------------------------------------------------------------- operations

bool
HugeHeap::contains(cxl::HeapOffset offset) const
{
    return offset >= data_base_ &&
           offset < data_base_ + static_cast<cxl::HeapOffset>(num_regions_) *
                                     region_size_;
}

cxl::HeapOffset
HugeHeap::allocate(pod::ThreadContext& ctx, ThreadState& ts,
                   std::uint64_t size)
{
    cxl::MemSession& mem = ctx.mem();
    size = align_up(size, cxl::kPageSize);
    if (size > region_size_) {
        return 0; // one allocation never spans reservation regions
    }
    std::uint64_t start = 0;
    bool cleaned = false;
    while (!ts.huge_free.take(size, &start)) {
        if (!cleaned) {
            // Reclaim before claiming: space freed remotely waits here until
            // the owner's cleanup pass, and claiming a fresh region instead
            // lets a thread whose objects others free hoard every region.
            cleanup(ctx, ts);
            cleaned = true;
            continue;
        }
        std::uint32_t region = 0;
        if (!claim_region(ctx, ts, &region)) {
            return 0; // address space exhausted
        }
        ts.huge_free.insert(layout_->huge_region_data(region), region_size_);
    }
    if (ts.free_descs.empty()) {
        cleanup(ctx, ts); // try to recycle freed descriptors
        if (ts.free_descs.empty()) {
            ts.huge_free.insert(start, size);
            return 0;
        }
    }
    std::uint32_t index = ts.free_descs.back();
    ts.free_descs.pop_back();

    log_->log(mem, OpRecord{.op = Op::HugeAlloc,
                            .large_heap = false,
                            .aux = 0,
                            .version = ts.version,
                            .index = index});
    ctx.maybe_crash(crashpoint::kAfterRecord);

    cxl::HeapOffset d = desc(index);
    mem.store<std::uint64_t>(d + HugeDescField::kOffset, start);
    mem.store<std::uint64_t>(d + HugeDescField::kSize, size);
    // Only the owner fills its descriptors, so its own view of the
    // generation is current.
    mem.store<std::uint32_t>(
        d + HugeDescField::kGen,
        (desc_gen(mem, index) + 1) & HugeDescField::kGenMask);
    mem.store<std::uint32_t>(d + HugeDescField::kFlags,
                             HugeDescField::kFlagAllocated);
    publish_desc(mem, index);
    ctx.maybe_crash(crashpoint::kMidHugeAlloc);
    link_desc(mem, index);
    return allocate_tail(ctx, ts, index, start, size) ? start : 0;
}

bool
HugeHeap::allocate_tail(pod::ThreadContext& ctx, ThreadState& ts,
                        std::uint32_t index, std::uint64_t start,
                        std::uint64_t size)
{
    cxl::MemSession& mem = ctx.mem();
    // Hazard-offset rule 1: publish before mapping. A full row means this
    // thread holds its configured maximum of concurrent mappings; reclaim
    // freed ones and retry before failing the allocation.
    if (hazards_.try_publish(mem, start) == cxlsync::HazardOffsets::kNoSlot) {
        cleanup(ctx, ts);
        if (hazards_.try_publish(mem, start) ==
            cxlsync::HazardOffsets::kNoSlot) {
            // Roll the allocation back: unlink + free the descriptor and
            // return the address space.
            unlink_desc(mem, index);
            mem.store<std::uint32_t>(desc(index) + HugeDescField::kFlags, 0);
            publish_desc(mem, index);
            ts.free_descs.push_back(index);
            ts.huge_free.insert(start, size);
            return false;
        }
    }
    ctx.maybe_crash(crashpoint::kMidHugeMap);
    ctx.process().install_mapping(start, size);
    return true;
}

void
HugeHeap::deallocate(pod::ThreadContext& ctx, ThreadState& ts,
                     cxl::HeapOffset offset)
{
    cxl::MemSession& mem = ctx.mem();
    CXL_ASSERT(contains(offset), "huge free of non-huge offset");
    auto region =
        static_cast<std::uint32_t>((offset - data_base_) / region_size_);
    cxl::ThreadId owner_tid = region_owner(mem, region);
    CXL_ASSERT(owner_tid != cxl::kNoThread,
               "huge free into unclaimed region");
    std::uint32_t index = find_desc(mem, owner_tid, offset,
                                    /*require_live=*/true);
    CXL_ASSERT(index != kNoDesc, "huge free of unknown allocation");

    log_->log(mem, huge_free_record(index, desc_gen(mem, index), ts.version));
    ctx.maybe_crash(crashpoint::kAfterRecord);
    deallocate_tail(ctx, index);
}

void
HugeHeap::deallocate_tail(pod::ThreadContext& ctx, std::uint32_t index)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint64_t start = desc_offset(mem, index);
    std::uint64_t size = desc_size(mem, index);
    // "Setting the free bit does not require CAS because huge descriptors
    // are never updated concurrently" (§3.1.2).
    mem.store<std::uint32_t>(desc(index) + HugeDescField::kFlags,
                             HugeDescField::kFlagAllocated |
                                 HugeDescField::kFlagFree);
    publish_desc(mem, index);
    ctx.maybe_crash(crashpoint::kMidHugeFree);

    // Hazard-offset rule 2: remove after unmapping.
    ctx.process().remove_mapping(start, size);
    hazards_.remove_value(mem, start);
}

void
HugeHeap::cleanup(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    // Pass 1: this thread's hazards over allocations that were freed
    // elsewhere — unmap locally and drop the hazard so reclamation can
    // proceed pod-wide.
    for (std::uint32_t slot = 0; slot < hazards_.slots_per_thread(); slot++) {
        cxl::HeapOffset at = hazards_.slot_offset(mem.tid(), slot);
        std::uint64_t value = mem.load<std::uint64_t>(at);
        if (value == 0) {
            continue;
        }
        auto region =
            static_cast<std::uint32_t>((value - data_base_) / region_size_);
        cxl::ThreadId owner_tid = region_owner(mem, region);
        if (owner_tid == cxl::kNoThread) {
            continue;
        }
        std::uint32_t index = find_desc(mem, owner_tid, value,
                                        /*require_live=*/false);
        if (index == kNoDesc) {
            continue;
        }
        std::uint32_t flags = desc_flags(mem, index);
        if (flags & HugeDescField::kFlagFree) {
            ctx.process().remove_mapping(desc_offset(mem, index),
                                         desc_size(mem, index));
            hazards_.remove(mem, slot);
        }
    }
    // Pass 2: this thread's freed, unhazarded descriptors — reclaim the
    // descriptor and its address space.
    cxl::HeapOffset head = layout_->huge_local(mem.tid());
    std::uint32_t raw = mem.load<std::uint32_t>(head);
    std::uint32_t steps = 0;
    while (raw != 0 && steps++ <= layout_->huge_desc_count()) {
        std::uint32_t index = raw - 1;
        refetch_desc(mem, index);
        std::uint32_t flags = desc_flags(mem, index);
        std::uint32_t next = desc_next(mem, index);
        if (flags == 0) {
            // Interrupted reclaim from a previous life: finish the unlink.
            unlink_desc(mem, index);
            ts.free_descs.push_back(index);
        } else if ((flags & HugeDescField::kFlagFree) != 0) {
            std::uint64_t start = desc_offset(mem, index);
            std::uint64_t size = desc_size(mem, index);
            // Hazard-offset rule 3: reclaim only if free and unpublished.
            if (!hazards_.is_published(mem, start)) {
                unlink_desc(mem, index);
                mem.store<std::uint32_t>(desc(index) + HugeDescField::kFlags,
                                         0);
                publish_desc(mem, index);
                ts.huge_free.insert(start, size);
                ts.free_descs.push_back(index);
            }
        }
        raw = next;
    }
}

bool
HugeHeap::resolve(cxl::MemSession& mem, cxl::HeapOffset offset,
                  pod::MappedRange* out)
{
    if (!contains(offset)) {
        return false;
    }
    auto region =
        static_cast<std::uint32_t>((offset - data_base_) / region_size_);
    cxl::ThreadId owner_tid = region_owner(mem, region);
    if (owner_tid == cxl::kNoThread) {
        return false;
    }
    std::uint32_t index = find_desc(mem, owner_tid, offset,
                                    /*require_live=*/true);
    if (index == kNoDesc) {
        return false;
    }
    std::uint64_t start = desc_offset(mem, index);
    std::uint64_t size = desc_size(mem, index);
    // PC-T: this process is about to install the mapping — protect it from
    // reclamation first (hazard-offset rule 1). No validation step needed:
    // the racing free would be an application use-after-free (§3.3.2).
    hazards_.publish(mem, start);
    out->start = start;
    out->len = size;
    return true;
}

// ----------------------------------------------------------------- recovery

void
HugeHeap::rebuild_thread_state(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    cxl::ThreadId me = mem.tid();
    ts.huge_free.clear();
    ts.free_descs.clear();

    // Address space: every region the reservation array grants me...
    for (std::uint32_t region = 0; region < num_regions_; region++) {
        if (region_owner(mem, region) == me) {
            ts.huge_free.insert(layout_->huge_region_data(region),
                                region_size_);
        }
    }
    // ...minus every allocation my descriptor list still records
    // (paper §3.4.2: HugeLocal.free is deterministically reconstructible).
    cxl::HeapOffset head = layout_->huge_local(me);
    mem.flush(head, 8);
    std::uint32_t raw = mem.load<std::uint32_t>(head);
    std::uint32_t steps = 0;
    std::vector<bool> linked(descs_per_thread_, false);
    while (raw != 0 && steps++ <= layout_->huge_desc_count()) {
        std::uint32_t index = raw - 1;
        refetch_desc(mem, index);
        std::uint32_t base = me * descs_per_thread_;
        if (index >= base && index < base + descs_per_thread_) {
            linked[index - base] = true;
        }
        if (desc_flags(mem, index) & HugeDescField::kFlagAllocated) {
            ts.huge_free.remove(desc_offset(mem, index),
                                desc_size(mem, index));
        }
        raw = desc_next(mem, index);
    }
    // Free descriptors: my pool slice, flags == 0, not linked (a linked
    // flags==0 descriptor is an interrupted reclaim finished by cleanup()).
    for (std::uint32_t i = 0; i < descs_per_thread_; i++) {
        std::uint32_t index = me * descs_per_thread_ + i;
        refetch_desc(mem, index);
        if (desc_flags(mem, index) == 0 && !linked[i]) {
            ts.free_descs.push_back(index);
        }
    }
    // Stale hazards: a crash between unmap and hazard removal leaves a
    // hazard naming a mapping this process no longer holds.
    for (std::uint32_t slot = 0; slot < hazards_.slots_per_thread(); slot++) {
        cxl::HeapOffset at = hazards_.slot_offset(me, slot);
        mem.flush(at, 8);
        std::uint64_t value = mem.load<std::uint64_t>(at);
        if (value != 0 && !ctx.process().is_mapped(value)) {
            hazards_.remove(mem, slot);
        }
    }
}

void
HugeHeap::recover(pod::ThreadContext& ctx, ThreadState& ts,
                  const OpRecord& record)
{
    cxl::MemSession& mem = ctx.mem();
    switch (record.op) {
      case Op::HugeReserve:
        // Ownership is re-derived from the reservation array by
        // rebuild_thread_state; nothing else to repair.
        break;
      case Op::HugeAlloc: {
        std::uint32_t index = record.index;
        refetch_desc(mem, index);
        if (desc_flags(mem, index) == 0) {
            break; // descriptor publish never landed, or rolled back
        }
        // Complete the allocation, or roll it back as allocate would (the
        // pointer never reached the application; its own recovery log
        // reclaims the object).
        if (!on_desc_list(mem, mem.tid(), index)) {
            link_desc(mem, index);
            // Rebuilt before the link, the thread state counted the range
            // free: the roll-back would return it twice.
            rebuild_thread_state(ctx, ts);
        }
        // A hazard still published means the tail ran: rebuild_thread_state
        // dropped each of ours that this process has not mapped.
        std::uint64_t start = desc_offset(mem, index);
        if (!hazards_.is_published(mem, start)) {
            allocate_tail(ctx, ts, index, start, desc_size(mem, index));
        }
        break;
      }
      case Op::HugeFree: {
        const std::uint32_t index = freed_desc(record);
        refetch_desc(mem, index);
        // Flags 0: already reclaimed. Another generation: reclaimed and
        // filled again by its owner since, with another allocation.
        if ((desc_flags(mem, index) & HugeDescField::kFlagAllocated) != 0 &&
            desc_gen(mem, index) == freed_gen(record)) {
            deallocate_tail(ctx, index);
        }
        break;
      }
      default:
        CXL_PANIC("huge heap asked to recover a non-huge operation");
    }
}

// -------------------------------------------------------------- diagnostics

void
HugeHeap::audit(cxl::MemSession& mem, cxl::DeviceId shard,
                AuditReport& report)
{
    auto violate = [&](std::uint32_t index, const char* what,
                       std::uint64_t expected, std::uint64_t actual) {
        report.violations.push_back({shard, AuditHeap::Huge, index,
                                     AuditLaw::HugeDesc, what, expected,
                                     actual});
    };
    std::uint64_t data_end =
        data_base_ + static_cast<std::uint64_t>(num_regions_) * region_size_;
    for (std::uint32_t tid = 1; tid <= cxl::kMaxThreads; tid++) {
        cxl::HeapOffset head = layout_->huge_local(tid);
        mem.flush(head, 8);
        std::uint32_t raw = mem.load<std::uint32_t>(head);
        for (std::uint32_t steps = 1; raw != 0; steps++) {
            std::uint32_t index = raw - 1;
            if (steps > layout_->huge_desc_count()) {
                violate(index, "descriptor list length <= descriptors",
                        layout_->huge_desc_count(), steps);
                break;
            }
            refetch_desc(mem, index);
            if (desc_flags(mem, index) & HugeDescField::kFlagAllocated) {
                std::uint64_t start = desc_offset(mem, index);
                std::uint64_t end = start + desc_size(mem, index);
                if (start < data_base_) {
                    violate(index, "allocation start >= huge data start",
                            data_base_, start);
                } else if (end > data_end) {
                    violate(index, "allocation end <= huge data end",
                            data_end, end);
                } else {
                    auto region = static_cast<std::uint32_t>(
                        (start - data_base_) / region_size_);
                    cxl::ThreadId who = region_owner(mem, region);
                    if (who != tid) {
                        violate(index, "owner of the allocation's region",
                                tid, who);
                    }
                }
            }
            raw = desc_next(mem, index);
        }
    }
}

HugeHeap::Stats
HugeHeap::stats(cxl::MemSession& mem)
{
    Stats s;
    for (std::uint32_t region = 0; region < num_regions_; region++) {
        if (region_owner(mem, region) != cxl::kNoThread) {
            s.regions_claimed++;
        }
    }
    for (std::uint32_t i = 0; i < layout_->huge_desc_count(); i++) {
        refetch_desc(mem, i);
        std::uint32_t flags = desc_flags(mem, i);
        if ((flags & HugeDescField::kFlagAllocated) &&
            !(flags & HugeDescField::kFlagFree)) {
            s.live_allocations++;
            s.live_bytes += desc_size(mem, i);
        }
    }
    return s;
}

} // namespace cxlalloc
