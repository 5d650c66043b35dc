#include "cxlalloc/allocator.h"

#include "common/assert.h"
#include "obs/timer.h"
#include "pod/process.h"

namespace cxlalloc {

CxlAllocator::CxlAllocator(pod::Pod& pod, const Config& config)
    : pod_(pod), layout_(config),
      dcas_(layout_.help_array(), config.recoverable),
      log_(&layout_, config.recoverable),
      small_(&layout_, /*large=*/false, &dcas_, &log_),
      large_(&layout_, /*large=*/true, &dcas_, &log_),
      huge_(&layout_, &dcas_, &log_)
{
    register_crash_points();
    CXL_FATAL_IF(pod.device().size() < layout_.end(),
                 "device too small for heap layout");
    // With a based layout (a pod shard) the sync region is the per-window
    // prefix, so the requirement is base-relative either way.
    CXL_FATAL_IF(pod.device().mode() != cxl::CoherenceMode::FullHwcc &&
                     pod.device().config().sync_region_size <
                         layout_.hwcc_end() - layout_.base(),
                 "sync region too small for HWcc metadata");
    CXL_FATAL_IF(layout_.base() != 0 &&
                     (pod.device().device_of(layout_.base()) !=
                          pod.device().device_of(layout_.end() - 1) ||
                      layout_.base() !=
                          pod.device().window_base(
                              pod.device().device_of(layout_.base()))),
                 "based heap layout must exactly occupy one device window");
}

void
CxlAllocator::attach(pod::Process& process)
{
    // Virtual address space reservations (paper Fig. 2, grey regions):
    // carve out the offset ranges cxlalloc manages so nothing else in the
    // process can take them (PC-S).
    process.reserve("hwcc-metadata", layout_.base(),
                    layout_.hwcc_end() - layout_.base());
    process.reserve("swcc-metadata", layout_.hwcc_end(),
                    layout_.small_data() - layout_.hwcc_end());
    process.reserve("small-data", layout_.small_data(),
                    layout_.large_data() - layout_.small_data());
    process.reserve("large-data", layout_.large_data(),
                    layout_.huge_data() - layout_.large_data());
    process.reserve("huge-data", layout_.huge_data(),
                    layout_.end() - layout_.huge_data());
    process.set_resolver(this);

    // Fixed-size metadata is mapped eagerly; per-slab descriptors and all
    // data are mapped lazily (heap extension + fault handler).
    process.install_mapping(layout_.base(),
                            layout_.hwcc_end() - layout_.base());
    process.install_mapping(layout_.recovery_row(0),
                            layout_.small_local(0) - layout_.recovery_row(0));
    process.install_mapping(layout_.small_local(0),
                            layout_.small_swcc_desc(0) -
                                layout_.small_local(0));
    process.install_mapping(layout_.huge_desc(0),
                            layout_.huge_desc_count() *
                                HugeDescField::kStride);
}

void
CxlAllocator::attach_thread(pod::ThreadContext& ctx)
{
    PerThread& pt = threads_[ctx.tid()];
    pt.state = ThreadState{};
    // The slot's previous occupant may have left tags on words, and its
    // detach_thread recorded its newest version: start past it.
    pt.state.version = dcas_.recorded_version(ctx.mem());
    huge_.rebuild_thread_state(ctx, pt.state);
    pt.attached = true;
}

void
CxlAllocator::detach_thread(pod::ThreadContext& ctx)
{
    PerThread& pt = threads_[ctx.tid()];
    if (pt.attached) {
        drain_pending(ctx, pt.state);
        // A slab keeps its owner's pin until the owner gives it up: hand
        // every slab back, or it would outlive the slot.
        small_.release(ctx, pt.state);
        large_.release(ctx, pt.state);
        dcas_.record_landed(ctx.mem(), pt.state.version);
    }
}

void
CxlAllocator::drain_pending(pod::ThreadContext& ctx, ThreadState& ts)
{
    if (pod_.device().mode() == cxl::CoherenceMode::NoHwcc) {
        small_.drain_pending(ctx, ts);
        large_.drain_pending(ctx, ts);
    }
}

ThreadState&
CxlAllocator::state_of(pod::ThreadContext& ctx)
{
    PerThread& pt = threads_[ctx.tid()];
    if (!pt.attached) {
        attach_thread(ctx);
    }
    return pt.state;
}

ThreadState&
CxlAllocator::thread_state(cxl::ThreadId tid)
{
    return threads_[tid].state;
}

void
CxlAllocator::set_metrics(obs::MetricsRegistry* registry)
{
    inst_ = Instruments{};
    inst_.registry = registry;
    small_.set_metrics(registry);
    large_.set_metrics(registry);
    if (registry == nullptr) {
        return;
    }
    inst_.alloc_small = registry->counter("alloc.small");
    inst_.alloc_large = registry->counter("alloc.large");
    inst_.alloc_huge = registry->counter("alloc.huge");
    inst_.alloc_failures = registry->counter("alloc.failures");
    inst_.free_local = registry->counter("alloc.free_local");
    inst_.free_remote = registry->counter("alloc.free_remote");
    inst_.free_huge = registry->counter("alloc.free_huge");
    inst_.free_batches = registry->counter("alloc.free_batches");
    inst_.free_batch_ns = registry->histogram("alloc.free_batch_ns");
    inst_.recoveries = registry->counter("alloc.recoveries");
    inst_.cleanups = registry->counter("alloc.shard_cleanups");
    inst_.alloc_ns = registry->histogram("alloc.alloc_ns");
    inst_.free_ns = registry->histogram("alloc.free_ns");
    inst_.remote_free_ns = registry->histogram("alloc.remote_free_ns");
    inst_.op_alloc = registry->op("alloc");
    inst_.op_free = registry->op("free");
}

cxl::HeapOffset
CxlAllocator::allocate_impl(pod::ThreadContext& ctx, std::uint64_t size)
{
    CXL_ASSERT(size > 0, "zero-size allocation");
    ThreadState& ts = state_of(ctx);
    if (size <= kSmallMax) {
        return small_.allocate(ctx, ts, size);
    }
    if (size <= kLargeMax) {
        return large_.allocate(ctx, ts, size);
    }
    return huge_.allocate(ctx, ts, size);
}

cxl::HeapOffset
CxlAllocator::allocate(pod::ThreadContext& ctx, std::uint64_t size)
{
    if (inst_.registry == nullptr) {
        return allocate_impl(ctx, size);
    }
    std::uint64_t t0 = obs::now_ns();
    cxl::HeapOffset off = allocate_impl(ctx, size);
    std::uint64_t dt = obs::now_ns() - t0;
    obs::MetricsShard& sh = inst_.registry->shard(ctx.tid());
    sh.add(size <= kSmallMax
               ? inst_.alloc_small
               : (size <= kLargeMax ? inst_.alloc_large : inst_.alloc_huge));
    if (off == 0) {
        sh.add(inst_.alloc_failures);
    }
    sh.record(inst_.alloc_ns, dt);
    sh.trace().push({inst_.op_alloc, ctx.tid(), t0, dt, size});
    return off;
}

CxlAllocator::FreeKind
CxlAllocator::free_one(pod::ThreadContext& ctx, ThreadState& ts,
                       cxl::HeapOffset offset)
{
    CXL_ASSERT(offset != 0, "freeing null offset");
    if (small_.contains(offset)) {
        return small_.deallocate(ctx, ts, offset) ? kFreeRemote : kFreeLocal;
    }
    if (large_.contains(offset)) {
        return large_.deallocate(ctx, ts, offset) ? kFreeRemote : kFreeLocal;
    }
    CXL_FATAL_IF(!huge_.contains(offset),
                 "free of offset outside any heap region");
    huge_.deallocate(ctx, ts, offset);
    return kFreeHuge;
}

void
CxlAllocator::deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset)
{
    ThreadState& ts = state_of(ctx);
    if (inst_.registry == nullptr) {
        free_one(ctx, ts, offset);
        return;
    }
    std::uint64_t t0 = obs::now_ns();
    FreeKind kind = free_one(ctx, ts, offset);
    std::uint64_t dt = obs::now_ns() - t0;
    obs::MetricsShard& sh = inst_.registry->shard(ctx.tid());
    sh.add(kind == kFreeHuge
               ? inst_.free_huge
               : (kind == kFreeRemote ? inst_.free_remote : inst_.free_local));
    sh.record(kind == kFreeRemote ? inst_.remote_free_ns : inst_.free_ns, dt);
    sh.trace().push({inst_.op_free, ctx.tid(), t0, dt, offset});
}

void
CxlAllocator::deallocate_batch(pod::ThreadContext& ctx,
                               const cxl::HeapOffset* offsets,
                               std::uint32_t n)
{
    if (n == 0) {
        return;
    }
    ThreadState& ts = state_of(ctx);
    std::uint64_t t0 = inst_.registry != nullptr ? obs::now_ns() : 0;
    std::uint64_t frees[kFreeHuge + 1] = {};
    for (std::uint32_t i = 0; i < n; i++) {
        frees[free_one(ctx, ts, offsets[i])]++;
    }
    if (inst_.registry == nullptr) {
        return;
    }
    obs::MetricsShard& sh = inst_.registry->shard(ctx.tid());
    sh.add(inst_.free_batches);
    sh.add(inst_.free_huge, frees[kFreeHuge]);
    sh.add(inst_.free_remote, frees[kFreeRemote]);
    sh.add(inst_.free_local, frees[kFreeLocal]);
    sh.record(inst_.free_batch_ns, obs::now_ns() - t0);
}

void
CxlAllocator::recover(pod::ThreadContext& ctx)
{
    cxl::MemSession& mem = ctx.mem();
    PerThread& pt = threads_[ctx.tid()];
    std::unique_ptr<DrainState> drain = std::move(pt.state.drain);
    pt.state = ThreadState{};
    pt.state.drain = std::move(drain);
    if (pt.state.drain) {
        // The dead thread's out round, if any: reconcile_ring below
        // finishes it from its stamped line and the ring.
        pt.state.drain->out = {};
    }

    OpRecord record = log_.read(mem, ctx.tid());
    // Resume the version counter past the interrupted operation so no
    // future CAS reuses its tag: every record carries a version at least
    // the thread's newest, a cleared one included.
    pt.state.version = (record.version + 1) & cxlsync::kVersionMask;
    // Huge-heap volatile state must exist before huge redo logic runs.
    huge_.rebuild_thread_state(ctx, pt.state);
    pt.attached = true;

    // An append's record counts the list it extended: redo it against
    // that list, before any ring operand is put back into it.
    if (record.op == Op::FreeDeferred) {
        (record.large_heap ? large_ : small_).recover(ctx, pt.state, record);
    }
    // A kill can leave a list edit half done: relink both heaps' local
    // lists from descriptor truth before anything walks or edits them.
    small_.rebuild_lists(mem);
    large_.rebuild_lists(mem);
    // Staged NMP operands are device state: a crash can leave Posted slots
    // that doom every competing mCAS on their targets (Fig. 6(b)) until
    // released. A drain round whose decrements are stamped out of one of
    // its heap's pending lines needs them: each heap puts its round's
    // non-landed operands back into that line first. Everything else in
    // the ring never durably happened: discard it.
    small_.reconcile_ring(ctx);
    large_.reconcile_ring(ctx);
    pod_.nmp().reset_ring(ctx.tid());

    switch (record.op) {
      case Op::None:
      case Op::FreeDeferred: // redone above
        break;
      case Op::CellPublish:
        // A cell publish has no heap effect to redo; the record's only
        // job — resuming the version counter past the CAS — happened
        // above. Whether the CAS landed is the publisher's protocol
        // question (dcas().did_succeed with the recorded version).
        break;
      case Op::HugeReserve:
      case Op::HugeAlloc:
      case Op::HugeFree:
        huge_.recover(ctx, pt.state, record);
        // Ownership may have changed during redo: rebuild once more.
        huge_.rebuild_thread_state(ctx, pt.state);
        break;
      default:
        if (record.large_heap) {
            large_.recover(ctx, pt.state, record);
        } else {
            small_.recover(ctx, pt.state, record);
        }
        break;
    }
    // The adopted slot's pending frees land now: nobody else may touch
    // its lists.
    drain_pending(ctx, pt.state);
    log_.clear(mem, pt.state.version);
    if (inst_.registry != nullptr) {
        inst_.registry->shard(ctx.tid()).add(inst_.recoveries);
    }
}

OpRecord
CxlAllocator::pending_record(pod::ThreadContext& ctx)
{
    return log_.read(ctx.mem(), ctx.tid());
}

void
CxlAllocator::quiesce_record(pod::ThreadContext& ctx)
{
    PerThread& pt = threads_[ctx.tid()];
    // The migrator reads the next operation's record as that operation's
    // own. Under NoHwcc a free could first land a round and log its
    // records: while one is out, or a row is full. Land them now.
    if (pt.attached &&
        pod_.device().mode() == cxl::CoherenceMode::NoHwcc &&
        (small_.lands_before_append(ctx.mem(), pt.state) ||
         large_.lands_before_append(ctx.mem(), pt.state))) {
        drain_pending(ctx, pt.state);
    }
    log_.clear(ctx.mem(), pt.state.version);
}

std::uint16_t
CxlAllocator::log_cell_publish(pod::ThreadContext& ctx)
{
    std::uint16_t version = state_of(ctx).next_version();
    OpRecord rec;
    rec.op = Op::CellPublish;
    rec.version = version;
    log_.log(ctx.mem(), rec);
    return version;
}

cxlsync::DetectableCas::Result
CxlAllocator::cell_publish(pod::ThreadContext& ctx, cxl::HeapOffset cell,
                           std::uint32_t expected, std::uint32_t desired)
{
    std::uint16_t version = log_cell_publish(ctx);
    return dcas_.try_cas(ctx.mem(), cell, expected, desired, version);
}

cxl::HeapOffset
CxlAllocator::record_block_offset(cxl::MemSession& mem,
                                  const OpRecord& record)
{
    SlabHeap& heap = record.large_heap ? large_ : small_;
    std::uint8_t biased = heap.debug_class_biased(mem, record.index);
    CXL_ASSERT(biased != 0, "record names a classless slab");
    std::uint32_t cls = biased - 1;
    std::uint64_t block_size = record.large_heap ? large_class_size(cls)
                                                 : small_class_size(cls);
    return heap.slab_data(record.index) +
           static_cast<cxl::HeapOffset>(record.aux) * block_size;
}

void
CxlAllocator::cleanup(pod::ThreadContext& ctx)
{
    ThreadState& ts = state_of(ctx);
    drain_pending(ctx, ts);
    small_.reclaim(ctx, ts);
    large_.reclaim(ctx, ts);
    huge_.cleanup(ctx, ts);
    if (inst_.registry != nullptr) {
        inst_.registry->shard(ctx.tid()).add(inst_.cleanups);
    }
}

bool
CxlAllocator::resolve_fault(pod::Process& process, cxl::MemSession& mem,
                            cxl::HeapOffset offset, pod::MappedRange* out)
{
    (void)process;
    if (small_.resolve(mem, offset, out)) {
        return true;
    }
    if (large_.resolve(mem, offset, out)) {
        return true;
    }
    return huge_.resolve(mem, offset, out);
}

AuditReport
CxlAllocator::audit(cxl::MemSession& mem, AuditReport report)
{
    cxl::DeviceId shard = pod_.device().device_of(layout_.base());
    small_.audit(mem, shard, report);
    large_.audit(mem, shard, report);
    huge_.audit(mem, shard, report);
    return report;
}

CxlAllocator::Stats
CxlAllocator::stats(cxl::MemSession& mem)
{
    Stats s;
    s.small = small_.stats(mem);
    s.large = large_.stats(mem);
    s.huge = huge_.stats(mem);
    s.hwcc_bytes = layout_.hwcc_bytes();
    s.committed_bytes = pod_.device().committed_bytes();
    return s;
}

} // namespace cxlalloc
