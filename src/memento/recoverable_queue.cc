#include "memento/recoverable_queue.h"

#include <cstring>

#include "common/assert.h"
#include "pod/crashpoint.h"

namespace memento {

void
register_queue_crash_points()
{
    pod::CrashPointRegistry& reg = pod::CrashPointRegistry::instance();
    reg.add(qcrash::kAfterAlloc, "queue.after_alloc",
            "RecoverableQueue::push");
    reg.add(qcrash::kAfterRecord, "queue.after_record",
            "RecoverableQueue::push");
    reg.add(qcrash::kAfterLink, "queue.after_link", "RecoverableQueue::push");
    reg.add(qcrash::kAfterUnlink, "queue.after_unlink",
            "RecoverableQueue::pop");
}

namespace {

/// Record word 0: [ node:48 | version:15 | op:... ] — keep it simple with
/// two words: word0 = op | version << 8; word1 = node offset.
std::uint64_t
pack_meta(std::uint8_t op, std::uint16_t version)
{
    return static_cast<std::uint64_t>(op) |
           (static_cast<std::uint64_t>(version) << 8);
}

} // namespace

std::uint64_t
RecoverableQueue::meta_size()
{
    return 8 /*head*/ + (cxl::kMaxThreads + 1) * 8 /*help*/ +
           (cxl::kMaxThreads + 1) * 16 /*records*/;
}

RecoverableQueue::RecoverableQueue(pod::Pod& pod, cxl::HeapOffset meta,
                                   baselines::PodAllocator* alloc)
    : pod_(pod), head_(meta),
      records_(meta + 8 + (cxl::kMaxThreads + 1) * 8), alloc_(alloc),
      dcas_(meta + 8)
{
    register_queue_crash_points();
}

cxl::HeapOffset
RecoverableQueue::record_off(cxl::ThreadId tid) const
{
    return records_ + static_cast<cxl::HeapOffset>(tid) * 16;
}

void
RecoverableQueue::write_record(cxl::MemSession& mem, QOp op,
                               std::uint16_t version, std::uint64_t node)
{
    cxl::HeapOffset at = record_off(mem.tid());
    mem.store<std::uint64_t>(at, pack_meta(static_cast<std::uint8_t>(op),
                                           version));
    mem.store<std::uint64_t>(at + 8, node);
    mem.flush(at, 16);
    mem.fence();
}

bool
RecoverableQueue::push(pod::ThreadContext& ctx, std::uint64_t size,
                       unsigned char fill)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint64_t total = 8 + size; // next word + payload
    cxl::HeapOffset node = alloc_->allocate(ctx, total);
    if (node == 0) {
        return false;
    }
    ctx.maybe_crash(qcrash::kAfterAlloc);
    std::memset(mem.data_ptr(node, total) + 8, fill, size);
    std::uint16_t ver =
        versions_[mem.tid()] = (versions_[mem.tid()] + 1) &
                               cxlsync::kVersionMask;
    write_record(mem, QOp::Push, ver, node);
    ctx.maybe_crash(qcrash::kAfterRecord);
    std::uint32_t head = dcas_.read(mem, head_);
    while (true) {
        mem.store<std::uint64_t>(node, static_cast<std::uint64_t>(head) * 8);
        auto r = dcas_.try_cas(mem, head_, head,
                               static_cast<std::uint32_t>(node / 8), ver);
        if (r.success) {
            break;
        }
        head = r.observed;
    }
    ctx.maybe_crash(qcrash::kAfterLink);
    return true;
}

bool
RecoverableQueue::pop(pod::ThreadContext& ctx)
{
    cxl::MemSession& mem = ctx.mem();
    while (true) {
        // Expect the whole tagged head word, not just its value: if the
        // node is popped, freed, reallocated and pushed back before our
        // CAS, the value matches again but the tag does not (ABA), and a
        // value-only CAS would install a stale next — a node another
        // thread already popped and freed.
        std::uint64_t word = dcas_.read_word(mem, head_);
        std::uint32_t head = cxlsync::DcasWord::value(word);
        if (head == 0) {
            return false;
        }
        std::uint64_t node = static_cast<std::uint64_t>(head) * 8;
        std::uint64_t next = mem.load<std::uint64_t>(node);
        std::uint16_t ver =
            versions_[mem.tid()] = (versions_[mem.tid()] + 1) &
                                   cxlsync::kVersionMask;
        // Record the node we are trying to take, per attempt, so recovery
        // can finish the free if we die after the CAS.
        write_record(mem, QOp::Pop, ver, node);
        auto r = dcas_.try_cas_word(mem, head_, word,
                                    static_cast<std::uint32_t>(next / 8), ver);
        if (r.success) {
            ctx.maybe_crash(qcrash::kAfterUnlink);
            alloc_->deallocate(ctx, node);
            // Close the record: without this, a later crash would make
            // recovery double-free the node.
            write_record(mem, QOp::None, ver, 0);
            return true;
        }
    }
}

void
RecoverableQueue::recover(pod::ThreadContext& ctx)
{
    cxl::MemSession& mem = ctx.mem();
    cxl::HeapOffset at = record_off(mem.tid());
    mem.flush(at, 16);
    std::uint64_t meta = mem.load<std::uint64_t>(at);
    std::uint64_t node = mem.load<std::uint64_t>(at + 8);
    auto op = static_cast<QOp>(meta & 0xff);
    auto version = static_cast<std::uint16_t>(meta >> 8);
    versions_[mem.tid()] = version;
    switch (op) {
      case QOp::None:
        break;
      case QOp::Push: {
        if (node == 0) {
            break;
        }
        if (dcas_.did_succeed(mem, head_, version)) {
            break; // publication landed
        }
        // Object allocated but never published: complete the push so the
        // object is neither lost nor leaked.
        std::uint16_t ver =
            versions_[mem.tid()] = (versions_[mem.tid()] + 1) &
                                   cxlsync::kVersionMask;
        std::uint32_t head = dcas_.read(mem, head_);
        while (true) {
            mem.store<std::uint64_t>(node,
                                     static_cast<std::uint64_t>(head) * 8);
            auto r = dcas_.try_cas(mem, head_, head,
                                   static_cast<std::uint32_t>(node / 8), ver);
            if (r.success) {
                break;
            }
            head = r.observed;
        }
        break;
      }
      case QOp::Pop: {
        if (node != 0 && dcas_.did_succeed(mem, head_, version)) {
            // We unlinked the node but died before freeing it.
            alloc_->deallocate(ctx, node);
        }
        break;
      }
    }
    write_record(mem, QOp::None, versions_[mem.tid()], 0);
}

void
RecoverableQueue::drain(pod::ThreadContext& ctx)
{
    while (pop(ctx)) {
    }
}

std::uint64_t
RecoverableQueue::approximate_size(pod::ThreadContext& ctx)
{
    std::uint64_t n = 0;
    for_each(ctx, [&](cxl::HeapOffset) { n++; });
    return n;
}

} // namespace memento
