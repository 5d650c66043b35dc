#include "cxlalloc/recovery.h"

#include "common/assert.h"
#include "pod/crashpoint.h"

namespace cxlalloc {

void
register_crash_points()
{
    using pod::CrashPointRegistry;
    CrashPointRegistry& reg = CrashPointRegistry::instance();
    namespace cp = crashpoint;
    reg.add(cp::kAfterRecord, "slab.after_record", "SlabHeap (record logged)");
    reg.add(cp::kMidInit, "slab.mid_init", "SlabHeap::init_slab");
    reg.add(cp::kAfterDcas, "slab.after_dcas", "SlabHeap (dcas applied)");
    reg.add(cp::kMidSteal, "slab.mid_steal",
            "SlabHeap::free_remote, SlabHeap::settle_round");
    reg.add(cp::kMidDetach, "slab.mid_detach", "SlabHeap::full_transition");
    reg.add(cp::kMidFreeLocal, "slab.mid_free_local", "SlabHeap::free_local");
    reg.add(cp::kMidPushGlobal, "slab.mid_push_global",
            "SlabHeap::push_global_one");
    reg.add(cp::kMidHugeAlloc, "huge.mid_alloc", "HugeHeap::allocate");
    reg.add(cp::kMidHugeMap, "huge.mid_map", "HugeHeap::map_region");
    reg.add(cp::kMidHugeFree, "huge.mid_free", "HugeHeap::deallocate");
    reg.add(cp::kMidAlloc, "slab.mid_alloc", "SlabHeap::allocate");
    reg.add(cp::kMidBatchStage, "slab.mid_batch_stage",
            "SlabHeap::drain_pending");
    reg.add(cp::kMidBatchDoorbell, "slab.mid_batch_doorbell",
            "SlabHeap::drain_pending");
    reg.add(cp::kMidBatchDrain, "slab.mid_batch_drain",
            "SlabHeap::drain_pending");
    reg.add(cp::kMidUnpin, "slab.mid_unpin", "SlabHeap::disown");
    reg.add(cp::kMidReclaim, "slab.mid_reclaim", "SlabHeap::reclaim");
    reg.add(cp::kMidRelease, "slab.mid_release", "SlabHeap::release");
}

const char*
to_string(Op op)
{
    switch (op) {
      case Op::None:
        return "none";
      case Op::Alloc:
        return "alloc";
      case Op::Init:
        return "init";
      case Op::PopGlobal:
        return "pop-global";
      case Op::Extend:
        return "extend";
      case Op::Detach:
        return "detach";
      case Op::Disown:
        return "disown";
      case Op::FreeLocal:
        return "free-local";
      case Op::FreeRemote:
        return "free-remote";
      case Op::PushGlobal:
        return "push-global";
      case Op::HugeReserve:
        return "huge-reserve";
      case Op::HugeAlloc:
        return "huge-alloc";
      case Op::HugeFree:
        return "huge-free";
      case Op::FreeRemoteBatch:
        return "free-remote-batch";
      case Op::CellPublish:
        return "cell-publish";
      case Op::FreeDeferred:
        return "free-deferred";
    }
    return "?";
}

std::uint64_t
OpRecord::pack() const
{
    CXL_ASSERT(aux <= kAuxMask, "record aux overflows 12 bits");
    CXL_ASSERT(version < (1u << 15), "record version overflows 15 bits");
    std::uint64_t aux13 =
        (static_cast<std::uint64_t>(large_heap) << 12) | aux;
    return (static_cast<std::uint64_t>(index) << 32) |
           (static_cast<std::uint64_t>(version) << 17) | (aux13 << 4) |
           static_cast<std::uint64_t>(op);
}

OpRecord
OpRecord::unpack(std::uint64_t word)
{
    OpRecord r;
    r.op = static_cast<Op>(word & 0xf);
    std::uint64_t aux13 = (word >> 4) & 0x1fff;
    r.large_heap = (aux13 >> 12) & 1;
    r.aux = static_cast<std::uint16_t>(aux13 & kAuxMask);
    r.version = static_cast<std::uint16_t>((word >> 17) & 0x7fff);
    r.index = static_cast<std::uint32_t>(word >> 32);
    return r;
}

} // namespace cxlalloc
