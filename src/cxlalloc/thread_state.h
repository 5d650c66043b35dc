/// @file
/// Volatile (host-side) per-thread allocator state. Everything here is
/// reconstructible from shared heap metadata, so it dies with the thread
/// and is rebuilt on attach or recovery (paper §3.4.2).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cxlalloc/interval_set.h"
#include "sync/detectable_cas.h"

namespace cxlalloc {

/// What a thread's NoHwcc drain rounds (SlabHeap::drain_round) remember
/// between rounds, allocated on its first drain. Hints and bookkeeping
/// only: the mCAS validates every predicted word, and no recovery reads
/// any of it.
struct DrainState {
    /// Direct-mapped prediction slots per slab heap.
    static constexpr std::uint32_t kSlots = 64;

    /// The counter word the thread expects on one slab: the swap of its
    /// last landed operand there, or the word its last failed one found.
    struct Prediction {
        std::uint32_t slab_plus1 = 0; ///< 0 = empty
        std::uint64_t word = 0;
    };

    /// [large heap][slab % kSlots].
    Prediction slot[2][kSlots];
    /// The thread's version when it last refreshed its own help entry
    /// (or when this state was allocated).
    std::uint16_t refreshed_at = 0;
    /// Version of the newest operand of the thread's that landed.
    std::uint16_t newest_landed = 0;
    bool landed = false;
};

struct ThreadState {
    /// Last detectable-CAS version used (15-bit circular). Restored from
    /// the recovery record on adoption of a crashed slot.
    std::uint16_t version = 0;

    /// Free huge-heap virtual address space owned by this thread
    /// (HugeLocal.free). Rebuilt from the reservation array and the huge
    /// descriptor list.
    IntervalSet huge_free;

    /// Free huge descriptor indices from this thread's pool slice.
    std::vector<std::uint32_t> free_descs;

    /// NoHwcc drain rounds' state; null until the first drain. Recovery
    /// keeps the crashed thread's: its refresh countdown must not restart.
    std::unique_ptr<DrainState> drain;

    /// Per slab heap ([large heap]), one bit per pending line (SlabHeap's
    /// PendingRow): set when the line may hold entries or an out stamp. A
    /// clear bit is exact, so appends and drains load only the lines whose
    /// bit is set; a set bit may be stale. All set on attach and recovery.
    std::uint8_t pending_hint[2] = {0xff, 0xff};

    /// Allocates the next CAS version.
    std::uint16_t
    next_version()
    {
        version = (version + 1) & cxlsync::kVersionMask;
        return version;
    }
};

} // namespace cxlalloc
