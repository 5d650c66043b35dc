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

/// What a thread's NoHwcc drain rounds remember (slab_heap.h).
struct DrainState;

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
    /// Complete where a ThreadState is destroyed (slab_heap.h).
    std::unique_ptr<DrainState> drain;

    /// Per slab heap ([large heap]), one bit per pending line (SlabHeap's
    /// PendingRow): set when the line may hold entries or an out stamp,
    /// except that a line its out round emptied reads from the round's
    /// copy (DrainState). A clear bit is exact, so appends and drains load
    /// only the lines whose bit is set; a set bit may be stale. All set on
    /// attach and recovery.
    std::uint8_t pending_hint[2] = {0xff, 0xff};

    /// Per slab heap ([large heap]), one bit per slab the thread may hold
    /// Detached: the candidates SlabHeap::reclaim checks for a slab that
    /// holds only the owner's pin. Set by a detach, cleared by a relink or
    /// a check that finds the slab elsewhere. A clear bit is exact once
    /// `detached_known`; attach and recovery start unknown, and the next
    /// reclaim scans the heap's owner words.
    std::vector<std::uint64_t> detached[2];
    bool detached_known[2] = {false, false};
    /// Where the next single-candidate reclaim check starts (round robin).
    std::uint32_t detached_cursor[2] = {0, 0};

    /// Allocates the next CAS version.
    std::uint16_t
    next_version()
    {
        version = (version + 1) & cxlsync::kVersionMask;
        return version;
    }
};

} // namespace cxlalloc
