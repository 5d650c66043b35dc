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
/// A thread's NoHwcc pending lines in one slab heap (slab_heap.h).
struct PendingRow;

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

    /// NoHwcc pending rows on the host ([large heap]), null until their
    /// first use. Each row is loaded from the device on its first use and
    /// kept from then on, so appends and drains read no pending line back
    /// (SlabHeap::host_row). Attach and recovery start without one.
    /// Complete where a ThreadState is destroyed (slab_heap.h).
    std::unique_ptr<PendingRow[]> pending;

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
