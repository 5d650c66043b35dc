/// @file
/// The block-accounting audit (paper §5.1 runtime invariant check) as one
/// typed report; check_invariants is "audit, and panic unless ok". Needs a
/// quiescent heap whose owners' dirty lines are written back (TESTING.md
/// §2); the walk refetches each descriptor before reading it.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cxl/types.h"

namespace cxlalloc {

enum class AuditHeap : std::uint8_t { Small, Large, Huge };

/// The laws, in walk order.
enum class AuditLaw : std::uint8_t {
    /// The global free list is acyclic, in range, and holds only unowned,
    /// classless slabs in state Global.
    GlobalList,
    /// Each thread's unsized and sized lists are acyclic, in range and its
    /// own: unsized slabs classless and TlUnsized, as many as its stored
    /// count; sized slabs TlSized, of the list's class and not full, each
    /// prev naming its predecessor and the head's the tail.
    LocalList,
    /// A slab has at most one entry across the lines of one thread's
    /// pending row.
    PendingEntry,
    /// A Global, TlUnsized or TlSized slab below the heap length is on
    /// exactly one list; any other slab is on none.
    SlabHome,
    /// A classed slab's free counter equals its bitset popcount.
    FreeCounter,
    /// A classed slab's remote-free counter minus the frees pending for it
    /// in every thread's pending row is >= its free counter: the
    /// difference is its live blocks, and less means a double free. Only
    /// classed, in-range slabs have pending frees.
    RemoteBalance,
    /// Huge descriptor lists are acyclic, and each allocated descriptor
    /// lies in the huge data region, in a region its list's thread owns.
    HugeDesc,
};

struct AuditViolation {
    cxl::DeviceId shard = 0;
    AuditHeap heap = AuditHeap::Small;
    std::uint32_t slab = 0; ///< descriptor index in the huge heap
    AuditLaw law = AuditLaw::GlobalList;
    const char* what = ""; ///< the quantity compared
    std::uint64_t expected = 0;
    std::uint64_t actual = 0;
};

struct AuditReport {
    std::vector<AuditViolation> violations;
    /// Sum over classed slabs of (remote-free counter - pending frees -
    /// free counter).
    std::uint64_t live_blocks = 0;
    /// Remote frees accepted but not yet landed: the blocks in every
    /// thread's pending row (NoHwcc; drain_pending / cleanup land them).
    std::uint64_t pending_frees = 0;
    /// Frees parked behind a Down edge (PodShardedAllocator::audit only).
    std::uint64_t parked_frees = 0;

    bool ok() const { return violations.empty(); }
    /// A summary line, then one line per violation.
    std::string to_string() const;
    /// Panics with to_string() unless ok().
    void require_ok() const;
};

} // namespace cxlalloc
