/// @file
/// Shared-memory layout of the cxlalloc heap (paper Fig. 2).
///
/// Two properties drive the layout:
///  1. HWcc metadata is minimized and packed into its own contiguous region
///     at the front of the device so that limited-HWcc (or device-biased
///     mCAS) configurations only need coherence over a small prefix
///     (paper §3.2).
///  2. All-zero memory is a valid, empty heap (paper §4): every list link
///     stores index + 1 (0 = none), thread id 0 means "no owner", length 0
///     means "no slabs", and the huge descriptor "allocated" flag is
///     0 = free. No process ever runs an initialization step; the first
///     allocation finds a consistent empty heap.
///
/// Every process computes this layout from the same Config, so a heap
/// offset names the same object everywhere (PC-S by construction).

#pragma once

#include <cstdint>

#include "cxl/device.h"
#include "cxl/types.h"
#include "cxlalloc/size_class.h"

namespace cxlalloc {

using cxl::HeapOffset;

/// User-tunable heap geometry.
struct Config {
    /// Capacity of the small heap in 32 KiB slabs.
    std::uint32_t small_slabs = 2048; // 64 MiB of small data

    /// Capacity of the large heap in 512 KiB slabs.
    std::uint32_t large_slabs = 128; // 64 MiB of large data

    /// Number of coarse-grained huge-heap virtual address regions tracked
    /// by the reservation array (paper HugeGlobal.reservations).
    std::uint32_t huge_regions = 64;

    /// Bytes per huge region. One region backs one or more huge
    /// allocations (>= 512 KiB each).
    std::uint64_t huge_region_size = 8ULL << 20; // 512 MiB of huge space

    /// Huge descriptors available per thread.
    std::uint32_t huge_descs_per_thread = 128;

    /// Hazard offset slots per thread (bounds mappings held concurrently).
    std::uint32_t hazard_slots_per_thread = 16;

    /// When false, the cxlalloc-nonrecoverable ablation: recovery records
    /// are not written and plain CAS replaces detectable CAS (paper §5.2).
    bool recoverable = true;

    /// Thread-local unsized free lists longer than this spill slabs to the
    /// global free list ("configurable threshold length", paper §3.1.1).
    std::uint32_t unsized_limit = 4;

    /// Bytes of application HWcc space carved out at the tail of the sync
    /// region (app_sync()): reference cells and other words the app needs
    /// plain atomics/CAS on under PartialHwcc/NoHwcc. 0 (the default)
    /// keeps the layout byte-identical to pre-tiering configs.
    std::uint64_t app_sync_bytes = 0;

    /// Tiering policy (PodShardedAllocator only; ignored by a single
    /// heap): percentage of eligible allocations (small ones, <=
    /// kSmallMax) the per-thread tier credit steers to the host's
    /// local-DRAM shard when the topology has one. 0 (the default)
    /// disables the DRAM tier even on tiered topologies.
    std::uint32_t dram_percent = 0;

    /// Device offset the layout starts at (page-aligned). 0 is a heap at
    /// the front of the device (window 0); a pod shard sets this to its
    /// device window's base so every derived offset carries the window's
    /// device id in its high bits (PC-S still holds: all processes compute
    /// the same layout from the same Config).
    HeapOffset base = 0;
};

/// Slab descriptor geometry (SWccDesc, paper Fig. 3). Field offsets within
/// one descriptor:
///   +0  next   u32  (index + 1, 0 = none: intrusive free-list link)
///   +4  owner  u16  (ThreadId; 0 = no owner)
///   +6  class  u8   (size class + 1; 0 = none)
///   +7  state  u8   (SlabState; 0 = Unmapped)
///   +8  hint   u16  (first possibly-nonempty bitset word)
///   +10 free   u16  (owner-maintained count of set bitset bits; makes
///        full/empty transition checks O(1) instead of O(words). Zeroed
///        memory is still a valid empty heap: 0 free blocks matches an
///        all-zero bitset. Rebuilt from the bitset by crash recovery.)
///   +12 prev   u32  (index + 1, sized lists only: the predecessor,
///        except that a list head names the tail, so a lone head names
///        itself; owner-only list state, rebuilt by crash recovery)
///   +16 free bitset (u64 words; bit set = block free)
///
/// The slab heap reads and writes the middle eight bytes as two u32 words
/// (little-endian, so each field keeps its offset):
///   - the *owner word* (+4): owner | class << 16 | state << 24;
///   - the *count word* (+8): hint | free << 16.
/// Each fast path touches each word at most once:
///   - allocate loads the sized-list head, the count word and the bitset
///     word the scan stops at; it stores the record, that bitset word and
///     the count word (hint and counter in one store);
///   - a local free loads the owner word (owner, class and state at once),
///     the bitset word (the double-free test's load feeds the update) and
///     the count word; it stores the record, the bitset word and the count
///     word. Emptying a slab adds the next and prev loads of the
///     shares-class test;
///   - every list edit ends with one owner-word store: a relink or Init
///     (caller, class, TlSized), a detach (caller, class, Detached), a
///     disown (none, class, Disowned), a recycle or steal (caller, none,
///     TlUnsized), a push to the global list (none, none, Global).
struct DescField {
    static constexpr std::uint64_t kNext = 0;
    static constexpr std::uint64_t kOwner = 4;
    static constexpr std::uint64_t kClass = 6;
    static constexpr std::uint64_t kState = 7;
    static constexpr std::uint64_t kHint = 8;
    static constexpr std::uint64_t kFree = 10;
    static constexpr std::uint64_t kBitset = 16;
    /// The owner word: owner, class and state as one u32.
    static constexpr std::uint64_t kOwnerWord = kOwner;
    /// The count word: hint and free counter as one u32.
    static constexpr std::uint64_t kCountWord = kHint;
};

/// Life-cycle states of a slab (paper Fig. 4). Stored in SWcc metadata by
/// the owner; 0 must be the state of a never-used (zeroed) descriptor.
enum class SlabState : std::uint8_t {
    Unmapped = 0,  ///< past the heap length
    Global = 1,    ///< on the global free list (no owner)
    TlUnsized = 2, ///< on the owner's unsized free list
    TlSized = 3,   ///< on the owner's sized free list (non-full)
    Detached = 4,  ///< full, owned, unlinked
    Disowned = 5,  ///< full of remote frees, unowned, unlinked
};

const char* to_string(SlabState s);

/// Huge descriptor geometry (paper Fig. 5 HugeDesc). 32 bytes:
///   +0  next   u32 (index + 1, 0 = none: link in the owner's descriptor
///        list)
///   +4  flags  u32 (bit0: allocated, bit1: free-requested)
///   +8  offset u64 (start of the backing mapping, device offset)
///   +16 size   u64 (mapping length in bytes)
///   +24 gen    u32 (generation: each allocation that fills the descriptor
///        bumps it, mod 2^28, so a HugeFree record names the allocation it
///        frees, not a later one in the same descriptor)
///   +28 pad
struct HugeDescField {
    static constexpr std::uint64_t kNext = 0;
    static constexpr std::uint64_t kFlags = 4;
    static constexpr std::uint64_t kOffset = 8;
    static constexpr std::uint64_t kSize = 16;
    static constexpr std::uint64_t kGen = 24;
    static constexpr std::uint64_t kStride = 32;

    static constexpr std::uint32_t kFlagAllocated = 1u << 0;
    static constexpr std::uint32_t kFlagFree = 1u << 1;
    static constexpr std::uint32_t kGenMask = (1u << 28) - 1;
};

/// All heap offsets, derived deterministically from a Config.
class Layout {
  public:
    explicit Layout(const Config& config);

    const Config& config() const { return config_; }

    /// First device offset of the layout (Config::base).
    HeapOffset base() const { return config_.base; }

    /// Device configuration that fits this layout: total size and the sync
    /// (HWcc / device-biased) region size, both relative to base() (a
    /// based layout describes one window of a pod device, whose sync
    /// prefix is per-window).
    cxl::DeviceConfig
    device_config(cxl::CoherenceMode mode, bool simulate_cache = false) const;

    // ---- HWcc region ----

    /// Detectable-CAS help array entry for @p tid.
    HeapOffset help_array() const { return help_array_; }

    /// Small heap length (detectable-CAS word; value = number of slabs).
    HeapOffset small_len() const { return small_global_; }
    /// Small heap global free list head (dcas word; value = index + 1).
    HeapOffset small_free() const { return small_global_ + 8; }
    HeapOffset large_len() const { return large_global_; }
    HeapOffset large_free() const { return large_global_ + 8; }

    /// Huge reservation array entry @p region (dcas word; value = owner
    /// ThreadId, 0 = unclaimed).
    HeapOffset
    huge_reservation(std::uint32_t region) const
    {
        return huge_reservations_ + static_cast<HeapOffset>(region) * 8;
    }

    /// Per-slab HWcc descriptor (dcas word; value = remote-free
    /// down-counter) — the paper's HWccDesc.remote, widened to 8 B by the
    /// detectable-CAS tag (§3.4.2).
    HeapOffset
    small_hwcc_desc(std::uint32_t slab) const
    {
        return small_hwcc_desc_ + static_cast<HeapOffset>(slab) * 8;
    }

    HeapOffset
    large_hwcc_desc(std::uint32_t slab) const
    {
        return large_hwcc_desc_ + static_cast<HeapOffset>(slab) * 8;
    }

    /// Application HWcc space (Config::app_sync_bytes; reference cells the
    /// app CASes). Equals hwcc_end() when none was requested.
    HeapOffset app_sync() const { return app_sync_; }

    /// End of the HWcc region; hwcc_end() - base() = required
    /// sync_region_size.
    HeapOffset hwcc_end() const { return hwcc_end_; }

    /// Total bytes of HWcc memory this layout consumes (the paper's "HWcc
    /// memory" metric, §5.2.1).
    std::uint64_t hwcc_bytes() const { return hwcc_end_ - config_.base; }

    // ---- SWcc metadata ----

    /// Per-thread recovery row (64 B): +0 the 8-byte operation record.
    HeapOffset
    recovery_row(cxl::ThreadId tid) const
    {
        return recovery_rows_ + static_cast<HeapOffset>(tid) * 64;
    }

    /// Per-thread SmallLocal: +0 unsized head (u32 raw), +4 sized heads
    /// (u32 raw each, indexed by class).
    HeapOffset
    small_local(cxl::ThreadId tid) const
    {
        return small_local_ + static_cast<HeapOffset>(tid) * kLocalStride;
    }

    HeapOffset
    large_local(cxl::ThreadId tid) const
    {
        return large_local_ + static_cast<HeapOffset>(tid) * kLocalStride;
    }

    /// Per-thread pending remote-free row of the small (resp. large) slab
    /// heap: kSmallPendingLines (resp. one) owner-only SWcc lines, each a
    /// SlabHeap PendingList. All zero is the empty row.
    HeapOffset
    small_pending(cxl::ThreadId tid) const
    {
        return small_pending_ + static_cast<HeapOffset>(tid) *
                                    kSmallPendingLines * kPendingStride;
    }

    HeapOffset
    large_pending(cxl::ThreadId tid) const
    {
        return large_pending_ + static_cast<HeapOffset>(tid) * kPendingStride;
    }

    /// Per-thread HugeLocal: +0 descriptor list head (u32 index + 1).
    HeapOffset
    huge_local(cxl::ThreadId tid) const
    {
        return huge_local_ + static_cast<HeapOffset>(tid) * 64;
    }

    /// Hazard offset table base (see cxlsync::HazardOffsets).
    HeapOffset hazard_table() const { return hazard_table_; }

    /// SWcc descriptor of small slab @p slab.
    HeapOffset
    small_swcc_desc(std::uint32_t slab) const
    {
        return small_swcc_desc_ +
               static_cast<HeapOffset>(slab) * kSmallDescStride;
    }

    HeapOffset
    large_swcc_desc(std::uint32_t slab) const
    {
        return large_swcc_desc_ +
               static_cast<HeapOffset>(slab) * kLargeDescStride;
    }

    /// Huge descriptor @p index (global index; thread t owns indices
    /// [t * descs_per_thread, (t+1) * descs_per_thread)).
    HeapOffset
    huge_desc(std::uint32_t index) const
    {
        return huge_desc_pool_ +
               static_cast<HeapOffset>(index) * HugeDescField::kStride;
    }

    std::uint32_t
    huge_desc_count() const
    {
        return (cxl::kMaxThreads + 1) * config_.huge_descs_per_thread;
    }

    // ---- Data regions ----

    HeapOffset small_data() const { return small_data_; }
    HeapOffset large_data() const { return large_data_; }
    HeapOffset huge_data() const { return huge_data_; }
    HeapOffset end() const { return end_; }

    HeapOffset
    small_slab_data(std::uint32_t slab) const
    {
        return small_data_ + static_cast<HeapOffset>(slab) * kSmallSlabSize;
    }

    HeapOffset
    large_slab_data(std::uint32_t slab) const
    {
        return large_data_ + static_cast<HeapOffset>(slab) * kLargeSlabSize;
    }

    HeapOffset
    huge_region_data(std::uint32_t region) const
    {
        return huge_data_ +
               static_cast<HeapOffset>(region) * config_.huge_region_size;
    }

    /// True if @p offset lies in the small (resp. large, huge) data region.
    bool in_small_data(HeapOffset offset) const
    {
        return offset >= small_data_ && offset < large_data_;
    }
    bool in_large_data(HeapOffset offset) const
    {
        return offset >= large_data_ && offset < huge_data_;
    }
    bool in_huge_data(HeapOffset offset) const
    {
        return offset >= huge_data_ && offset < end_;
    }

    /// Stride of one per-thread local row (shared by small/large locals).
    static constexpr HeapOffset kLocalStride = 128;

    /// Stride of one pending remote-free line: one cacheline, so every
    /// rewrite of a line is one line store.
    static constexpr HeapOffset kPendingStride = 64;

    /// Pending lines per thread in the small heap (the large heap has one):
    /// more lines keep a slab's entry long enough to coalesce its blocks.
    static constexpr std::uint32_t kSmallPendingLines = 4;

    /// SWcc descriptor strides: header (16 B) + free bitset.
    static constexpr HeapOffset kSmallDescStride = 576; // 16 + 512, 64-align
    static constexpr HeapOffset kLargeDescStride = 64;  // 16 + 48

  private:
    Config config_;

    HeapOffset help_array_;
    HeapOffset small_global_;
    HeapOffset large_global_;
    HeapOffset huge_reservations_;
    HeapOffset small_hwcc_desc_;
    HeapOffset large_hwcc_desc_;
    HeapOffset app_sync_;
    HeapOffset hwcc_end_;

    HeapOffset recovery_rows_;
    HeapOffset small_local_;
    HeapOffset large_local_;
    HeapOffset small_pending_;
    HeapOffset large_pending_;
    HeapOffset huge_local_;
    HeapOffset hazard_table_;
    HeapOffset small_swcc_desc_;
    HeapOffset large_swcc_desc_;
    HeapOffset huge_desc_pool_;

    HeapOffset small_data_;
    HeapOffset large_data_;
    HeapOffset huge_data_;
    HeapOffset end_;
};

} // namespace cxlalloc
