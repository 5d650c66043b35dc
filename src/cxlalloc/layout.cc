#include "cxlalloc/layout.h"

#include "common/assert.h"
#include "common/cacheline.h"
#include "sync/hazard_offsets.h"

namespace cxlalloc {

using cxlcommon::align_up;

const char*
to_string(SlabState s)
{
    switch (s) {
      case SlabState::Unmapped:
        return "unmapped";
      case SlabState::Global:
        return "global";
      case SlabState::TlUnsized:
        return "tl-unsized";
      case SlabState::TlSized:
        return "tl-sized";
      case SlabState::Detached:
        return "detached";
      case SlabState::Disowned:
        return "disowned";
    }
    return "?";
}

Layout::Layout(const Config& config)
    : config_(config)
{
    CXL_FATAL_IF(config.small_slabs == 0 || config.large_slabs == 0 ||
                     config.huge_regions == 0,
                 "heap capacities must be nonzero");
    CXL_FATAL_IF(config.huge_region_size % cxl::kPageSize != 0,
                 "huge region size must be page aligned");
    CXL_FATAL_IF(config.base % cxl::kPageSize != 0,
                 "layout base must be page aligned");

    constexpr std::uint32_t kRows = cxl::kMaxThreads + 1;

    // ---- HWcc region: everything synchronization-bearing, packed first.
    // Offset base+0 is reserved (for the base-0 heap a null HeapOffset
    // must never name live data; pod shards keep the window head free so
    // all shards are congruent), so the help array starts one cacheline in.
    HeapOffset at = config.base + cxlcommon::kCacheLine;
    help_array_ = at;
    at += kRows * 8;
    small_global_ = at;
    at += 16; // len + free
    large_global_ = at;
    at += 16;
    huge_reservations_ = at;
    at += static_cast<HeapOffset>(config.huge_regions) * 8;
    small_hwcc_desc_ = at;
    at += static_cast<HeapOffset>(config.small_slabs) * 8;
    large_hwcc_desc_ = at;
    at += static_cast<HeapOffset>(config.large_slabs) * 8;
    app_sync_ = align_up(at, cxlcommon::kCacheLine);
    at = app_sync_ + align_up(config.app_sync_bytes, cxlcommon::kCacheLine);
    hwcc_end_ = align_up(at, cxl::kPageSize);

    // ---- SWcc metadata.
    at = hwcc_end_;
    recovery_rows_ = at;
    at += kRows * 64;
    small_local_ = at;
    at += kRows * kLocalStride;
    large_local_ = at;
    at += kRows * kLocalStride;
    small_pending_ = at;
    at += kRows * kSmallPendingLines * kPendingStride;
    large_pending_ = at;
    at += kRows * kPendingStride;
    huge_local_ = at;
    at += kRows * 64;
    hazard_table_ = at;
    at += cxlsync::HazardOffsets::footprint(config.hazard_slots_per_thread);
    at = align_up(at, cxlcommon::kCacheLine);
    small_swcc_desc_ = at;
    at += static_cast<HeapOffset>(config.small_slabs) * kSmallDescStride;
    large_swcc_desc_ = at;
    at += static_cast<HeapOffset>(config.large_slabs) * kLargeDescStride;
    huge_desc_pool_ = at;
    at += static_cast<HeapOffset>(huge_desc_count()) * HugeDescField::kStride;

    // ---- Data regions (page aligned; each one models a virtual address
    // space reservation from paper Fig. 2).
    small_data_ = align_up(at, cxl::kPageSize);
    large_data_ = small_data_ +
                  static_cast<HeapOffset>(config.small_slabs) * kSmallSlabSize;
    huge_data_ = large_data_ +
                 static_cast<HeapOffset>(config.large_slabs) * kLargeSlabSize;
    end_ = huge_data_ + static_cast<HeapOffset>(config.huge_regions) *
                            config.huge_region_size;
}

cxl::DeviceConfig
Layout::device_config(cxl::CoherenceMode mode, bool simulate_cache) const
{
    cxl::DeviceConfig dev;
    dev.size = align_up(end_ - config_.base, cxl::kPageSize);
    dev.mode = mode;
    dev.sync_region_size = hwcc_end_ - config_.base;
    dev.simulate_cache = simulate_cache;
    return dev;
}

} // namespace cxlalloc
