/// @file
/// The simulated multi-headed CXL memory device.
///
/// Substitution note (see DESIGN.md §2): the paper's device is a real
/// multi-headed CXL module shared by hosts over PCIe. Here the device is a
/// single in-process arena; coherence semantics (HWcc region, SWcc region,
/// device-biased region) are enforced by MemSession/ThreadCache on top of
/// this class, and atomicity by std::atomic_ref on arena words. The device
/// is assumed reliable (paper §2.1 failure model): its contents survive
/// simulated process crashes because the arena outlives them.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cxl/types.h"

namespace cxl {

/// Static configuration of the device.
struct DeviceConfig {
    /// Total capacity in bytes (must be page-aligned). With windows > 1
    /// this must equal windows << k for some k (the window bits).
    std::uint64_t size = 256ULL << 20;

    /// Coherence support.
    CoherenceMode mode = CoherenceMode::PartialHwcc;

    /// Bytes at the start of the device (of each window, when windowed)
    /// that support inter-host atomics: the HWcc region (PartialHwcc) or
    /// device-biased region (NoHwcc). Ignored under FullHwcc (the whole
    /// device is coherent).
    std::uint64_t sync_region_size = 16ULL << 20;

    /// When true, per-thread SWcc caches are simulated so that stale reads
    /// are deterministically observable. When false, accesses go straight
    /// to the arena (fast path for benchmarks); flush/fence are counted.
    bool simulate_cache = false;

    /// The arena is partitioned into `windows` equal power-of-two windows,
    /// one per pod memory device; the device id of an offset is its high
    /// bits (cxl::pod_device_of). The window bits derive from size: a
    /// single window spans the next power of two >= size (so any page
    /// multiple is a valid one-device pod), several must tile size
    /// exactly. Each window carries its own sync-region prefix, so every
    /// device contributes HWcc (or device-biased) words for the metadata
    /// that lives on it.
    std::uint32_t windows = 1;
};

/// The shared memory device: a flat byte arena plus commit accounting.
/// The one arena models all of the pod's device heads — offsets stay
/// globally unique (PC-S across hosts holds by construction) and the window
/// high bits carry the device id.
class Device {
  public:
    explicit Device(const DeviceConfig& config);
    ~Device();

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const DeviceConfig& config() const { return config_; }
    std::uint64_t size() const { return config_.size; }
    CoherenceMode mode() const { return config_.mode; }

    /// Number of device windows (one per pod memory device).
    std::uint32_t windows() const { return config_.windows; }
    /// log2 of the window size, derived from the config (see DeviceConfig).
    std::uint32_t window_bits() const { return window_bits_; }

    /// Device id owning @p offset (0 on a single-window device).
    DeviceId
    device_of(HeapOffset offset) const
    {
        return pod_device_of(offset, window_bits_);
    }

    /// First offset of window @p device.
    HeapOffset
    window_base(DeviceId device) const
    {
        return static_cast<HeapOffset>(device) << window_bits_;
    }

    /// True if @p offset lies in the region where inter-host atomics work
    /// (HWcc or device-biased, depending on mode): a prefix of every
    /// window.
    bool
    in_sync_region(HeapOffset offset) const
    {
        if (config_.mode == CoherenceMode::FullHwcc) {
            return true;
        }
        return pod_local_of(offset, window_bits_) < config_.sync_region_size;
    }

    /// Raw pointer into the arena. Callers outside MemSession should only
    /// use this for bulk application data, never for shared metadata.
    std::byte*
    raw(HeapOffset offset)
    {
        return arena_ + offset;
    }

    const std::byte*
    raw(HeapOffset offset) const
    {
        return arena_ + offset;
    }

    /// Marks the pages covering [offset, offset+len) as committed (backed
    /// by device DRAM). Idempotent; used for the PSS-analog memory report.
    void note_committed(HeapOffset offset, std::uint64_t len);

    /// Marks the pages fully inside [offset, offset+len) as returned to
    /// the device (the MADV_REMOVE analog, paper §3.3.1): the virtual
    /// mapping may remain, but the backing memory is no longer charged.
    void note_decommitted(HeapOffset offset, std::uint64_t len);

    /// Total committed bytes (unique pages touched across the pod).
    std::uint64_t committed_bytes() const;

    /// Returns committed accounting to zero (between benchmark trials).
    void reset_commit_accounting();

  private:
    DeviceConfig config_;
    std::uint32_t window_bits_ = 0;
    /// Arena storage: mmap'd (lazy-zero, so a 16-window pod arena costs
    /// physical memory only for pages actually touched) with a new[]
    /// fallback; `arena_` is the base either way.
    std::byte* arena_ = nullptr;
    std::unique_ptr<std::byte[]> arena_heap_;
    std::uint64_t arena_map_len_ = 0;
    /// One bit per page; atomic words so threads can commit concurrently.
    std::vector<std::atomic<std::uint64_t>> commit_bitmap_;
    std::atomic<std::uint64_t> committed_pages_{0};
};

} // namespace cxl
