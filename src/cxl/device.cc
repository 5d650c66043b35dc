#include "cxl/device.h"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

#include "common/assert.h"
#include "common/cacheline.h"

namespace cxl {

const char*
to_string(CoherenceMode mode)
{
    switch (mode) {
      case CoherenceMode::FullHwcc:
        return "full-hwcc";
      case CoherenceMode::PartialHwcc:
        return "partial-hwcc";
      case CoherenceMode::NoHwcc:
        return "no-hwcc(mcas)";
    }
    return "?";
}

Device::Device(const DeviceConfig& config)
    : config_(config)
{
    CXL_FATAL_IF(config_.size == 0, "device size must be nonzero");
    CXL_FATAL_IF(config_.size % kPageSize != 0,
                 "device size must be page aligned");
    CXL_FATAL_IF(config_.windows == 0, "device needs at least one window");
    CXL_FATAL_IF(config_.windows > kMaxDevices,
                 "more windows than kMaxDevices");
    // The smallest window holding size / windows bytes; several windows
    // must tile the device exactly (size is page aligned, so bits >= 12).
    std::uint64_t per_window = config_.size / config_.windows;
    while ((std::uint64_t{1} << window_bits_) < per_window) {
        window_bits_++;
    }
    CXL_FATAL_IF(config_.windows > 1 &&
                     config_.size != (static_cast<std::uint64_t>(
                                          config_.windows)
                                      << window_bits_),
                 "multi-window device size must be windows << window bits");
    CXL_FATAL_IF(config_.sync_region_size > config_.size / config_.windows,
                 "sync region larger than a window");
    // A fresh device is zero-filled: cxlalloc relies on zeroed memory being
    // a valid, initialized heap (paper §4). mmap gives that for free and
    // commits pages lazily — a pod arena reserves its whole size in address
    // space but only pages the workload touches cost physical memory.
#if defined(__unix__) || defined(__APPLE__)
    void* map = ::mmap(nullptr, config_.size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map != MAP_FAILED) {
        arena_ = static_cast<std::byte*>(map);
        arena_map_len_ = config_.size;
    }
#endif
    if (arena_ == nullptr) {
        arena_heap_ = std::make_unique<std::byte[]>(config_.size);
        std::memset(arena_heap_.get(), 0, config_.size);
        arena_ = arena_heap_.get();
    }
    std::uint64_t pages = config_.size / kPageSize;
    commit_bitmap_ = std::vector<std::atomic<std::uint64_t>>((pages + 63) / 64);
    for (auto& word : commit_bitmap_) {
        word.store(0, std::memory_order_relaxed);
    }
}

Device::~Device()
{
#if defined(__unix__) || defined(__APPLE__)
    if (arena_map_len_ != 0) {
        ::munmap(arena_, arena_map_len_);
    }
#endif
}

void
Device::note_committed(HeapOffset offset, std::uint64_t len)
{
    CXL_ASSERT(offset + len <= config_.size, "commit past end of device");
    std::uint64_t first = offset / kPageSize;
    std::uint64_t last = (offset + len + kPageSize - 1) / kPageSize;
    for (std::uint64_t page = first; page < last; page++) {
        auto& word = commit_bitmap_[page / 64];
        std::uint64_t bit = std::uint64_t{1} << (page % 64);
        std::uint64_t prev = word.fetch_or(bit, std::memory_order_relaxed);
        if (!(prev & bit)) {
            committed_pages_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

void
Device::note_decommitted(HeapOffset offset, std::uint64_t len)
{
    // Only whole pages inside the range can be returned.
    std::uint64_t first = (offset + kPageSize - 1) / kPageSize;
    std::uint64_t last = (offset + len) / kPageSize;
    for (std::uint64_t page = first; page < last; page++) {
        auto& word = commit_bitmap_[page / 64];
        std::uint64_t bit = std::uint64_t{1} << (page % 64);
        std::uint64_t prev = word.fetch_and(~bit, std::memory_order_relaxed);
        if (prev & bit) {
            committed_pages_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
}

std::uint64_t
Device::committed_bytes() const
{
    return committed_pages_.load(std::memory_order_relaxed) * kPageSize;
}

void
Device::reset_commit_accounting()
{
    for (auto& word : commit_bitmap_) {
        word.store(0, std::memory_order_relaxed);
    }
    committed_pages_.store(0, std::memory_order_relaxed);
}

} // namespace cxl
