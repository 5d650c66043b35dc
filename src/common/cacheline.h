/// @file
/// Cacheline-related constants shared by the SWcc cache model and the
/// allocator's flush/fence accounting.

#pragma once

#include <cstddef>
#include <cstdint>

namespace cxlcommon {

/// Size of one cacheline, the coherence granularity of a CXL pod.
inline constexpr std::size_t kCacheLine = 64;

/// log2(kCacheLine), for shift-based line arithmetic.
inline constexpr unsigned kCacheLineBits = 6;

/// Rounds @p offset down to its containing cacheline boundary.
constexpr std::uint64_t
line_of(std::uint64_t offset)
{
    return offset & ~static_cast<std::uint64_t>(kCacheLine - 1);
}

/// Rounds @p n up to a multiple of @p align (a power of two).
constexpr std::uint64_t
align_up(std::uint64_t n, std::uint64_t align)
{
    return (n + align - 1) & ~(align - 1);
}

} // namespace cxlcommon
