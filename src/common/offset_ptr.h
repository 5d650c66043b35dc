/// @file
/// Offset pointers (paper §2.3): the pointer-alternative that provides
/// spatial pointer consistency (PC-S) across processes. A HeapOffset is a
/// plain 64-bit byte offset into the shared device/heap, resolved against
/// a per-process base. It is the representation the allocator trades in
/// and what applications should store in shared data structures.

#pragma once

#include <cstdint>

namespace cxlcommon {

/// A byte offset into the shared heap. Offset 0 is reserved as null; the
/// heap layout guarantees no allocation is ever handed out at offset 0.
using HeapOffset = std::uint64_t;

} // namespace cxlcommon
