/// @file
/// Shared geometry of the app suites' single-host cxlalloc bundles: 4 MiB
/// small, 8 MiB large and 32 MiB huge data, plus @p extra_bytes of extra
/// region (bucket arrays, structure metadata).

#pragma once

#include "harness/bundles.h"

namespace apptest {

inline bench::Geometry
small_geometry(std::uint64_t extra_bytes = 0)
{
    bench::Geometry geom;
    geom.small_slabs = 128;
    geom.large_slabs = 16;
    geom.huge_regions = 8;
    geom.huge_region_size = 4 << 20;
    geom.extra_bytes = extra_bytes;
    return geom;
}

} // namespace apptest
