/// @file
/// Machine-readable snapshot export: JSON (schema "cxlalloc-metrics-v1"),
/// plus the one-line percentile summary benches print per row.
///
/// JSON shape:
///   {
///     "schema": "cxlalloc-metrics-v1",
///     "counters":   {"mem.loads": 123, ...},
///     "gauges":     {"run.sim_ns_max": 4.5e6, ...},
///     "histograms": {"alloc.ns": {"count":N,"min":..,"max":..,"mean":..,
///                    "p50":..,"p90":..,"p99":..,"p999":..,
///                    "buckets":[[lower,count],...nonzero only]}},
///     "trace":      [{"op":"alloc","shard":3,"start_ns":..,"dur_ns":..,
///                     "arg":64}, ...]
///   }

#pragma once

#include <string>

#include "obs/registry.h"

namespace obs {

/// Serializes @p snap as pretty-stable JSON (sorted by insertion order).
std::string to_json(const MetricsSnapshot& snap);

/// "p50=… p90=… p99=… p99.9=…" (values in ns) for bench rows.
std::string summary(const Histogram& h);

/// Writes @p contents to @p path; returns false (with a stderr note) on
/// any I/O failure.
bool write_file(const std::string& path, const std::string& contents);

} // namespace obs
