/// @file
/// Benchmark-side support: the shared allocator-bundle harness (kept in the
/// library so tests reuse the same construction paths) plus the common
/// command-line surface every bench binary exposes:
///
///   --metrics-json <path>   dump a machine-readable registry snapshot
///   --smoke                 shrink the run matrix (CI smoke tests)
///   --pod                   run the multi-host pod variant (benches that
///                           support one; see docs/POD_TOPOLOGY.md)
///
/// Passing --metrics-json turns on bundle instrumentation
/// (bench::bundle_metrics), so un-flagged runs keep uninstrumented hot
/// paths.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/bundles.h"
#include "obs/export.h"

namespace bench {

struct Options {
    std::string metrics_json;
    bool smoke = false;
    bool pod = false;
};

inline Options
parse_options(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto path_arg = [&](const char* flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a path argument\n", flag);
                std::exit(2);
            }
            return std::string(argv[++i]);
        };
        if (a == "--metrics-json") {
            o.metrics_json = path_arg("--metrics-json");
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--pod") {
            o.pod = true;
        } else {
            std::fprintf(stderr,
                         "unknown argument '%s' (supported: --metrics-json "
                         "<path>, --smoke, --pod)\n",
                         a.c_str());
            std::exit(2);
        }
    }
    if (!o.metrics_json.empty()) {
        bundle_metrics() = &obs::MetricsRegistry::global();
    }
    return o;
}

/// Dumps the global registry snapshot to the path requested in @p o.
/// Call once, at the end of main().
inline void
finish_metrics(const Options& o)
{
    if (bundle_metrics() == nullptr) {
        return;
    }
    if (obs::write_file(o.metrics_json,
                        obs::to_json(bundle_metrics()->snapshot()))) {
        std::printf("metrics: wrote JSON snapshot to %s\n",
                    o.metrics_json.c_str());
    }
}

} // namespace bench
