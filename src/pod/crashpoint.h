/// @file
/// Central injection-point registry: id -> (name, site, kind).
///
/// Injection points are plain ints so the pod layer stays below the layers
/// that define them (the allocator's §5.1 points, memento's application
/// points, the pod's fault points). Each defining layer registers its
/// points here — idempotently, from its subsystem's constructor or an
/// explicit register_*_points() call — so sweeps and tools can iterate
/// every point by *name* instead of hard-coding magic numbers, and failure
/// messages can say "slab.mid_push_global" instead of "7". Crash and fault
/// points share one id space (faults fire through the crash-point hook).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pod {

/// Identifies an instrumented crash injection point. The allocator and
/// applications define named constants; the pod layer treats them
/// opaquely.
using CrashPointId = int;

/// What a registered point injects.
enum class PointKind : std::uint8_t {
    Crash, ///< a thread dies there (ThreadContext::maybe_crash)
    Fault, ///< an infrastructure fault (pod::FaultInjector)
};

struct CrashPointInfo {
    CrashPointId id = 0;
    /// Stable dotted name, e.g. "slab.mid_push_global".
    std::string name;
    /// Human-readable site, e.g. "SlabHeap::push_global_one".
    std::string site;
    PointKind kind = PointKind::Crash;
};

/// Process-wide registry. Registration is idempotent (re-registering the
/// same point is a no-op) so every subsystem instance may register its
/// points unconditionally; a *conflicting* re-registration (same id,
/// different name or kind) aborts — ids are a global namespace.
class CrashPointRegistry {
  public:
    static CrashPointRegistry& instance();

    void add(CrashPointId id, std::string_view name, std::string_view site,
             PointKind kind = PointKind::Crash);

    /// Null if the id was never registered.
    const CrashPointInfo* find(CrashPointId id) const;

    /// Null if no point has this name.
    const CrashPointInfo* find_name(std::string_view name) const;

    /// Every registered point of @p kind, sorted by id.
    std::vector<CrashPointInfo> all(PointKind kind) const;

  private:
    // Storage is a function-local map in crashpoint.cc: node-based (find()
    // results stay valid across add()) and immune to static-init order.
    CrashPointRegistry() = default;
};

/// Registered name of @p id, or "crashpoint:<id>" for unknown points.
std::string crashpoint_name(CrashPointId id);

} // namespace pod
