/// @file
/// Introspection CLI for the simulator's instrumentation inventory.
///
///   cxlalloc_inspect --list-crashpoints
///   cxlalloc_inspect --list-faultpoints
///
/// prints every registered crash-injection (resp. pod fault-injection)
/// point — one registry, filtered by PointKind — as `id<TAB>name<TAB>site`,
/// one per line, sorted by id. Sweep scripts iterate this instead of
/// hard-coding point numbers, so adding a point to any layer automatically
/// widens every sweep — crash points cover where a *thread* can die
/// mid-protocol, fault points cover which *infrastructure* failures (edge
/// down/flap, NMP stall/delay, host kill) a storm can inject (see
/// pod/faults.h).

#include <cstring>
#include <iostream>

#include "cxlalloc/migrate.h"
#include "cxlalloc/recovery.h"
#include "memento/recoverable_map.h"
#include "memento/recoverable_queue.h"
#include "pod/crashpoint.h"
#include "pod/faults.h"

namespace {

int
list_points(pod::PointKind kind)
{
    for (const pod::CrashPointInfo& point :
         pod::CrashPointRegistry::instance().all(kind)) {
        std::cout << point.id << '\t' << point.name << '\t' << point.site
                  << '\n';
    }
    return 0;
}

int
list_crashpoints()
{
    // Pull in every layer's points without building heaps.
    cxlalloc::register_crash_points();
    cxlalloc::register_migrate_crash_points();
    memento::register_queue_crash_points();
    memento::register_map_crash_points();

    return list_points(pod::PointKind::Crash);
}

int
list_faultpoints()
{
    pod::register_fault_points();
    return list_points(pod::PointKind::Fault);
}

void
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " --list-crashpoints | --list-faultpoints\n";
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--list-crashpoints") == 0) {
        return list_crashpoints();
    }
    if (argc == 2 && std::strcmp(argv[1], "--list-faultpoints") == 0) {
        return list_faultpoints();
    }
    usage(argv[0]);
    return argc == 2 && std::strcmp(argv[1], "--help") == 0 ? 0 : 2;
}
