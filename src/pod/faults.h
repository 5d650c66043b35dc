/// @file
/// Deterministic pod fault injection: declarative FaultPlans (edge-down,
/// edge-flap, NMP doorbell stall/delay, host-kill) driven by a step clock,
/// plus the pod's fault points in the central point registry
/// (pod/crashpoint.h, kind PointKind::Fault).
///
/// Where crash points name the *protocol* points a thread can die at,
/// fault points name the *infrastructure* faults the pod must survive:
/// link health transitions, engine stalls, whole-host deaths. Sweep tests
/// iterate CrashPointRegistry::all(PointKind::Fault) and inject every
/// point mid-workload (FaultPlan::for_point), asserting the accounting
/// oracles hold after recovery — exactly the discipline the crashpoint
/// sweeps established for §5.1 thread crashes.
///
/// Determinism and sched composability: a FaultInjector owns a logical
/// step clock advanced by the workload (step() between operations), so a
/// plan's events fire at exact, replayable points in the op stream — no
/// wall-clock, no racing timer thread. Every firing passes through
/// sched::hook with the fault point id, so under the schedule explorer a
/// fault is one more yield the explorer can order against every other
/// thread's yields: "every fault at any chosen yield" falls out of the
/// explorer's existing interleaving search.
///
/// The injector *applies* edge and NMP faults directly (they are pure
/// state flips on the shared Topology health table / Nmp engine). A
/// host-kill only latches a flag: threads of a simulated host are host-
/// side constructs owned by the harness, so the harness observes
/// host_killed() and crashes them (Pod::mark_crashed per context, or
/// Pod::mark_host_crashed for contexts that are simply gone) — after
/// which the LivenessDetector notices the missed leases and drives
/// adoption + recovery.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cxl/types.h"
#include "pod/crashpoint.h"
#include "pod/topology.h"

namespace pod {

class Pod;

/// The pod-level fault points. Ids 50+ keep clear of the allocator's
/// crashpoints (single digits), memento's app points, and the migrator's
/// 30-35 block — fault ids ride the same sched::Op::CrashPoint hook aux
/// channel, and the registry aborts on a collision.
namespace faultpoint {

inline constexpr CrashPointId kEdgeDown = 50; ///< edge drops, stays Down
inline constexpr CrashPointId kEdgeFlap = 51; ///< edge drops, later recovers
inline constexpr CrashPointId kNmpStall = 52; ///< doorbells unanswered
inline constexpr CrashPointId kNmpDelay = 53; ///< doorbells answered slowly
inline constexpr CrashPointId kHostKill = 54; ///< whole host dies

} // namespace faultpoint

/// Registers the pod fault points with CrashPointRegistry as
/// PointKind::Fault (idempotent; called by the FaultInjector constructor).
void register_fault_points();

/// The injectable fault kinds, one per registered fault point.
enum class FaultKind : std::uint8_t {
    EdgeDown, ///< (host, device) edge -> Down, no scheduled recovery
    EdgeFlap, ///< edge -> Down, back -> Up after recover_after steps
    NmpStall, ///< next `count` working doorbells unanswered
    NmpDelay, ///< next `count` doorbells answered `delay_ns` late
    HostKill, ///< host dies: harness crashes its threads, leases stop
};

CrashPointId fault_point_of(FaultKind kind);

/// One scripted fault of a FaultPlan.
struct FaultEvent {
    FaultKind kind = FaultKind::EdgeDown;
    /// Edge coordinates (EdgeDown/EdgeFlap) or the victim (HostKill).
    HostId host = 0;
    cxl::DeviceId device = 0;
    /// Injector step at which the fault fires (steps count from 1: the
    /// n-th step() call fires events with at_step == n).
    std::uint64_t at_step = 0;
    /// EdgeFlap: steps after firing at which the edge returns to Up.
    std::uint64_t recover_after = 0;
    /// NmpStall/NmpDelay: doorbells covered.
    std::uint32_t count = 1;
    /// NmpDelay: extra simulated ns per covered doorbell.
    std::uint64_t delay_ns = 0;
};

/// A declarative, deterministic fault script: events fire in at_step
/// order as the injector's clock advances. Builder methods return *this
/// so storms read as one expression.
struct FaultPlan {
    std::vector<FaultEvent> events;

    FaultPlan& edge_down(HostId host, cxl::DeviceId device,
                         std::uint64_t at_step);
    FaultPlan& edge_flap(HostId host, cxl::DeviceId device,
                         std::uint64_t at_step, std::uint64_t down_for);
    FaultPlan& nmp_stall(std::uint64_t at_step, std::uint32_t doorbells);
    FaultPlan& nmp_delay(std::uint64_t at_step, std::uint64_t extra_ns,
                         std::uint32_t doorbells);
    FaultPlan& host_kill(HostId host, std::uint64_t at_step);

    /// Sweep helper: the canonical single-event plan for a registered
    /// fault point (sane defaults: flaps recover after 4 steps, stalls
    /// cover 2 doorbells, delays add 500 ns). Aborts on unknown ids.
    static FaultPlan for_point(CrashPointId point, HostId host,
                               cxl::DeviceId device, std::uint64_t at_step);
};

/// Applies a FaultPlan against one Pod on a deterministic step clock.
class FaultInjector {
  public:
    FaultInjector(Pod& pod, FaultPlan plan);

    /// Advances the fault clock one step and fires every event (and every
    /// scheduled flap recovery) that is due. Call between workload
    /// operations; under the sched explorer each firing is a yield.
    void step();

    /// Steps taken so far.
    std::uint64_t now() const { return now_; }

    /// Events fired so far.
    std::uint64_t fired() const { return fired_; }

    /// True once every event has fired and every flap has recovered.
    bool done() const;

    /// True once a HostKill event for @p host has fired. The harness is
    /// responsible for actually crashing the host's threads (see the file
    /// comment); this flag is how workers learn their host died.
    bool host_killed(HostId host) const { return killed_[host]; }

  private:
    void fire(const FaultEvent& event);

    struct PendingRecover {
        std::uint64_t at_step = 0;
        HostId host = 0;
        cxl::DeviceId device = 0;
    };

    Pod& pod_;
    std::vector<FaultEvent> events_; ///< sorted by at_step, stable
    std::size_t next_event_ = 0;
    std::vector<PendingRecover> recovers_;
    std::uint64_t now_ = 0;
    std::uint64_t fired_ = 0;
    std::array<bool, kMaxHosts> killed_{};
};

} // namespace pod
