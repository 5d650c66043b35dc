#include "pod/faults.h"

#include <algorithm>

#include "common/assert.h"
#include "pod/pod.h"
#include "sched/hook.h"

namespace pod {

void
register_fault_points()
{
    CrashPointRegistry& r = CrashPointRegistry::instance();
    constexpr PointKind kFault = PointKind::Fault;
    r.add(faultpoint::kEdgeDown, "fault.edge_down",
          "Topology::set_edge_state(Down)", kFault);
    r.add(faultpoint::kEdgeFlap, "fault.edge_flap",
          "Topology::set_edge_state(Down..Up)", kFault);
    r.add(faultpoint::kNmpStall, "fault.nmp_stall", "Nmp::inject_stall",
          kFault);
    r.add(faultpoint::kNmpDelay, "fault.nmp_delay", "Nmp::inject_delay",
          kFault);
    r.add(faultpoint::kHostKill, "fault.host_kill",
          "FaultInjector::host_killed", kFault);
}

CrashPointId
fault_point_of(FaultKind kind)
{
    switch (kind) {
    case FaultKind::EdgeDown: return faultpoint::kEdgeDown;
    case FaultKind::EdgeFlap: return faultpoint::kEdgeFlap;
    case FaultKind::NmpStall: return faultpoint::kNmpStall;
    case FaultKind::NmpDelay: return faultpoint::kNmpDelay;
    case FaultKind::HostKill: return faultpoint::kHostKill;
    }
    CXL_PANIC("unknown fault kind");
}

// ------------------------------------------------------------- FaultPlan

FaultPlan&
FaultPlan::edge_down(HostId host, cxl::DeviceId device,
                     std::uint64_t at_step)
{
    events.push_back(FaultEvent{.kind = FaultKind::EdgeDown, .host = host,
                                .device = device, .at_step = at_step});
    return *this;
}

FaultPlan&
FaultPlan::edge_flap(HostId host, cxl::DeviceId device,
                     std::uint64_t at_step, std::uint64_t down_for)
{
    CXL_ASSERT(down_for > 0, "flap must stay down for at least one step");
    events.push_back(FaultEvent{.kind = FaultKind::EdgeFlap, .host = host,
                                .device = device, .at_step = at_step,
                                .recover_after = down_for});
    return *this;
}

FaultPlan&
FaultPlan::nmp_stall(std::uint64_t at_step, std::uint32_t doorbells)
{
    events.push_back(FaultEvent{.kind = FaultKind::NmpStall,
                                .at_step = at_step, .count = doorbells});
    return *this;
}

FaultPlan&
FaultPlan::nmp_delay(std::uint64_t at_step, std::uint64_t extra_ns,
                     std::uint32_t doorbells)
{
    events.push_back(FaultEvent{.kind = FaultKind::NmpDelay,
                                .at_step = at_step, .count = doorbells,
                                .delay_ns = extra_ns});
    return *this;
}

FaultPlan&
FaultPlan::host_kill(HostId host, std::uint64_t at_step)
{
    events.push_back(FaultEvent{.kind = FaultKind::HostKill, .host = host,
                                .at_step = at_step});
    return *this;
}

FaultPlan
FaultPlan::for_point(CrashPointId point, HostId host, cxl::DeviceId device,
                     std::uint64_t at_step)
{
    FaultPlan plan;
    switch (point) {
    case faultpoint::kEdgeDown:
        return plan.edge_down(host, device, at_step);
    case faultpoint::kEdgeFlap:
        return plan.edge_flap(host, device, at_step, /*down_for=*/4);
    case faultpoint::kNmpStall:
        return plan.nmp_stall(at_step, /*doorbells=*/2);
    case faultpoint::kNmpDelay:
        return plan.nmp_delay(at_step, /*extra_ns=*/500, /*doorbells=*/2);
    case faultpoint::kHostKill:
        return plan.host_kill(host, at_step);
    default:
        CXL_PANIC("FaultPlan::for_point: unknown fault point");
    }
}

// --------------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(Pod& pod, FaultPlan plan)
    : pod_(pod), events_(std::move(plan.events))
{
    register_fault_points();
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at_step < b.at_step;
                     });
    for (const FaultEvent& e : events_) {
        CXL_ASSERT(e.at_step > 0, "fault events fire at step >= 1");
        switch (e.kind) {
        case FaultKind::EdgeDown:
        case FaultKind::EdgeFlap:
            CXL_ASSERT(e.host < pod_.topology().hosts() &&
                           e.device < pod_.topology().devices(),
                       "fault edge outside the topology");
            break;
        case FaultKind::HostKill:
            CXL_ASSERT(e.host < pod_.topology().hosts(),
                       "fault host outside the topology");
            break;
        default:
            break;
        }
    }
}

void
FaultInjector::fire(const FaultEvent& event)
{
    // The hook makes the fault a schedule point: under the explorer, WHEN
    // this fires relative to every other thread's yields is part of the
    // explored interleaving space.
    sched::hook(sched::Op::CrashPoint,
                static_cast<std::uint64_t>(fault_point_of(event.kind)), 1);
    const Topology& topo = pod_.topology();
    switch (event.kind) {
    case FaultKind::EdgeDown:
        topo.set_edge_state(event.host, event.device, cxl::EdgeState::Down);
        break;
    case FaultKind::EdgeFlap:
        topo.set_edge_state(event.host, event.device, cxl::EdgeState::Down);
        recovers_.push_back(PendingRecover{
            .at_step = now_ + event.recover_after, .host = event.host,
            .device = event.device});
        break;
    case FaultKind::NmpStall:
        pod_.nmp().inject_stall(event.count);
        break;
    case FaultKind::NmpDelay:
        pod_.nmp().inject_delay(event.delay_ns, event.count);
        break;
    case FaultKind::HostKill:
        killed_[event.host] = true;
        break;
    }
    fired_++;
}

void
FaultInjector::step()
{
    now_++;
    while (next_event_ < events_.size() &&
           events_[next_event_].at_step <= now_) {
        fire(events_[next_event_]);
        next_event_++;
    }
    // Flap recoveries due this step (firing can append, so index loop).
    for (std::size_t i = 0; i < recovers_.size();) {
        if (recovers_[i].at_step <= now_) {
            sched::hook(sched::Op::CrashPoint,
                        static_cast<std::uint64_t>(faultpoint::kEdgeFlap),
                        0);
            pod_.topology().set_edge_state(recovers_[i].host,
                                           recovers_[i].device,
                                           cxl::EdgeState::Up);
            recovers_.erase(recovers_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        } else {
            i++;
        }
    }
}

bool
FaultInjector::done() const
{
    return next_event_ == events_.size() && recovers_.empty();
}

} // namespace pod
