/// @file
/// Pod topology: N hosts x M memory devices and the per-(host, device)
/// edge-cost matrix that routes every memory operation (see
/// docs/POD_TOPOLOGY.md).
///
/// Substitution note: a real CXL pod wires hosts to multi-headed devices
/// through a fabric where distance is not uniform — a host reaches its
/// directly-attached head in one hop, other heads through switches (more
/// latency, less bandwidth), and in sparse Octopus-style pods some heads
/// not at all. This class models exactly that: a dense matrix of
/// cxl::EdgeCost entries, where an edge's extra read/write/bandwidth cost
/// rides on top of the base LatencyModel and `reachable == false` means
/// there is no wire.
///
/// Offsets carry their device id in the high window bits (cxl::Device
/// windows/window_bits), so routing an offset is a shift — no table lookup
/// on the access path. The topology *shape* (who is wired to what, at what
/// cost) is immutable after construction and shared read-only by every
/// session; runtime edge *health* (cxl::EdgeState Up/Suspect/Down + epoch)
/// lives in a shared side table that copies of the Topology alias, so the
/// fault layer can degrade an edge and every session/allocator handle
/// observes it.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cxl/types.h"

namespace pod {

using HostId = std::uint16_t;

/// Maximum hosts in a pod (bounded by thread slots: every host needs room
/// for at least one thread).
inline constexpr std::uint32_t kMaxHosts = 16;

/// An immutable N-host x M-device reachability/latency/bandwidth matrix.
class Topology {
  public:
    /// The 1x1 pod: one host, one device, zero-cost edge — how a single
    /// host runs.
    Topology() : Topology(1, 1) {}

    /// A pod of @p hosts x @p devices with every edge reachable at zero
    /// extra cost. Edit edges via edge() before wiring sessions.
    Topology(std::uint32_t hosts, std::uint32_t devices);

    /// Dense preset: every host reaches every device. The device nearest
    /// to a host (its directly-attached head, devices spread evenly over
    /// hosts) costs @p near; every other edge costs @p far.
    static Topology dense(std::uint32_t hosts, std::uint32_t devices,
                          const cxl::EdgeCost& near,
                          const cxl::EdgeCost& far);

    /// Octopus-style sparse preset: host h reaches only @p arms devices —
    /// its nearest head at @p near cost plus the following arms-1 heads
    /// (mod devices) at @p far. Every other edge is unreachable.
    static Topology octopus(std::uint32_t hosts, std::uint32_t devices,
                            std::uint32_t arms, const cxl::EdgeCost& near,
                            const cxl::EdgeCost& far);

    /// Tiered preset: @p base plus one host-private local-DRAM device per
    /// host. DRAM device h' = base.devices() + h is reachable only from
    /// host h, at zero edge cost (the base LatencyModel carries the DRAM
    /// latency; CXL edges carry the fabric adders on top), and is tagged
    /// cxl::MemTier::LocalDram so capacity placement skips it — only the
    /// allocator's explicit tiering policy lands there. Requires
    /// base.devices() + base.hosts() <= cxl::kMaxDevices.
    static Topology with_local_dram(const Topology& base);

    std::uint32_t hosts() const { return hosts_; }
    std::uint32_t devices() const { return devices_; }

    /// True for the 1 host x 1 device pod, whose sessions skip per-access
    /// routing (there is one zero-cost edge to route over).
    bool trivial() const { return hosts_ == 1 && devices_ == 1; }

    cxl::EdgeCost&
    edge(HostId host, cxl::DeviceId device)
    {
        return edges_[index(host, device)];
    }

    const cxl::EdgeCost&
    edge(HostId host, cxl::DeviceId device) const
    {
        return edges_[index(host, device)];
    }

    bool
    reachable(HostId host, cxl::DeviceId device) const
    {
        return edge(host, device).reachable;
    }

    /// Host @p host's full edge row (devices() entries) — what
    /// cxl::MemSession::set_pod_routing consumes. Stable for the lifetime
    /// of the Topology.
    const cxl::EdgeCost*
    row(HostId host) const
    {
        return &edges_[index(host, 0)];
    }

    /// The host's home device: its cheapest reachable CXL-tier edge (ties
    /// to the lowest device id). First-touch placement allocates here.
    /// LocalDram edges never qualify — a private DRAM window must not
    /// silently absorb placement meant for the shared fabric.
    cxl::DeviceId home_of(HostId host) const;

    /// Every CXL-tier device reachable from @p host, cheapest edge first
    /// (home at the front): the allocator's placement-then-steal probe
    /// order. LocalDram devices are excluded (see home_of).
    std::vector<cxl::DeviceId> placement_order(HostId host) const;

    /// Host @p host's private local-DRAM device, or devices() when the
    /// topology has no DRAM tier for it.
    cxl::DeviceId dram_device_of(HostId host) const;

    /// True when any host has a reachable LocalDram edge.
    bool has_dram_tier() const;

    /// Tier of @p device: the tier tag of any reachable edge to it (all
    /// reachable edges of one device agree by construction). A device no
    /// host reaches reports Cxl.
    cxl::MemTier tier_of(cxl::DeviceId device) const;

    // ---- Runtime edge health (fault layer; see pod/faults.h). ----
    //
    // The health table is allocated once per constructed topology and
    // SHARED by copies (PodConfig takes the Topology by value, so the
    // handle a bench keeps and the Pod's own copy must observe the same
    // faults). The mutators are const: they touch runtime health, never
    // the immutable shape.

    /// Current health of the (host, device) edge. Up for edges no one has
    /// ever degraded; statically-unreachable edges report whatever state
    /// was set (callers should consult reachable() first).
    cxl::EdgeState
    edge_state(HostId host, cxl::DeviceId device) const
    {
        return static_cast<cxl::EdgeState>(
            (*state_)[index(host, device)].state.load(
                std::memory_order_acquire));
    }

    /// Monotonic transition count of the edge: bumped on every
    /// set_edge_state, so two observations with equal epoch bracket a
    /// flap-free window.
    std::uint64_t
    edge_epoch(HostId host, cxl::DeviceId device) const
    {
        return (*state_)[index(host, device)].epoch.load(
            std::memory_order_acquire);
    }

    /// Transitions the edge's runtime health and bumps its epoch. Safe to
    /// call concurrently with readers on the access path (they see either
    /// state); no-op-free — setting the current state still bumps the
    /// epoch (a flap that recovered before anyone looked is still a flap).
    void
    set_edge_state(HostId host, cxl::DeviceId device,
                   cxl::EdgeState state) const
    {
        cxl::EdgeStateCell& cell = (*state_)[index(host, device)];
        cell.epoch.fetch_add(1, std::memory_order_acq_rel);
        cell.state.store(static_cast<std::uint8_t>(state),
                         std::memory_order_release);
    }

    /// Host @p host's runtime-health row (devices() entries), the
    /// companion of row() that cxl::MemSession::set_pod_routing consumes.
    /// Stable for the lifetime of the Topology and all its copies.
    const cxl::EdgeStateCell*
    state_row(HostId host) const
    {
        return &(*state_)[index(host, 0)];
    }

    /// The device nearest to @p host when heads are spread evenly over
    /// hosts (the presets' "directly attached" assignment).
    static cxl::DeviceId
    nearest_device(HostId host, std::uint32_t hosts, std::uint32_t devices)
    {
        return static_cast<cxl::DeviceId>(
            (static_cast<std::uint32_t>(host) * devices) / hosts);
    }

  private:
    std::size_t
    index(HostId host, cxl::DeviceId device) const
    {
        return static_cast<std::size_t>(host) * devices_ + device;
    }

    std::uint32_t hosts_;
    std::uint32_t devices_;
    std::vector<cxl::EdgeCost> edges_;
    /// Runtime edge-health cells, index()-addressed like edges_. Shared
    /// (not deep-copied) by Topology copies — see the class comment.
    std::shared_ptr<std::vector<cxl::EdgeStateCell>> state_;
};

} // namespace pod
