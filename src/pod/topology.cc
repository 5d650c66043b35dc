#include "pod/topology.h"

#include <algorithm>

#include "common/assert.h"

namespace pod {

namespace {

/// Total order on edge cost for home selection and steal ordering: a
/// simple per-line round+write sum plus the bandwidth term. Unreachable
/// edges sort last (and are filtered out before use anyway).
std::uint64_t
edge_weight(const cxl::EdgeCost& e)
{
    if (!e.reachable) {
        return ~std::uint64_t{0};
    }
    return static_cast<std::uint64_t>(e.read_add_ns) + e.write_add_ns +
           e.ns_per_kib;
}

} // namespace

Topology::Topology(std::uint32_t hosts, std::uint32_t devices)
    : hosts_(hosts), devices_(devices)
{
    CXL_FATAL_IF(hosts == 0 || hosts > kMaxHosts, "host count out of range");
    CXL_FATAL_IF(devices == 0 || devices > cxl::kMaxDevices,
                 "device count out of range");
    edges_.resize(static_cast<std::size_t>(hosts) * devices);
    state_ = std::make_shared<std::vector<cxl::EdgeStateCell>>(edges_.size());
}

Topology
Topology::dense(std::uint32_t hosts, std::uint32_t devices,
                const cxl::EdgeCost& near, const cxl::EdgeCost& far)
{
    CXL_FATAL_IF(!near.reachable || !far.reachable,
                 "dense preset edges must be reachable");
    Topology t(hosts, devices);
    for (std::uint32_t h = 0; h < hosts; h++) {
        cxl::DeviceId mine =
            nearest_device(static_cast<HostId>(h), hosts, devices);
        for (std::uint32_t d = 0; d < devices; d++) {
            t.edge(static_cast<HostId>(h), static_cast<cxl::DeviceId>(d)) =
                d == mine ? near : far;
        }
    }
    return t;
}

Topology
Topology::octopus(std::uint32_t hosts, std::uint32_t devices,
                  std::uint32_t arms, const cxl::EdgeCost& near,
                  const cxl::EdgeCost& far)
{
    CXL_FATAL_IF(arms == 0 || arms > devices,
                 "octopus arms must be 1..devices");
    CXL_FATAL_IF(!near.reachable || !far.reachable,
                 "octopus preset arm edges must be reachable");
    Topology t(hosts, devices);
    cxl::EdgeCost unreachable;
    unreachable.reachable = false;
    for (std::uint32_t h = 0; h < hosts; h++) {
        cxl::DeviceId mine =
            nearest_device(static_cast<HostId>(h), hosts, devices);
        for (std::uint32_t d = 0; d < devices; d++) {
            t.edge(static_cast<HostId>(h), static_cast<cxl::DeviceId>(d)) =
                unreachable;
        }
        for (std::uint32_t a = 0; a < arms; a++) {
            auto d = static_cast<cxl::DeviceId>((mine + a) % devices);
            t.edge(static_cast<HostId>(h), d) = a == 0 ? near : far;
        }
    }
    return t;
}

Topology
Topology::with_local_dram(const Topology& base)
{
    CXL_FATAL_IF(base.devices() + base.hosts() > cxl::kMaxDevices,
                 "no device ids left for per-host DRAM windows");
    Topology t(base.hosts(), base.devices() + base.hosts());
    cxl::EdgeCost unreachable;
    unreachable.reachable = false;
    for (std::uint32_t h = 0; h < base.hosts(); h++) {
        for (std::uint32_t d = 0; d < t.devices(); d++) {
            t.edge(static_cast<HostId>(h), static_cast<cxl::DeviceId>(d)) =
                d < base.devices()
                    ? base.edge(static_cast<HostId>(h),
                                static_cast<cxl::DeviceId>(d))
                    : unreachable;
        }
        // The host's own DRAM window: reachable, zero edge cost (the base
        // LatencyModel is the DRAM latency; CXL edges add the fabric gap).
        cxl::EdgeCost dram;
        dram.tier = cxl::MemTier::LocalDram;
        t.edge(static_cast<HostId>(h),
               static_cast<cxl::DeviceId>(base.devices() + h)) = dram;
    }
    return t;
}

cxl::DeviceId
Topology::dram_device_of(HostId host) const
{
    CXL_ASSERT(host < hosts_, "host id out of range");
    for (std::uint32_t d = 0; d < devices_; d++) {
        const cxl::EdgeCost& e = edge(host, static_cast<cxl::DeviceId>(d));
        if (e.reachable && e.tier == cxl::MemTier::LocalDram) {
            return static_cast<cxl::DeviceId>(d);
        }
    }
    return static_cast<cxl::DeviceId>(devices_);
}

bool
Topology::has_dram_tier() const
{
    for (std::uint32_t h = 0; h < hosts_; h++) {
        if (dram_device_of(static_cast<HostId>(h)) < devices_) {
            return true;
        }
    }
    return false;
}

cxl::MemTier
Topology::tier_of(cxl::DeviceId device) const
{
    CXL_ASSERT(device < devices_, "device id out of range");
    for (std::uint32_t h = 0; h < hosts_; h++) {
        const cxl::EdgeCost& e = edge(static_cast<HostId>(h), device);
        if (e.reachable) {
            return e.tier;
        }
    }
    return cxl::MemTier::Cxl;
}

cxl::DeviceId
Topology::home_of(HostId host) const
{
    CXL_ASSERT(host < hosts_, "host id out of range");
    cxl::DeviceId best = 0;
    std::uint64_t best_weight = ~std::uint64_t{0};
    bool found = false;
    for (std::uint32_t d = 0; d < devices_; d++) {
        const cxl::EdgeCost& e = edge(host, static_cast<cxl::DeviceId>(d));
        if (!e.reachable || e.tier != cxl::MemTier::Cxl) {
            continue;
        }
        std::uint64_t w = edge_weight(e);
        if (!found || w < best_weight) {
            best = static_cast<cxl::DeviceId>(d);
            best_weight = w;
            found = true;
        }
    }
    CXL_FATAL_IF(!found, "host reaches no device at all");
    return best;
}

std::vector<cxl::DeviceId>
Topology::placement_order(HostId host) const
{
    CXL_ASSERT(host < hosts_, "host id out of range");
    std::vector<cxl::DeviceId> order;
    for (std::uint32_t d = 0; d < devices_; d++) {
        const cxl::EdgeCost& e = edge(host, static_cast<cxl::DeviceId>(d));
        if (e.reachable && e.tier == cxl::MemTier::Cxl) {
            order.push_back(static_cast<cxl::DeviceId>(d));
        }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](cxl::DeviceId a, cxl::DeviceId b) {
                         return edge_weight(edge(host, a)) <
                                edge_weight(edge(host, b));
                     });
    return order;
}

} // namespace pod
