/// @file
/// Pod topology: offset<->device window encoding, dense/octopus presets,
/// home/placement-order policy, per-window sync regions, and session-level
/// routing (local/remote accounting, window-span and reachability guards).

#include <gtest/gtest.h>

#include <memory>

#include "cxl/types.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace {

using cxl::EdgeCost;
using pod::HostId;
using pod::Pod;
using pod::PodConfig;
using pod::Topology;

EdgeCost
far_edge()
{
    EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    e.ns_per_kib = 4;
    return e;
}

// ---------------------------------------------------------------------------
// Offset encoding

TEST(PodEncoding, RoundTripsAcrossWindowSizes)
{
    for (std::uint32_t bits : {12u, 16u, 24u, 40u}) {
        for (cxl::DeviceId dev : {0, 1, 7, 15}) {
            for (std::uint64_t local :
                 {std::uint64_t{0}, std::uint64_t{63},
                  (std::uint64_t{1} << bits) - 1}) {
                cxl::HeapOffset off =
                    (static_cast<cxl::HeapOffset>(dev) << bits) | local;
                EXPECT_EQ(cxl::pod_device_of(off, bits), dev);
                EXPECT_EQ(cxl::pod_local_of(off, bits), local);
            }
        }
    }
}

TEST(PodEncoding, SingleWindowDeviceOfAnySizeRoutesToDeviceZero)
{
    // A one-device pod need not be a power of two: its window spans the
    // next power of two >= size, so every offset routes to device 0 and
    // the sync prefix reads exactly as the device-wide boundary.
    cxl::DeviceConfig dc;
    dc.size = 3ull << 16; // 192 KiB: window bits 18
    dc.sync_region_size = 4096;
    cxl::Device dev(dc);
    EXPECT_EQ(dev.windows(), 1u);
    EXPECT_EQ(dev.window_bits(), 18u);
    EXPECT_EQ(dev.window_base(0), 0u);
    for (cxl::HeapOffset off :
         {cxl::HeapOffset{0}, cxl::HeapOffset{4095}, cxl::HeapOffset{4096},
          (cxl::HeapOffset{1} << 16) + 8, dc.size - 1}) {
        EXPECT_EQ(dev.device_of(off), 0);
        EXPECT_EQ(dev.in_sync_region(off), off < dc.sync_region_size);
    }
}

TEST(PodEncoding, DeviceWindowsPartitionTheArena)
{
    cxl::DeviceConfig dc;
    dc.windows = 4;
    dc.size = 4ull << 16;
    dc.sync_region_size = 4096;
    cxl::Device dev(dc);
    EXPECT_EQ(dev.windows(), 4u);
    EXPECT_EQ(dev.window_bits(), 16u);
    EXPECT_EQ(dev.device_of(0), 0);
    EXPECT_EQ(dev.device_of((1ull << 16) - 1), 0);
    EXPECT_EQ(dev.device_of(1ull << 16), 1);
    EXPECT_EQ(dev.device_of(dc.size - 1), 3);
    EXPECT_EQ(dev.window_base(2), 2ull << 16);
    // Each window has its own sync prefix.
    for (cxl::DeviceId d = 0; d < 4; d++) {
        EXPECT_TRUE(dev.in_sync_region(dev.window_base(d)));
        EXPECT_TRUE(dev.in_sync_region(dev.window_base(d) + 4095));
        EXPECT_FALSE(dev.in_sync_region(dev.window_base(d) + 4096));
    }
}

TEST(PodEncodingDeathTest, MisshapenWindowConfigDies)
{
    // Several windows must tile the device exactly: 3 << 16 over 4 windows
    // (48 KiB each) and over 2 (96 KiB each) are no power of two.
    cxl::DeviceConfig dc;
    dc.windows = 4;
    dc.size = 3ull << 16;
    EXPECT_DEATH(cxl::Device dev(dc), "windows");
    dc.windows = 2;
    EXPECT_DEATH(cxl::Device dev(dc), "windows");
    // The same size over 3 windows tiles 64 KiB windows exactly.
    dc.windows = 3;
    dc.sync_region_size = 4096;
    cxl::Device ok(dc);
    EXPECT_EQ(ok.window_bits(), 16u);
}

// ---------------------------------------------------------------------------
// Topology presets and placement policy

TEST(Topology, DenseReachesEverythingNearestIsHome)
{
    Topology t = Topology::dense(4, 4, EdgeCost{}, far_edge());
    for (HostId h = 0; h < 4; h++) {
        for (cxl::DeviceId d = 0; d < 4; d++) {
            EXPECT_TRUE(t.reachable(h, d));
        }
        EXPECT_EQ(t.home_of(h), h); // 4 hosts over 4 devices: 1:1
        auto order = t.placement_order(h);
        ASSERT_EQ(order.size(), 4u);
        EXPECT_EQ(order.front(), t.home_of(h));
    }
    // Hosts sharing a device when hosts > devices.
    Topology wide = Topology::dense(8, 4, EdgeCost{}, far_edge());
    EXPECT_EQ(wide.home_of(0), 0);
    EXPECT_EQ(wide.home_of(1), 0);
    EXPECT_EQ(wide.home_of(7), 3);
}

TEST(Topology, OctopusArmsLimitReach)
{
    Topology t = Topology::octopus(4, 4, /*arms=*/2, EdgeCost{}, far_edge());
    for (HostId h = 0; h < 4; h++) {
        auto order = t.placement_order(h);
        EXPECT_EQ(order.size(), 2u);
        EXPECT_EQ(order.front(), t.home_of(h));
        std::uint32_t reachable = 0;
        for (cxl::DeviceId d = 0; d < 4; d++) {
            reachable += t.reachable(h, d) ? 1 : 0;
        }
        EXPECT_EQ(reachable, 2u);
    }
    // arms=1: only the nearest head.
    Topology one = Topology::octopus(4, 4, 1, EdgeCost{}, far_edge());
    EXPECT_EQ(one.placement_order(2).size(), 1u);
    EXPECT_EQ(one.home_of(2), 2);
}

TEST(Topology, PlacementOrderSortsByEdgeWeight)
{
    Topology t(1, 3);
    t.edge(0, 0).read_add_ns = 500;
    t.edge(0, 1).read_add_ns = 10;
    t.edge(0, 2).read_add_ns = 100;
    EXPECT_EQ(t.home_of(0), 1);
    auto order = t.placement_order(0);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 0);
}

TEST(TopologyDeathTest, HostWithNoReachableDeviceDies)
{
    Topology t(2, 2);
    t.edge(1, 0).reachable = false;
    t.edge(1, 1).reachable = false;
    EXPECT_DEATH(t.home_of(1), "reaches no device");
}

// ---------------------------------------------------------------------------
// Session routing through the topology

struct RoutedPod {
    explicit RoutedPod(Topology topo)
    {
        PodConfig pc;
        pc.device.windows = topo.devices();
        pc.device.size = static_cast<std::uint64_t>(topo.devices()) << 16;
        pc.device.sync_region_size = 4096;
        pc.topology = topo;
        pod = std::make_unique<Pod>(pc);
    }

    std::unique_ptr<Pod> pod;
};

TEST(PodRouting, CountsLocalAndRemoteAccessesPerEdge)
{
    RoutedPod rig(Topology::dense(2, 2, EdgeCost{}, far_edge()));
    auto* p0 = rig.pod->create_process(0);
    auto t0 = rig.pod->create_thread(p0);
    EXPECT_EQ(t0->mem().home_device(), 0);
    EXPECT_EQ(t0->mem().pod_host(), 0u);

    t0->mem().store<std::uint64_t>(8, 1);              // window 0: local
    t0->mem().store<std::uint64_t>((1ull << 16) + 8, 2); // window 1: remote
    t0->mem().load<std::uint64_t>(16);                  // local

    const auto& c = t0->mem().counters();
    EXPECT_EQ(c.pod_local, 2u);
    EXPECT_EQ(c.pod_remote, 1u);
}

TEST(PodRouting, EdgeCostsChargeSimTime)
{
    Topology topo = Topology::dense(2, 2, EdgeCost{}, far_edge());
    RoutedPod rig(topo);
    auto* p0 = rig.pod->create_process(0);
    auto t0 = rig.pod->create_thread(p0);
    cxl::LatencyModel model = cxl::LatencyModel::cxl_hwcc();
    t0->mem().set_latency_model(&model);

    t0->mem().load<std::uint64_t>(0);
    std::uint64_t local_ns = t0->mem().sim_ns();
    t0->mem().load<std::uint64_t>(1ull << 16);
    std::uint64_t after_remote = t0->mem().sim_ns();
    // The far edge adds read_add_ns (plus byte cost) on top of base CXL.
    EXPECT_GE(after_remote - local_ns, local_ns + far_edge().read_add_ns);
}

TEST(PodRouting, SecondHostHasItsOwnHome)
{
    RoutedPod rig(Topology::dense(2, 2, EdgeCost{}, far_edge()));
    auto* p1 = rig.pod->create_process(1);
    auto t1 = rig.pod->create_thread(p1);
    EXPECT_EQ(t1->mem().home_device(), 1);
    t1->mem().store<std::uint64_t>((1ull << 16) + 8, 1);
    EXPECT_EQ(t1->mem().counters().pod_local, 1u);
    EXPECT_EQ(t1->mem().counters().pod_remote, 0u);
}

TEST(PodRouting, UnreachableWindowRejectsAccess)
{
    // Octopus with one arm: host 0 is wired to device 0 only; touching
    // window 1 is rejected deterministically, never misrouted. Since the
    // fault layer the rejection is a typed recoverable error, and the
    // exception distinguishes "no wire" from "wired edge currently Down".
    RoutedPod rig(Topology::octopus(2, 2, 1, EdgeCost{}, far_edge()));
    auto* p0 = rig.pod->create_process(0);
    auto t0 = rig.pod->create_thread(p0);
    t0->mem().store<std::uint64_t>(8, 1); // home window: fine
    try {
        t0->mem().load<std::uint64_t>(1ull << 16);
        FAIL() << "unwired access did not throw";
    } catch (const cxl::EdgeDownError& e) {
        EXPECT_EQ(e.device(), 1);
        EXPECT_FALSE(e.wired());
    }
    EXPECT_EQ(t0->mem().counters().pod_edge_down, 1u);
}

TEST(PodRoutingDeathTest, WindowSpanningAccessDies)
{
    RoutedPod rig(Topology::dense(2, 2, EdgeCost{}, far_edge()));
    auto* p0 = rig.pod->create_process(0);
    auto t0 = rig.pod->create_thread(p0);
    std::uint8_t buf[16] = {};
    EXPECT_DEATH(t0->mem().write_bytes((1ull << 16) - 8, buf, 16), "spans");
}

TEST(PodRoutingDeathTest, HostOutOfRangeDies)
{
    RoutedPod rig(Topology::dense(2, 2, EdgeCost{}, far_edge()));
    EXPECT_DEATH(rig.pod->create_process(5), "host");
}

TEST(PodRoutingDeathTest, TopologyMustMatchWindows)
{
    PodConfig pc;
    pc.device.windows = 2;
    pc.device.size = 2ull << 16;
    pc.device.sync_region_size = 4096;
    pc.topology = Topology::dense(2, 4, EdgeCost{}, far_edge());
    EXPECT_DEATH(Pod pod(pc), "match");
}

} // namespace
