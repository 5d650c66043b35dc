/// @file
/// Shared identifiers and limits for the simulated CXL pod.

#pragma once

#include <atomic>
#include <cstdint>
#include <exception>

#include "common/offset_ptr.h"

namespace cxl {

using cxlcommon::HeapOffset;

/// Pod-global thread identifier. 0 means "no thread" so that zero-filled
/// owner fields decode as unowned (zero-is-valid heap initialization).
using ThreadId = std::uint16_t;

inline constexpr ThreadId kNoThread = 0;

/// Maximum number of pod-global thread slots. Thread IDs are 1..kMaxThreads.
/// Sized for the pod-topology experiments: 16 hosts x 8 pinned threads each
/// plus harness helpers (preload, probes, recovery adopters).
inline constexpr std::uint32_t kMaxThreads = 160;

/// Maximum number of sharing processes in the pod (>= one per host in the
/// largest pod preset, plus per-thread processes in the PC-T studies).
inline constexpr std::uint32_t kMaxProcesses = 64;

/// Simulated page size: the granularity at which memory mappings are
/// installed into a process (the mmap analog).
inline constexpr std::uint64_t kPageSize = 4096;

/// Coherence support of the simulated device (paper Fig. 1).
enum class CoherenceMode {
    /// CXL 3.x back-invalidation everywhere: plain CAS works on any line.
    FullHwcc,
    /// HWcc limited to a small contiguous region (Fig. 1(A)); the rest is
    /// kept coherent in software (SWcc).
    PartialHwcc,
    /// No HWcc (Fig. 1(B)): synchronization only via the NMP's mCAS on the
    /// device-biased (uncachable) region; the rest is SWcc.
    NoHwcc,
};

const char* to_string(CoherenceMode mode);

// ---- Pod topology primitives (see pod/topology.h for the pod model). ----

/// Identifies one memory device (head) of the pod. The id is carried in the
/// high window bits of every HeapOffset.
using DeviceId = std::uint16_t;

/// Maximum devices per pod: DeviceId values are 0..kMaxDevices-1.
inline constexpr std::uint32_t kMaxDevices = 16;

/// Memory tier a pod device belongs to. CXL devices are the shared fabric
/// tier every topology has; a LocalDram device models one host's private
/// DRAM exposed as a dedicated window (pod::Topology::with_local_dram), so
/// MemSession charges DRAM vs CXL latency purely by the offset's window
/// bits.
enum class MemTier : std::uint8_t {
    Cxl = 0,
    LocalDram = 1,
};

/// Cost of one (host, device) edge of the pod interconnect. Added on top of
/// the LatencyModel's base per-op costs, so a zero-cost edge reproduces the
/// single-device behavior exactly.
struct EdgeCost {
    /// False models an Octopus-style sparse pod: the host has no path to
    /// the device at all. Accesses must be rejected, never misrouted.
    bool reachable = true;
    /// Tier of the device this edge reaches. LocalDram edges are host-
    /// private (reachable from exactly one host) and are skipped by
    /// capacity placement (home_of / placement_order): only the explicit
    /// tiering policy ever allocates there.
    MemTier tier = MemTier::Cxl;
    /// Extra nanoseconds per cacheline read over this edge (switch hops,
    /// longer flit path).
    std::uint32_t read_add_ns = 0;
    /// Extra nanoseconds per cacheline written or flushed over this edge.
    std::uint32_t write_add_ns = 0;
    /// Bandwidth term for bulk transfers: extra nanoseconds per KiB moved.
    std::uint32_t ns_per_kib = 0;
};

/// Runtime health of one (host, device) edge, layered over the static
/// EdgeCost wiring. The EdgeCost matrix says whether a wire *exists*; the
/// EdgeState says whether it is currently *usable*. Fault detection (lease
/// misses, NMP stall escalations, injected faults) moves edges through
/// Up -> Suspect -> Down and back; placement and the session access checks
/// consult it on every operation (one relaxed byte load).
enum class EdgeState : std::uint8_t {
    /// Healthy: full traffic.
    Up = 0,
    /// Degrading: still carries traffic, but placement deprioritizes the
    /// device and evacuation may be draining it.
    Suspect = 1,
    /// Unusable: accesses are rejected with EdgeDownError; frees destined
    /// for the device are parked until the edge recovers.
    Down = 2,
};

inline const char*
to_string(EdgeState state)
{
    switch (state) {
    case EdgeState::Up: return "Up";
    case EdgeState::Suspect: return "Suspect";
    case EdgeState::Down: return "Down";
    }
    return "?";
}

/// One edge's mutable runtime cell: current state plus a monotonic epoch
/// bumped on every transition (so observers can tell two flaps apart from
/// no flap). Readers on the access path are lock-free; writers are the
/// fault layer (pod/faults.h) and the liveness detector.
struct EdgeStateCell {
    std::atomic<std::uint8_t> state{0};
    std::atomic<std::uint64_t> epoch{0};
};

/// Typed, recoverable rejection of an access over an edge with no usable
/// path: either the topology has no wire at all (static sparse-pod
/// unreachability) or the edge is runtime-Down. Callers in degraded pods
/// catch this, refresh placement, and retry elsewhere.
class EdgeDownError : public std::exception {
  public:
    EdgeDownError(DeviceId device, HeapOffset offset, bool wired)
        : device_(device), offset_(offset), wired_(wired)
    {
    }

    DeviceId device() const { return device_; }
    HeapOffset offset() const { return offset_; }

    /// True when the wire exists but is runtime-Down (the edge may come
    /// back); false when the topology never had a path (a stray access in
    /// a sparse Octopus pod — a placement bug, not a fault).
    bool wired() const { return wired_; }

    const char*
    what() const noexcept override
    {
        return wired_ ? "access to pod device over a Down edge"
                      : "access to pod device unreachable from this host";
    }

  private:
    DeviceId device_;
    HeapOffset offset_;
    bool wired_;
};

/// Offset -> device routing for a window-partitioned arena: device d owns
/// offsets [d << window_bits, (d+1) << window_bits).
constexpr DeviceId
pod_device_of(HeapOffset offset, std::uint32_t window_bits)
{
    return static_cast<DeviceId>(offset >> window_bits);
}

/// Device-local offset (the low window bits).
constexpr HeapOffset
pod_local_of(HeapOffset offset, std::uint32_t window_bits)
{
    return offset & ((HeapOffset{1} << window_bits) - 1);
}

} // namespace cxl
