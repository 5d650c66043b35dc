/// @file
/// PodShardedAllocator: topology-aware allocation over a pod.
///
/// One CxlAllocator shard lives in each device window of the pod arena
/// (cxl::DeviceConfig::windows; see docs/POD_TOPOLOGY.md). A single host
/// is the 1x1 pod: one window, one shard, a zero-cost edge — the same heap
/// a bare CxlAllocator gives, reached through the same router every larger
/// pod uses. All shards share the pod-global thread-id space,
/// so any thread can allocate from, free into, and recover any shard —
/// the placement policy, not a capability wall, is what keeps traffic
/// host-local:
///
///  - First-touch home placement: a thread allocates from its host's home
///    shard (the cheapest reachable edge, pod::Topology::home_of).
///  - Cross-host steal as last resort: only when the home shard is
///    exhausted does allocation probe the host's remaining reachable
///    shards, cheapest edge first (placement_order).
///  - Sparse topologies reject deterministically: a shard on a device the
///    host cannot reach is never probed, so exhausting the reachable
///    shards returns 0 (like any other exhaustion) instead of silently
///    misrouting the allocation; the session layer additionally refuses
///    to touch unreachable windows at all.
///
/// Frees route by the offset's window bits: freeing another host's memory
/// is just a remote free into that shard (the slab heaps already handle
/// remote frees), charged the edge cost like every other access.
///
/// Graceful degradation (runtime edge health, see pod/faults.h): every
/// placement decision reads the calling host's edges straight from the
/// topology's shared health table (pod::Topology::edge_state, the cells a
/// routed MemSession checks on every access), once per edge per call —
/// there is no copy to refresh, so a transition steers the very next call.
/// Allocation probes Up edges first and falls back to Suspect edges only
/// when every healthy shard is exhausted; Down edges are never probed.
/// Frees destined for a Down device are parked (the block stays allocated
/// — a parked free is deferred, never lost) and replayed by
/// replay_parked() once the edge recovers, so exact block accounting holds
/// across an outage: counter == popcount on every shard once the parked
/// frees have drained. Counted as pod.alloc_degraded / pod.parked_frees /
/// pod.replayed_frees.
///
/// Tiered placement (topologies with per-host LocalDram windows, see
/// pod::Topology::with_local_dram): the host's private DRAM window holds a
/// smaller shard of its own geometry (@p dram_config), and a per-thread
/// credit (pick_dram) steers Config::dram_percent% of eligible
/// allocations (size <= kSmallMax) there first — falling back
/// to the normal CXL probe order when the DRAM shard is exhausted, so the
/// DRAM capacity limit degrades placement, never correctness. Counted as
/// alloc.tier_dram / alloc.tier_cxl. DRAM-placed blocks are host-private:
/// only their own host can reach the window, so sharing applications must
/// keep DRAM-resident objects host-local (the migrator's demote path moves
/// them back to CXL before they are shared).

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cxlalloc/allocator.h"
#include "pod/topology.h"

namespace cxlalloc {

/// Topology-aware sharded heap: one cxlalloc heap per pod device window.
class PodShardedAllocator : public pod::FaultResolver {
  public:
    /// Device configuration for a pod whose every window holds one shard
    /// heap of @p shard_config plus @p extra_window_bytes of application
    /// space (index arrays etc., see extra_base()). The window size is the
    /// smallest power of two that fits; the per-window sync region covers
    /// the shard's HWcc metadata.
    /// @p dram_config, when given, sizes the windows to also fit the
    /// (usually smaller) per-host DRAM shard geometry — windows are
    /// uniform, so the window and sync sizes are the max over both probe
    /// layouts. Required iff the topology has LocalDram devices.
    static cxl::DeviceConfig device_config(
        const Config& shard_config, const pod::Topology& topology,
        cxl::CoherenceMode mode, bool simulate_cache = false,
        std::uint64_t extra_window_bytes = 0,
        const Config* dram_config = nullptr);

    /// Binds one shard per device window of @p pod (any topology, the 1x1
    /// pod included). @p shard_config is the per-shard geometry;
    /// Config::base is derived per shard.
    /// LocalDram windows get a shard of @p dram_config's geometry instead
    /// (must be non-null iff the topology has a DRAM tier); shard_config's
    /// dram_percent drives the tiered placement policy.
    PodShardedAllocator(pod::Pod& pod, const Config& shard_config,
                        const Config* dram_config = nullptr);

    /// Attaches every shard to @p process and installs this router as the
    /// process's fault resolver.
    void attach(pod::Process& process);

    /// Per-thread setup on the home shard; other shards attach lazily on
    /// first touch so a thread that never steals never pays a foreign edge.
    void attach_thread(pod::ThreadContext& ctx);

    /// Per-thread teardown before Pod::release_thread: every reachable
    /// shard the thread touched lands its pending remote frees (NoHwcc;
    /// see CxlAllocator::detach_thread).
    void detach_thread(pod::ThreadContext& ctx);

    /// Topology-aware allocation (see file comment). Returns 0 when every
    /// shard reachable from the calling thread's host is exhausted.
    cxl::HeapOffset allocate(pod::ThreadContext& ctx, std::uint64_t size);

    /// Frees @p offset into the shard its window bits name.
    void deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset);

    /// Batched free: each run of offsets in one window is one
    /// CxlAllocator::deallocate_batch of its shard; a run behind a Down
    /// edge parks.
    void deallocate_batch(pod::ThreadContext& ctx,
                          const cxl::HeapOffset* offsets, std::uint32_t n);

    std::byte*
    pointer(pod::ThreadContext& ctx, cxl::HeapOffset offset,
            std::uint64_t len)
    {
        return ctx.mem().data_ptr(offset, len);
    }

    /// Recovers the adopted slot across every shard. The (at most one)
    /// shard whose counters the thread's NMP ring targets recovers first:
    /// an interrupted drain round's redo state lives in that ring, which
    /// every other shard's recovery resets.
    void recover(pod::ThreadContext& ctx);

    /// CxlAllocator::cleanup (pending frees, then huge-heap reclamation)
    /// on every reachable shard.
    void cleanup(pod::ThreadContext& ctx);

    /// Frees currently parked because their device's edge was Down when
    /// they were issued (blocks still allocated, replay pending).
    std::uint64_t parked_frees() const;

    /// Hands every parked free to the batch path from @p ctx's host, which
    /// parks again whatever is still behind a Down edge. Returns the
    /// number that landed. Call once a Down edge comes back.
    std::uint32_t replay_parked(pod::ThreadContext& ctx);

    /// Audit of every shard @p mem's host reaches (probe order plus DRAM
    /// window), with the parked-free count. Requires quiescence.
    AuditReport audit(cxl::MemSession& mem);

    /// audit(), panicking with the report unless it is ok.
    void check_invariants(cxl::MemSession& mem) { audit(mem).require_ok(); }

    /// Wires "alloc.*" instrumentation of every shard plus the pod-level
    /// placement counters (pod.alloc_home / pod.alloc_steal /
    /// pod.alloc_exhausted) into @p registry.
    void set_metrics(obs::MetricsRegistry* registry);

    /// pod::FaultResolver: dispatch to the shard owning the offset.
    bool resolve_fault(pod::Process& process, cxl::MemSession& mem,
                       cxl::HeapOffset offset,
                       pod::MappedRange* out) override;

    std::uint32_t shard_count() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    CxlAllocator& shard(cxl::DeviceId device) { return *shards_[device]; }

    /// Host @p host's private DRAM shard device, or shard_count() when the
    /// topology gives it none.
    cxl::DeviceId
    dram_device(pod::HostId host) const
    {
        return dram_of_[host];
    }

    /// True when @p host's allocations are tier-split (it has a DRAM
    /// window and the policy percentage is nonzero).
    bool
    tiered(pod::HostId host) const
    {
        return dram_of_[host] < shards_.size() && dram_percent_ > 0;
    }

    /// The tier split, one eligible allocation at a time: true sends it
    /// to the DRAM tier. @p credit is the calling thread's (starting at
    /// 0); DRAM goes while it is non-negative and costs 100 - p, CXL earns
    /// p (@p dram_percent, clamped to 100). After n draws exactly
    /// floor((n - 1) * p / 100) + 1 went to DRAM (none when p is 0), and
    /// the credit stays within [-99, 98].
    static bool
    pick_dram(std::int32_t& credit, std::uint32_t dram_percent)
    {
        auto p = static_cast<std::int32_t>(std::min(dram_percent, 100u));
        if (p == 0) {
            return false;
        }
        if (credit >= 0) {
            credit -= 100 - p;
            return true;
        }
        credit += p;
        return false;
    }

    /// First offset of window @p device's extra application region (the
    /// extra_window_bytes requested from device_config), page-aligned
    /// after the shard layout.
    cxl::HeapOffset extra_base(cxl::DeviceId device) const;

    /// Total HWcc bytes across shards (each window contributes a sync
    /// prefix).
    std::uint64_t hwcc_bytes() const;

    pod::Pod& pod() { return pod_; }

    /// Everything recovery/cleanup must sweep for @p ctx's host: the CXL
    /// probe order plus the host's DRAM shard (which placement_order
    /// excludes by design, but which holds recovery records and slabs of
    /// its own).
    const std::vector<cxl::DeviceId>& sweep_of(pod::ThreadContext& ctx) const;

  private:
    /// The shards @p ctx's host is wired to, home first (its probe order).
    const std::vector<cxl::DeviceId>& reach_of(pod::ThreadContext& ctx) const;

    pod::Pod& pod_;
    std::vector<std::unique_ptr<CxlAllocator>> shards_;
    /// Per-host probe order: home first, then reachable shards by edge
    /// cost (precomputed from the topology).
    std::vector<std::vector<cxl::DeviceId>> order_;
    /// Per-host recovery sweep order: order_ plus the DRAM shard, if any.
    std::vector<std::vector<cxl::DeviceId>> sweep_;
    /// Per-host DRAM shard (shards_.size() = none).
    std::vector<cxl::DeviceId> dram_of_;
    /// Tiering policy from shard_config (see Config).
    std::uint32_t dram_percent_ = 0;
    /// Per-thread tier-split credit (single-writer: the owning thread).
    std::array<std::int32_t, cxl::kMaxThreads + 1> credit_{};

    /// deallocate_batch without the pod.parked_frees count: returns how
    /// many frees parked, so replay_parked can re-park without counting
    /// a free twice.
    std::uint32_t free_or_park(pod::ThreadContext& ctx,
                               const cxl::HeapOffset* offsets,
                               std::uint32_t n);

    void park(const cxl::HeapOffset* offsets, std::uint32_t n);

    /// Adds @p n to counter @p id on @p ctx's shard (metrics wired only).
    void count(pod::ThreadContext& ctx, obs::MetricId id,
               std::uint64_t n = 1);

    /// Frees deferred while their device was Down (see file comment).
    mutable std::mutex park_mu_;
    std::vector<cxl::HeapOffset> parked_;

    struct Instruments {
        obs::MetricsRegistry* registry = nullptr;
        obs::MetricId alloc_home = obs::kInvalidMetric;
        obs::MetricId alloc_steal = obs::kInvalidMetric;
        obs::MetricId alloc_exhausted = obs::kInvalidMetric;
        obs::MetricId tier_dram = obs::kInvalidMetric;
        obs::MetricId tier_cxl = obs::kInvalidMetric;
        obs::MetricId alloc_degraded = obs::kInvalidMetric;
        obs::MetricId parked = obs::kInvalidMetric;
        obs::MetricId replayed = obs::kInvalidMetric;
    };
    Instruments inst_;
};

} // namespace cxlalloc
