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
/// Graceful degradation (runtime edge health, see pod/faults.h): the
/// probe order is filtered through per-host Down/Suspect device masks
/// recomputed from the topology's runtime health table by
/// refresh_placement(). Allocation probes healthy edges first and falls
/// back to Suspect edges only when every healthy shard is exhausted;
/// Down edges are never probed. Frees destined for a Down device are
/// parked (the block stays allocated — a parked free is deferred, never
/// lost) and replayed by replay_parked() once the edge recovers, so
/// exact block accounting holds across an outage: counter == popcount on
/// every shard once the parked frees have drained. Counted as
/// pod.alloc_degraded / pod.parked_frees / pod.replayed_frees.
///
/// Tiered placement (topologies with per-host LocalDram windows, see
/// pod::Topology::with_local_dram): the host's private DRAM window holds a
/// smaller shard of its own geometry (@p dram_config), and a per-thread
/// ticketed stride scheduler steers Config::dram_percent% of eligible
/// allocations (size <= Config::dram_max_block) there first — falling back
/// to the normal CXL probe order when the DRAM shard is exhausted, so the
/// DRAM capacity limit degrades placement, never correctness. Counted as
/// alloc.tier_dram / alloc.tier_cxl. DRAM-placed blocks are host-private:
/// only their own host can reach the window, so sharing applications must
/// keep DRAM-resident objects host-local (the migrator's demote path moves
/// them back to CXL before they are shared).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cxlalloc/allocator.h"
#include "cxlalloc/stride.h"
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
    /// dram_percent / dram_max_block drive the tiered placement policy.
    PodShardedAllocator(pod::Pod& pod, const Config& shard_config,
                        const Config* dram_config = nullptr);

    /// Attaches every shard to @p process and installs this router as the
    /// process's fault resolver.
    void attach(pod::Process& process);

    /// Per-thread setup on the home shard; other shards attach lazily on
    /// first touch so a thread that never steals never pays a foreign edge.
    void attach_thread(pod::ThreadContext& ctx);

    /// Topology-aware allocation (see file comment). Returns 0 when every
    /// shard reachable from the calling thread's host is exhausted.
    cxl::HeapOffset allocate(pod::ThreadContext& ctx, std::uint64_t size);

    /// Frees @p offset into the shard its window bits name.
    void deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset);

    /// Batched free: offsets are partitioned by window and each shard
    /// drains its part in one batch (NMP doorbell packing intact).
    void deallocate_batch(pod::ThreadContext& ctx,
                          const cxl::HeapOffset* offsets, std::uint32_t n);

    std::byte*
    pointer(pod::ThreadContext& ctx, cxl::HeapOffset offset,
            std::uint64_t len)
    {
        return ctx.mem().data_ptr(offset, len);
    }

    /// Recovers the adopted slot across every shard. The (at most one)
    /// shard whose recovery record is an interrupted NMP batch recovers
    /// first: its redo state lives in the thread's operand ring, which
    /// every other shard's recovery resets.
    void recover(pod::ThreadContext& ctx);

    /// Huge-heap reclamation pass on every shard.
    void cleanup(pod::ThreadContext& ctx);

    /// Recomputes every host's Down/Suspect device masks from the
    /// topology's runtime edge health (pod::Topology::edge_state). Call
    /// after a fault or a recovery transition; safe to call concurrently
    /// with allocating/freeing threads (the masks are atomics — a racing
    /// thread sees either the old or the new degradation, both of which
    /// were true instants ago).
    void refresh_placement();

    /// Frees currently parked because their device's edge was Down when
    /// they were issued (blocks still allocated, replay pending).
    std::uint64_t parked_frees() const;

    /// Replays every parked free whose device @p ctx's host currently
    /// reaches (per its refresh_placement masks); frees whose device is
    /// still Down stay parked. Returns the number replayed. Call after
    /// refresh_placement() once a Down edge comes back.
    std::uint32_t replay_parked(pod::ThreadContext& ctx);

    /// Test hooks: the degradation masks of @p host (bit d = shard d).
    std::uint32_t down_mask(pod::HostId host) const;
    std::uint32_t suspect_mask(pod::HostId host) const;

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

    /// First offset of window @p device's extra application region (the
    /// extra_window_bytes requested from device_config), page-aligned
    /// after the shard layout.
    cxl::HeapOffset extra_base(cxl::DeviceId device) const;

    /// Total HWcc bytes across shards (each window contributes a sync
    /// prefix).
    std::uint64_t hwcc_bytes() const;

    pod::Pod& pod() { return pod_; }

  private:
    /// The shards @p ctx's host is wired to, home first (its probe order).
    const std::vector<cxl::DeviceId>& reach_of(pod::ThreadContext& ctx) const;

    /// Everything recovery/cleanup must sweep for @p ctx's host: the CXL
    /// probe order plus the host's DRAM shard (which placement_order
    /// excludes by design, but which holds recovery records and slabs of
    /// its own).
    const std::vector<cxl::DeviceId>& sweep_of(pod::ThreadContext& ctx) const;

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
    std::uint64_t dram_max_block_ = 0;
    /// Per-thread stride scheduler (single-writer: the owning thread).
    std::array<StrideScheduler, cxl::kMaxThreads + 1> stride_{};

    /// Degraded-placement masks, one per host (bit d = shard d). Written
    /// only by refresh_placement, read lock-free on the allocation path.
    struct HealthMask {
        std::atomic<std::uint32_t> down{0};
        std::atomic<std::uint32_t> suspect{0};
    };
    std::vector<HealthMask> health_;

    void park_free(pod::ThreadContext& ctx, cxl::HeapOffset offset);

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
