#include "cxlalloc/pod_shard.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/cacheline.h"

namespace cxlalloc {

namespace {

/// Smallest window_bits whose window holds @p bytes; windows below one
/// page make no sense (the layout base must be page aligned).
std::uint32_t
window_bits_for(std::uint64_t bytes)
{
    std::uint32_t bits = 12;
    while ((1ULL << bits) < bytes) {
        bits++;
    }
    return bits;
}

} // namespace

cxl::DeviceConfig
PodShardedAllocator::device_config(const Config& shard_config,
                                   const pod::Topology& topology,
                                   cxl::CoherenceMode mode,
                                   bool simulate_cache,
                                   std::uint64_t extra_window_bytes,
                                   const Config* dram_config)
{
    Config base_cfg = shard_config;
    base_cfg.base = 0;
    Layout probe(base_cfg);

    std::uint64_t window = cxlcommon::align_up(probe.end(), cxl::kPageSize) +
                           cxlcommon::align_up(extra_window_bytes,
                                               cxl::kPageSize);
    std::uint64_t sync = probe.hwcc_end();

    // Windows are uniform, so tiered pods size them (and the per-window
    // sync prefix) for the larger of the two shard geometries.
    if (dram_config != nullptr) {
        Config dram_cfg = *dram_config;
        dram_cfg.base = 0;
        Layout dram_probe(dram_cfg);
        window = std::max(window, cxlcommon::align_up(dram_probe.end(),
                                                      cxl::kPageSize));
        sync = std::max(sync, dram_probe.hwcc_end());
    }

    cxl::DeviceConfig dev;
    dev.windows = topology.devices();
    dev.size = static_cast<std::uint64_t>(dev.windows)
               << window_bits_for(window);
    dev.mode = mode;
    dev.sync_region_size = sync;
    dev.simulate_cache = simulate_cache;
    return dev;
}

PodShardedAllocator::PodShardedAllocator(pod::Pod& pod,
                                         const Config& shard_config,
                                         const Config* dram_config)
    : pod_(pod), dram_percent_(shard_config.dram_percent)
{
    const pod::Topology& topo = pod.topology();
    CXL_FATAL_IF(topo.has_dram_tier() && dram_config == nullptr,
                 "tiered topology needs a DRAM shard config");

    shards_.reserve(topo.devices());
    for (cxl::DeviceId d = 0; d < topo.devices(); d++) {
        bool dram = topo.tier_of(d) == cxl::MemTier::LocalDram;
        Config cfg = dram ? *dram_config : shard_config;
        cfg.base = pod.device().window_base(d);
        shards_.push_back(std::make_unique<CxlAllocator>(pod, cfg));
    }

    order_.resize(topo.hosts());
    sweep_.resize(topo.hosts());
    dram_of_.resize(topo.hosts());
    for (pod::HostId h = 0; h < topo.hosts(); h++) {
        order_[h] = topo.placement_order(h);
        CXL_FATAL_IF(order_[h].empty(),
                     "host reaches no device in this topology");
        CXL_FATAL_IF(order_[h].front() != topo.home_of(h),
                     "placement order must start at the home device");
        dram_of_[h] = topo.dram_device_of(h); // devices() = none
        sweep_[h] = order_[h];
        if (dram_of_[h] < shards_.size()) {
            sweep_[h].push_back(dram_of_[h]);
        }
    }
}

void
PodShardedAllocator::attach(pod::Process& process)
{
    for (auto& shard : shards_) {
        shard->attach(process);
    }
    // Every shard's attach registered itself; the router must win so
    // faults on any window reach the right shard.
    process.set_resolver(this);
}

void
PodShardedAllocator::attach_thread(pod::ThreadContext& ctx)
{
    // Home shard only: rebuilding volatile state reads the shard's window,
    // so an eager sweep would charge every foreign edge before the thread
    // does any work (and in a sparse topology would fault on unreachable
    // windows). Non-home shards self-attach on the first operation that
    // actually reaches them (CxlAllocator::state_of).
    shards_[reach_of(ctx).front()]->attach_thread(ctx);
}

cxl::HeapOffset
PodShardedAllocator::allocate(pod::ThreadContext& ctx, std::uint64_t size)
{
    auto host = static_cast<pod::HostId>(ctx.process().host());
    const pod::Topology& topo = pod_.topology();
    // Tier split first: the credit moves only for eligible requests, so
    // the DRAM share applies to what could actually have gone to DRAM.
    // Exhaustion of the capacity-limited DRAM shard falls through to the
    // normal CXL probe order, as does a DRAM window behind a degraded
    // edge.
    bool tier_split = tiered(host) && size <= kSmallMax;
    if (tier_split &&
        topo.edge_state(host, dram_of_[host]) == cxl::EdgeState::Up &&
        pick_dram(credit_[ctx.tid()], dram_percent_)) {
        cxl::HeapOffset offset = shards_[dram_of_[host]]->allocate(ctx, size);
        if (offset != 0) {
            count(ctx, inst_.tier_dram);
            return offset;
        }
    }
    const std::vector<cxl::DeviceId>& order = order_[host];
    auto probe = [&](std::size_t i, bool degraded) {
        cxl::HeapOffset offset = shards_[order[i]]->allocate(ctx, size);
        if (offset != 0 && inst_.registry != nullptr) {
            obs::MetricsShard& sh = inst_.registry->shard(ctx.tid());
            sh.add(i == 0 ? inst_.alloc_home : inst_.alloc_steal);
            if (tier_split) {
                sh.add(inst_.tier_cxl);
            }
            if (degraded) {
                sh.add(inst_.alloc_degraded);
            }
        }
        return offset;
    };
    // Healthy edges first, Suspect edges only once every healthy shard is
    // exhausted, Down edges never (the session would throw EdgeDownError
    // anyway — reading the edge first makes degradation a placement
    // decision instead of an exception). Each edge is read once: the
    // healthy pass notes the Suspect ones by probe position.
    std::uint32_t suspect = 0;
    for (std::size_t i = 0; i < order.size(); i++) {
        cxl::EdgeState state = topo.edge_state(host, order[i]);
        if (state == cxl::EdgeState::Suspect) {
            suspect |= 1u << i;
        } else if (state == cxl::EdgeState::Up) {
            if (cxl::HeapOffset offset = probe(i, false)) {
                return offset;
            }
        }
    }
    for (std::size_t i = 0; suspect != 0; i++, suspect >>= 1) {
        if ((suspect & 1) != 0) {
            if (cxl::HeapOffset offset = probe(i, true)) {
                return offset;
            }
        }
    }
    count(ctx, inst_.alloc_exhausted);
    return 0;
}

void
PodShardedAllocator::count(pod::ThreadContext& ctx, obs::MetricId id,
                           std::uint64_t n)
{
    if (inst_.registry != nullptr && n != 0) {
        inst_.registry->shard(ctx.tid()).add(id, n);
    }
}

void
PodShardedAllocator::park(const cxl::HeapOffset* offsets, std::uint32_t n)
{
    std::lock_guard<std::mutex> lock(park_mu_);
    parked_.insert(parked_.end(), offsets, offsets + n);
}

void
PodShardedAllocator::deallocate(pod::ThreadContext& ctx,
                                cxl::HeapOffset offset)
{
    cxl::DeviceId d = pod_.device().device_of(offset);
    CXL_ASSERT(d < shards_.size(), "free offset names no shard");
    auto host = static_cast<pod::HostId>(ctx.process().host());
    if (pod_.topology().edge_state(host, d) == cxl::EdgeState::Down) {
        park(&offset, 1);
        count(ctx, inst_.parked);
        return;
    }
    shards_[d]->deallocate(ctx, offset);
}

void
PodShardedAllocator::deallocate_batch(pod::ThreadContext& ctx,
                                      const cxl::HeapOffset* offsets,
                                      std::uint32_t n)
{
    count(ctx, inst_.parked, free_or_park(ctx, offsets, n));
}

std::uint32_t
PodShardedAllocator::free_or_park(pod::ThreadContext& ctx,
                                  const cxl::HeapOffset* offsets,
                                  std::uint32_t n)
{
    // One walk: each run of offsets in one window is one batch of its
    // shard, or parks whole behind a Down edge.
    auto host = static_cast<pod::HostId>(ctx.process().host());
    std::uint32_t parked = 0;
    for (std::uint32_t i = 0, end; i < n; i = end) {
        cxl::DeviceId d = pod_.device().device_of(offsets[i]);
        CXL_ASSERT(d < shards_.size(), "free offset names no shard");
        for (end = i + 1;
             end < n && pod_.device().device_of(offsets[end]) == d; end++) {
        }
        if (pod_.topology().edge_state(host, d) == cxl::EdgeState::Down) {
            park(offsets + i, end - i);
            parked += end - i;
        } else {
            shards_[d]->deallocate_batch(ctx, offsets + i, end - i);
        }
    }
    return parked;
}

std::uint64_t
PodShardedAllocator::parked_frees() const
{
    std::lock_guard<std::mutex> lock(park_mu_);
    return parked_.size();
}

std::uint32_t
PodShardedAllocator::replay_parked(pod::ThreadContext& ctx)
{
    std::vector<cxl::HeapOffset> taken;
    {
        std::lock_guard<std::mutex> lock(park_mu_);
        taken.swap(parked_);
    }
    if (taken.empty()) {
        return 0;
    }
    // The batch path parks again whatever is still Down (a free is never
    // lost).
    auto n = static_cast<std::uint32_t>(taken.size());
    std::uint32_t replayed = n - free_or_park(ctx, taken.data(), n);
    count(ctx, inst_.replayed, replayed);
    return replayed;
}

void
PodShardedAllocator::recover(pod::ThreadContext& ctx)
{
    // The adopter sweeps the shards its host reaches (which must include
    // everything the dead thread touched — adopt recovery work on a host
    // wired at least as widely as the crashed one). The thread's NMP ring
    // holds at most one drain round, of one shard: that shard puts the
    // round's non-landed operands back into its pending line, and every
    // shard's recover() resets the ring, so the batch shard — the one the
    // ring's operands target — must go first. Redoing the remaining
    // shards' stale-but-completed records is idempotent by design.
    // A lone shard (the 1x1 pod) has no ordering to get wrong, so it skips
    // the probe and recovers exactly as a bare CxlAllocator does.
    const std::vector<cxl::DeviceId>& reach = sweep_of(ctx);
    cxl::DeviceId batch_shard = static_cast<cxl::DeviceId>(shards_.size());
    cxl::NmpSlotView first;
    if (reach.size() > 1 &&
        pod_.nmp().ring_snapshot(ctx.tid(), &first, 1) == 1) {
        batch_shard = pod_.device().device_of(first.op.target);
    }
    if (batch_shard < shards_.size()) {
        shards_[batch_shard]->recover(ctx);
    }
    for (cxl::DeviceId d : reach) {
        if (d != batch_shard) {
            shards_[d]->recover(ctx);
        }
    }
}

void
PodShardedAllocator::cleanup(pod::ThreadContext& ctx)
{
    for (cxl::DeviceId d : sweep_of(ctx)) {
        shards_[d]->cleanup(ctx);
    }
}

void
PodShardedAllocator::detach_thread(pod::ThreadContext& ctx)
{
    for (cxl::DeviceId d : sweep_of(ctx)) {
        shards_[d]->detach_thread(ctx);
    }
}

const std::vector<cxl::DeviceId>&
PodShardedAllocator::reach_of(pod::ThreadContext& ctx) const
{
    return order_[static_cast<pod::HostId>(ctx.process().host())];
}

const std::vector<cxl::DeviceId>&
PodShardedAllocator::sweep_of(pod::ThreadContext& ctx) const
{
    return sweep_[static_cast<pod::HostId>(ctx.process().host())];
}

AuditReport
PodShardedAllocator::audit(cxl::MemSession& mem)
{
    // Only the shards this host reaches: a sparse pod's session refuses to
    // touch the others at all.
    AuditReport report;
    for (cxl::DeviceId d : sweep_[mem.pod_host()]) {
        report = shards_[d]->audit(mem, std::move(report));
    }
    report.parked_frees = parked_frees();
    return report;
}

void
PodShardedAllocator::set_metrics(obs::MetricsRegistry* registry)
{
    inst_ = Instruments{};
    inst_.registry = registry;
    for (auto& shard : shards_) {
        shard->set_metrics(registry);
    }
    if (registry == nullptr) {
        return;
    }
    inst_.alloc_home = registry->counter("pod.alloc_home");
    inst_.alloc_steal = registry->counter("pod.alloc_steal");
    inst_.alloc_exhausted = registry->counter("pod.alloc_exhausted");
    inst_.tier_dram = registry->counter("alloc.tier_dram");
    inst_.tier_cxl = registry->counter("alloc.tier_cxl");
    inst_.alloc_degraded = registry->counter("pod.alloc_degraded");
    inst_.parked = registry->counter("pod.parked_frees");
    inst_.replayed = registry->counter("pod.replayed_frees");
}

bool
PodShardedAllocator::resolve_fault(pod::Process& process,
                                   cxl::MemSession& mem,
                                   cxl::HeapOffset offset,
                                   pod::MappedRange* out)
{
    cxl::DeviceId d = pod_.device().device_of(offset);
    if (d >= shards_.size()) {
        return false;
    }
    return shards_[d]->resolve_fault(process, mem, offset, out);
}

cxl::HeapOffset
PodShardedAllocator::extra_base(cxl::DeviceId device) const
{
    CXL_ASSERT(device < shards_.size(), "no such shard");
    return cxlcommon::align_up(shards_[device]->layout().end(),
                               cxl::kPageSize);
}

std::uint64_t
PodShardedAllocator::hwcc_bytes() const
{
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
        total += shard->layout().hwcc_bytes();
    }
    return total;
}

} // namespace cxlalloc
