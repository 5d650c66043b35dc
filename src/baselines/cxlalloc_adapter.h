/// @file
/// PodAllocator adapter over the real cxlalloc implementation, so the
/// key-value store and benchmarks can treat it uniformly with baselines.
/// It wraps the pod heap (PodShardedAllocator): a single host is its 1x1
/// pod, a multi-host run a larger one.

#pragma once

#include "baselines/pod_allocator.h"
#include "cxlalloc/pod_shard.h"

namespace baselines {

class CxlallocAdapter : public PodAllocator {
  public:
    /// The name and Table 1 row follow the shards' Config::recoverable:
    /// false is the cxlalloc-nonrecoverable ablation.
    explicit CxlallocAdapter(cxlalloc::PodShardedAllocator* alloc)
        : alloc_(alloc)
    {
    }

    const char*
    name() const override
    {
        return recoverable() ? "cxlalloc" : "cxlalloc-nonrecoverable";
    }

    AllocTraits
    traits() const override
    {
        AllocTraits t;
        t.memory = "XP, CXL";
        t.cross_process = true;
        t.mmap_support = true;
        t.nonblocking_failure = true;
        t.recovery = recoverable() ? AllocTraits::Recovery::NonBlocking
                                   : AllocTraits::Recovery::None;
        t.strategy = recoverable() ? "App" : "-";
        return t;
    }

    void
    attach_thread(pod::ThreadContext& ctx) override
    {
        alloc_->attach_thread(ctx);
    }

    void
    detach_thread(pod::ThreadContext& ctx) override
    {
        alloc_->detach_thread(ctx);
    }

    cxl::HeapOffset
    allocate(pod::ThreadContext& ctx, std::uint64_t size) override
    {
        return alloc_->allocate(ctx, size);
    }

    void
    deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset) override
    {
        alloc_->deallocate(ctx, offset);
    }

    std::uint64_t
    hwcc_bytes(cxl::MemSession&) override
    {
        // Only the metadata the layouts place in the HWcc region (one
        // prefix per window) — the headline §3.2 result.
        return alloc_->hwcc_bytes();
    }

  private:
    bool recoverable() const { return alloc_->shard(0).config().recoverable; }

    cxlalloc::PodShardedAllocator* alloc_;
};

} // namespace baselines
