/// @file
/// Common interface over all evaluated allocators, plus the property matrix
/// of paper Table 1.
///
/// Each baseline reproduces the *load-bearing design property* of a system
/// the paper compares against (see DESIGN.md §4): mimic the unconstrained
/// throughput ceiling (mimalloc), boostish the global-mutex cross-process
/// allocator (Boost.Interprocess), lightningish the mutex + per-allocation
/// tracking-array store allocator (Lightning), cxlshmish the lock-free
/// refcount-header allocator with a 1 KiB cap (CXL-SHM), and rallocish the
/// lock-free slab allocator with shared partial slabs and GC recovery
/// (Ralloc).

#pragma once

#include <cstdint>
#include <string>

#include "cxl/mem_ops.h"
#include "cxl/types.h"
#include "pod/thread_context.h"

namespace baselines {

/// Table 1 property matrix row.
struct AllocTraits {
    /// Memory kinds the design targets ("M", "XP", "CXL", "PM", ...).
    std::string memory;
    /// Supports cross-process allocation (pointer alternatives).
    bool cross_process = false;
    /// Can use mmap to extend the heap or back large allocations.
    bool mmap_support = false;
    /// Live threads do not block when another thread crashes.
    bool nonblocking_failure = false;

    enum class Recovery { None, Blocking, NonBlocking };
    Recovery recovery = Recovery::None;

    /// Recovery strategy ("GC", "App", or "-").
    std::string strategy = "-";

    /// The design requires touching a per-object reference count on every
    /// access (CXL-SHM); the key-value store honors this via on_access().
    bool refcount_on_access = false;

    /// Largest supported allocation (CXL-SHM caps at 1 KiB; the paper
    /// reports it crashing on MC-12/MC-37).
    std::uint64_t max_alloc = ~std::uint64_t{0};
};

/// Uniform allocator interface used by the key-value store, workloads and
/// benchmarks.
class PodAllocator {
  public:
    virtual ~PodAllocator() = default;

    virtual const char* name() const = 0;
    virtual AllocTraits traits() const = 0;

    /// Called once per thread before first use.
    virtual void attach_thread(pod::ThreadContext& ctx) { (void)ctx; }

    /// Called once per thread before its slot is released: work the
    /// design defers past a free (cxlalloc's pending remote frees) lands.
    virtual void detach_thread(pod::ThreadContext& ctx) { (void)ctx; }

    /// Allocates @p size bytes; 0 on failure/exhaustion/unsupported size.
    virtual cxl::HeapOffset allocate(pod::ThreadContext& ctx,
                                     std::uint64_t size) = 0;

    virtual void deallocate(pod::ThreadContext& ctx,
                            cxl::HeapOffset offset) = 0;

    /// Access hooks for refcount-per-access designs (no-ops otherwise).
    virtual void
    on_access(pod::ThreadContext& ctx, cxl::HeapOffset offset)
    {
        (void)ctx;
        (void)offset;
    }

    virtual void
    after_access(pod::ThreadContext& ctx, cxl::HeapOffset offset)
    {
        (void)ctx;
        (void)offset;
    }

    /// Resolves an offset to bytes in this process.
    std::byte*
    pointer(pod::ThreadContext& ctx, cxl::HeapOffset offset,
            std::uint64_t len)
    {
        return ctx.mem().data_ptr(offset, len);
    }

    /// Bytes of HWcc (coherent / device-biased) memory the design needs —
    /// the paper's §5.2.1 "HWcc memory" metric.
    virtual std::uint64_t hwcc_bytes(cxl::MemSession& mem) = 0;

    /// Host-side metadata bytes not living on the device (added to the
    /// PSS-analog memory report).
    virtual std::uint64_t metadata_overhead_bytes() { return 0; }
};

} // namespace baselines
