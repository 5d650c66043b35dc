#include "cxlalloc/c_api.h"

#include <memory>

#include "common/assert.h"
#include "cxlalloc/allocator.h"
#include "pod/pod.h"

/// Opaque handle bodies.
struct cxlalloc_pod {
    explicit cxlalloc_pod(const cxlalloc::Config& config,
                          const pod::PodConfig& pod_config)
        : pod(pod_config), heap(pod, config)
    {
    }

    pod::Pod pod;
    cxlalloc::CxlAllocator heap;
};

struct cxlalloc_process {
    cxlalloc_pod* owner = nullptr;
    pod::Process* process = nullptr;
};

namespace {

/// The calling thread's binding.
struct ThreadBinding {
    cxlalloc_pod* pod = nullptr;
    std::unique_ptr<pod::ThreadContext> ctx;
};

thread_local ThreadBinding tls_binding;

cxlalloc::Config
config_from(const cxlalloc_options_t* options)
{
    cxlalloc::Config cfg;
    if (options == nullptr) {
        return cfg;
    }
    if (options->small_slabs != 0) {
        cfg.small_slabs = options->small_slabs;
    }
    if (options->large_slabs != 0) {
        cfg.large_slabs = options->large_slabs;
    }
    if (options->huge_regions != 0) {
        cfg.huge_regions = options->huge_regions;
    }
    if (options->huge_region_size != 0) {
        cfg.huge_region_size = options->huge_region_size;
    }
    cfg.recoverable = options->nonrecoverable == 0;
    return cfg;
}

} // namespace

extern "C" {

cxlalloc_pod_t*
cxlalloc_pod_create(const cxlalloc_options_t* options)
{
    cxlalloc::Config cfg = config_from(options);
    cxl::CoherenceMode mode = cxl::CoherenceMode::PartialHwcc;
    if (options != nullptr) {
        switch (options->coherence) {
          case 0:
            mode = cxl::CoherenceMode::FullHwcc;
            break;
          case 1:
            mode = cxl::CoherenceMode::PartialHwcc;
            break;
          case 2:
            mode = cxl::CoherenceMode::NoHwcc;
            break;
          default:
            return nullptr;
        }
    }
    pod::PodConfig pc;
    pc.device = cxlalloc::Layout(cfg).device_config(mode);
    pc.checked_mappings =
        options != nullptr && options->checked_mappings != 0;
    return new cxlalloc_pod(cfg, pc);
}

void
cxlalloc_pod_destroy(cxlalloc_pod_t* pod)
{
    delete pod;
}

cxlalloc_process_t*
cxlalloc_process_attach(cxlalloc_pod_t* pod)
{
    if (pod == nullptr) {
        return nullptr;
    }
    auto* handle = new cxlalloc_process;
    handle->owner = pod;
    handle->process = pod->pod.create_process();
    pod->heap.attach(*handle->process);
    return handle;
}

void
cxlalloc_process_detach(cxlalloc_process_t* process)
{
    delete process;
}

uint16_t
cxlalloc_thread_bind(cxlalloc_process_t* process)
{
    if (process == nullptr || tls_binding.ctx != nullptr) {
        return 0;
    }
    tls_binding.pod = process->owner;
    tls_binding.ctx = process->owner->pod.create_thread(process->process);
    process->owner->heap.attach_thread(*tls_binding.ctx);
    return tls_binding.ctx->tid();
}

void
cxlalloc_thread_unbind(void)
{
    if (tls_binding.ctx == nullptr) {
        return;
    }
    tls_binding.pod->heap.detach_thread(*tls_binding.ctx);
    tls_binding.pod->pod.release_thread(std::move(tls_binding.ctx));
    tls_binding = ThreadBinding{};
}

uint16_t
cxlalloc_thread_adopt(cxlalloc_process_t* process, uint16_t tid)
{
    if (process == nullptr || tls_binding.ctx != nullptr ||
        process->owner->pod.slot_state(tid) != pod::SlotState::Crashed) {
        return 0;
    }
    tls_binding.pod = process->owner;
    tls_binding.ctx =
        process->owner->pod.adopt_thread(process->process, tid);
    process->owner->heap.recover(*tls_binding.ctx);
    return tid;
}

uint64_t
cxlalloc_malloc(size_t size)
{
    if (tls_binding.ctx == nullptr || size == 0) {
        return 0;
    }
    return tls_binding.pod->heap.allocate(*tls_binding.ctx, size);
}

void
cxlalloc_free(uint64_t offset)
{
    CXL_FATAL_IF(tls_binding.ctx == nullptr,
                 "cxlalloc_free from unbound thread");
    tls_binding.pod->heap.deallocate(*tls_binding.ctx, offset);
}

void*
cxlalloc_ptr(uint64_t offset, size_t len)
{
    CXL_FATAL_IF(tls_binding.ctx == nullptr,
                 "cxlalloc_ptr from unbound thread");
    return tls_binding.pod->heap.pointer(*tls_binding.ctx, offset, len);
}

void
cxlalloc_maintain(void)
{
    if (tls_binding.ctx != nullptr) {
        tls_binding.pod->heap.cleanup(*tls_binding.ctx);
    }
}

int
cxlalloc_stats_get(cxlalloc_stats_t* out)
{
    if (tls_binding.ctx == nullptr || out == nullptr) {
        return -1;
    }
    auto stats = tls_binding.pod->heap.stats(tls_binding.ctx->mem());
    out->committed_bytes = stats.committed_bytes;
    out->hwcc_bytes = stats.hwcc_bytes;
    out->small_slabs_used = stats.small.length;
    out->large_slabs_used = stats.large.length;
    out->huge_live = stats.huge.live_allocations;
    return 0;
}

} // extern "C"
