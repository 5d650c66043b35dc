/// @file
/// Shared test rig: a pod + allocator with a small heap geometry.

#pragma once

#include <memory>

#include "cxlalloc/allocator.h"
#include "pod/pod.h"

namespace cxltest {

struct RigOptions {
    cxl::CoherenceMode mode = cxl::CoherenceMode::PartialHwcc;
    bool simulate_cache = false;
    bool checked_mappings = false;
    bool recoverable = true;
    std::uint32_t small_slabs = 128; // 4 MiB small data
};

struct Rig {
    explicit Rig(const RigOptions& opt = RigOptions{})
        : config(small_config(opt)),
          pod(pod_config(config, opt)),
          alloc(pod, config)
    {
        process = pod.create_process();
        alloc.attach(*process);
    }

    static cxlalloc::Config
    small_config(const RigOptions& opt)
    {
        cxlalloc::Config cfg;
        cfg.small_slabs = opt.small_slabs;
        cfg.large_slabs = 16;            // 8 MiB large data
        cfg.huge_regions = 8;
        cfg.huge_region_size = 4 << 20;  // 32 MiB huge data
        cfg.huge_descs_per_thread = 16;
        cfg.hazard_slots_per_thread = 8;
        cfg.recoverable = opt.recoverable;
        return cfg;
    }

    static pod::PodConfig
    pod_config(const cxlalloc::Config& cfg, const RigOptions& opt)
    {
        pod::PodConfig pc;
        pc.device =
            cxlalloc::Layout(cfg).device_config(opt.mode, opt.simulate_cache);
        pc.checked_mappings = opt.checked_mappings;
        return pc;
    }

    std::unique_ptr<pod::ThreadContext>
    thread(pod::Process* in_process = nullptr)
    {
        auto ctx = pod.create_thread(in_process ? in_process : process);
        alloc.attach_thread(*ctx);
        return ctx;
    }

    pod::Process*
    new_process()
    {
        pod::Process* p = pod.create_process();
        alloc.attach(*p);
        return p;
    }

    cxlalloc::Config config;
    pod::Pod pod;
    cxlalloc::CxlAllocator alloc;
    pod::Process* process;
};

} // namespace cxltest
