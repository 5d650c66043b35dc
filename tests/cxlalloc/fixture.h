/// @file
/// Shared test rig: a pod + allocator with a small heap geometry.

#pragma once

#include <functional>
#include <memory>

#include "cxlalloc/allocator.h"
#include "pod/pod.h"
#include "sched/hook.h"

namespace cxltest {

struct RigOptions {
    cxl::CoherenceMode mode = cxl::CoherenceMode::PartialHwcc;
    bool simulate_cache = false;
    bool checked_mappings = false;
    bool recoverable = true;
    std::uint32_t small_slabs = 128; // 4 MiB small data
    std::uint32_t large_slabs = 16;  // 8 MiB large data
    std::uint32_t unsized_limit = cxlalloc::Config{}.unsized_limit;
};

/// Runs @p fire once, from inside the first hook event of the installing
/// thread that @p match accepts (install with sched::t_listener = &it):
/// a deterministic way to interleave another thread's work at one exact
/// point of an operation. Hooks are off while @p fire runs.
class FireOnce : public sched::Listener {
  public:
    FireOnce(std::function<bool(const sched::Event&)> match,
             std::function<void()> fire)
        : match_(std::move(match)), fire_(std::move(fire))
    {
    }

    void
    on_event(const sched::Event& event) override
    {
        if (!fired_ && match_(event)) {
            fired_ = true;
            fire_();
        }
    }

    bool fired() const { return fired_; }

  private:
    std::function<bool(const sched::Event&)> match_;
    std::function<void()> fire_;
    bool fired_ = false;
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
        cfg.large_slabs = opt.large_slabs;
        cfg.huge_regions = 8;
        cfg.huge_region_size = 4 << 20;  // 32 MiB huge data
        cfg.huge_descs_per_thread = 16;
        cfg.hazard_slots_per_thread = 8;
        cfg.recoverable = opt.recoverable;
        cfg.unsized_limit = opt.unsized_limit;
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
