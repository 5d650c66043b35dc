/// @file
/// Shared test rig: a pod + allocator with a small heap geometry.

#pragma once

#include <gtest/gtest.h>
#include <cstring>
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

/// Whether thread @p tid's host pending rows in @p alloc (those it has
/// loaded) equal its pending lines as the device holds them, read through
/// @p mem, another thread's session. For a quiescent point with no round
/// of the thread out (its out line's host copy holds the round's operands).
inline testing::AssertionResult
host_rows_match(cxlalloc::CxlAllocator& alloc, cxl::MemSession& mem,
                cxl::ThreadId tid)
{
    const cxlalloc::ThreadState& ts = alloc.thread_state(tid);
    if (!ts.pending) {
        return testing::AssertionSuccess() << "no host row";
    }
    for (int large = 0; large < 2; large++) {
        const cxlalloc::PendingRow& row = ts.pending[large];
        cxlalloc::SlabHeap& heap =
            large != 0 ? alloc.large_heap() : alloc.small_heap();
        for (std::uint32_t i = 0; i < row.lines; i++) {
            cxlalloc::PendingList device;
            mem.read_bytes(heap.pending_line(tid, i), &device, sizeof device);
            const cxlalloc::PendingList& host = row.line[i];
            if (std::memcmp(&host, &device, sizeof device) != 0) {
                return testing::AssertionFailure()
                       << (large != 0 ? "large" : "small") << " line " << i
                       << ": host n " << int{host.n} << " size "
                       << host.size() << " stamp " << host.stamp
                       << ", device n " << int{device.n} << " size "
                       << device.size() << " stamp " << device.stamp;
            }
        }
    }
    return testing::AssertionSuccess();
}

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
