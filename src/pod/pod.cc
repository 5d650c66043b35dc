#include "pod/pod.h"

#include "common/assert.h"

namespace pod {

Pod::Pod(const PodConfig& config)
    : config_(config), device_(config.device), nmp_(&device_)
{
    CXL_FATAL_IF(device_.windows() != config_.topology.devices(),
                 "topology devices must match device windows");
    slots_.fill(SlotState::Free);
}

Process*
Pod::create_process(HostId host)
{
    std::lock_guard<std::mutex> lock(mu_);
    CXL_FATAL_IF(processes_.size() >= cxl::kMaxProcesses,
                 "too many processes in pod");
    CXL_FATAL_IF(host >= config_.topology.hosts(),
                 "process host id outside the pod topology");
    auto pid = static_cast<std::uint32_t>(processes_.size());
    processes_.push_back(std::make_unique<Process>(
        this, pid, config_.checked_mappings, host));
    return processes_.back().get();
}

std::unique_ptr<ThreadContext>
Pod::create_thread(Process* process)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint32_t tid = 1; tid <= cxl::kMaxThreads; tid++) {
        if (slots_[tid] == SlotState::Free) {
            slots_[tid] = SlotState::Live;
            slot_host_[tid] = static_cast<HostId>(process->host());
            return std::make_unique<ThreadContext>(
                process, static_cast<cxl::ThreadId>(tid));
        }
    }
    CXL_FATAL("no free thread slots in pod");
}

void
Pod::mark_crashed(std::unique_ptr<ThreadContext> context,
                  CrashSeverity severity)
{
    CXL_ASSERT(context != nullptr, "null context");
    if (severity == CrashSeverity::Process) {
        // The host's coherent cache survives a process crash; the dead
        // thread's stores remain visible to the pod.
        context->mem().cache().writeback_all();
    } else {
        // A host crash loses everything that was not explicitly flushed.
        context->mem().drop_cache();
    }
    std::lock_guard<std::mutex> lock(mu_);
    CXL_ASSERT(slots_[context->tid()] == SlotState::Live,
               "crashing a non-live slot");
    slots_[context->tid()] = SlotState::Crashed;
}

std::unique_ptr<ThreadContext>
Pod::adopt_thread(Process* process, cxl::ThreadId tid)
{
    std::lock_guard<std::mutex> lock(mu_);
    CXL_ASSERT(slots_[tid] == SlotState::Crashed,
               "adopting a slot that is not crashed");
    slots_[tid] = SlotState::Live;
    slot_host_[tid] = static_cast<HostId>(process->host());
    return std::make_unique<ThreadContext>(process, tid);
}

void
Pod::release_thread(std::unique_ptr<ThreadContext> context)
{
    CXL_ASSERT(context != nullptr, "null context");
    std::lock_guard<std::mutex> lock(mu_);
    CXL_ASSERT(slots_[context->tid()] == SlotState::Live,
               "releasing a non-live slot");
    slots_[context->tid()] = SlotState::Free;
}

SlotState
Pod::slot_state(cxl::ThreadId tid) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slots_[tid];
}

std::vector<cxl::ThreadId>
Pod::crashed_threads() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<cxl::ThreadId> out;
    for (std::uint32_t tid = 1; tid <= cxl::kMaxThreads; tid++) {
        if (slots_[tid] == SlotState::Crashed) {
            out.push_back(static_cast<cxl::ThreadId>(tid));
        }
    }
    return out;
}

std::vector<cxl::ThreadId>
Pod::mark_host_crashed(HostId host)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<cxl::ThreadId> out;
    for (std::uint32_t tid = 1; tid <= cxl::kMaxThreads; tid++) {
        if (slots_[tid] == SlotState::Live && slot_host_[tid] == host) {
            slots_[tid] = SlotState::Crashed;
            out.push_back(static_cast<cxl::ThreadId>(tid));
        }
    }
    return out;
}

} // namespace pod
