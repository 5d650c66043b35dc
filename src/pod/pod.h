/// @file
/// Pod: the top-level simulated system — one shared CXL device, its NMP
/// engine, the set of sharing processes, and the pod-global thread slots.

#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "cxl/device.h"
#include "cxl/nmp.h"
#include "cxl/types.h"
#include "pod/process.h"
#include "pod/thread_context.h"
#include "pod/topology.h"

namespace pod {

/// Pod-wide configuration.
struct PodConfig {
    cxl::DeviceConfig device;
    /// When true, processes run in checked-mapping mode: PC-T is enforced
    /// per access and faults go through the handler.
    bool checked_mappings = false;
    /// Host/device topology; the device must have windows ==
    /// topology.devices(). The default is the 1x1 pod: one host, one
    /// device, a zero-cost edge (a single host is the smallest pod).
    /// Beyond 1x1, every thread's session is routed through its host's
    /// edge row.
    Topology topology;
};

/// State of a pod-global thread slot.
enum class SlotState : std::uint8_t {
    Free,
    Live,
    /// Thread crashed; its slot (and in-heap state) awaits recovery.
    Crashed,
};

/// The simulated CXL pod.
class Pod {
  public:
    explicit Pod(const PodConfig& config);

    cxl::Device& device() { return device_; }
    cxl::Nmp& nmp() { return nmp_; }
    const PodConfig& config() const { return config_; }
    const Topology& topology() const { return config_.topology; }

    /// Spawns a simulated process on @p host (a host-side construct, so a
    /// plain mutex is fine here — only shared *device* state must be
    /// lock-free). Threads of the process inherit the host's edge row.
    Process* create_process(HostId host = 0);

    /// Creates a thread in @p process, assigning the lowest free pod-global
    /// thread slot. Thread IDs are 1-based; 0 means "no thread".
    std::unique_ptr<ThreadContext> create_thread(Process* process);

    /// How much state a crash destroys.
    enum class CrashSeverity {
        /// The process dies but the host survives: the host's coherent CPU
        /// cache lives on, so the dead thread's unflushed stores remain
        /// visible (and eventually written back). This is the failure the
        /// paper's recovery protocol targets (OOM kill, software bug).
        Process,
        /// The host (OS) dies: unflushed cache contents are lost. Only
        /// state the SWcc protocol explicitly flushed survives.
        Host,
    };

    /// Marks @p context's slot as crashed and destroys the context. Under
    /// CrashSeverity::Process the simulated cache is written back; under
    /// Host it is dropped.
    void mark_crashed(std::unique_ptr<ThreadContext> context,
                      CrashSeverity severity = CrashSeverity::Process);

    /// Adopts a crashed slot for recovery: a (possibly different) process
    /// resumes the dead thread's identity to repair its heap state.
    std::unique_ptr<ThreadContext> adopt_thread(Process* process,
                                                cxl::ThreadId tid);

    /// Releases a live thread's slot on clean exit.
    void release_thread(std::unique_ptr<ThreadContext> context);

    SlotState slot_state(cxl::ThreadId tid) const;

    /// Thread IDs currently in Crashed state (recovery work list).
    std::vector<cxl::ThreadId> crashed_threads() const;

    /// Declares a whole host dead (liveness verdict or scripted
    /// host-kill): every Live slot owned by @p host flips to Crashed, and
    /// the transitioned tids are returned as the adoption work list.
    ///
    /// Unlike mark_crashed this cannot touch the dead threads' simulated
    /// caches — the host is gone, nobody holds its ThreadContexts. The
    /// semantics match CrashSeverity::Host: unflushed state is lost, so
    /// any context the harness still holds for a returned tid must be
    /// discarded without writeback (or passed to mark_crashed(..., Host)
    /// *before* this call).
    std::vector<cxl::ThreadId> mark_host_crashed(HostId host);

  private:
    PodConfig config_;
    cxl::Device device_;
    cxl::Nmp nmp_;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::array<SlotState, cxl::kMaxThreads + 1> slots_{};
    /// Owning host per slot, maintained alongside slots_.
    std::array<HostId, cxl::kMaxThreads + 1> slot_host_{};
};

} // namespace pod
