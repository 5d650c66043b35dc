#include "pod/thread_context.h"

#include "pod/pod.h"
#include "pod/process.h"

namespace pod {

ThreadContext::ThreadContext(Process* process, cxl::ThreadId tid)
    : process_(process), tid_(tid),
      mem_(&process->pod().device(), &process->pod().nmp(), tid)
{
    if (process->checked()) {
        mem_.set_mapping_guard(process);
    }
    // The 1x1 pod has one zero-cost edge: routing it would only add
    // per-access work and pod.local_ops counts to every single-host run.
    const Topology& topo = process->pod().topology();
    if (!topo.trivial()) {
        auto host = static_cast<HostId>(process->host());
        mem_.set_pod_routing(topo.row(host), topo.devices(),
                             topo.home_of(host), host,
                             topo.state_row(host));
    }
}

} // namespace pod
