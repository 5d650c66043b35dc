/// @file
/// Shared benchmark harness: constructs any evaluated allocator by name on
/// a fresh pod, runs per-thread workloads, and reports wall-clock plus
/// simulated time and memory (see DESIGN.md §2 on why both).
///
/// There is one construction path: cxlalloc always runs as a
/// PodShardedAllocator over the requested topology, and a single host is
/// the 1x1 pod (one window, one shard, a zero-cost edge). Baselines run on
/// a single-host pod only.
///
/// Memory-mode naming follows Fig. 12: "local" = host DRAM latencies,
/// "hwcc" = CXL memory with inter-host HWcc, "mcas" = CXL memory with no
/// HWcc (all synchronization through the NMP engine). Every bundle thread
/// runs under its mode's latency model, so simulated time is always
/// reported next to wall-clock.

#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/boostish.h"
#include "baselines/cxlalloc_adapter.h"
#include "baselines/cxlshmish.h"
#include "baselines/lightningish.h"
#include "baselines/mimic.h"
#include "baselines/rallocish.h"
#include "common/assert.h"
#include "common/cacheline.h"
#include "common/stats.h"
#include "cxlalloc/pod_shard.h"
#include "obs/registry.h"
#include "pod/pod.h"
#include "pod/topology.h"

namespace bench {

/// Process-wide metrics switch. When non-null (bench::parse_options sets it
/// for --metrics-json/--metrics-csv runs), make_bundle wires cxlalloc's op
/// instrumentation into this registry and run_threads publishes each
/// session's MemSession counters and sim_ns into it. Null (the default)
/// keeps all hot paths uninstrumented.
inline obs::MetricsRegistry*&
bundle_metrics()
{
    static obs::MetricsRegistry* registry = nullptr;
    return registry;
}

/// Memory substrate for a run (Fig. 12 series).
enum class MemoryMode { Local, CxlHwcc, CxlMcas };

inline const char*
to_string(MemoryMode m)
{
    switch (m) {
      case MemoryMode::Local:
        return "local";
      case MemoryMode::CxlHwcc:
        return "hwcc";
      case MemoryMode::CxlMcas:
        return "mcas";
    }
    return "?";
}

/// The seven allocators of the paper's evaluation (Table 1).
inline std::vector<std::string>
all_allocators()
{
    return {"cxlalloc",     "cxlalloc-nonrecoverable",
            "mimalloc-like", "ralloc-like",
            "cxl-shm-like",  "boost-like",
            "lightning-like"};
}

/// One fully constructed allocator-under-test on its own fresh pod.
struct Bundle {
    std::unique_ptr<pod::Pod> pod;
    /// The cxlalloc heap (null for baselines): one shard per device window.
    std::unique_ptr<cxlalloc::PodShardedAllocator> heap;
    std::unique_ptr<baselines::PodAllocator> alloc;
    /// One process per host (index = HostId), attached to the heap.
    std::vector<pod::Process*> host_process;
    /// The mode's latency model, installed on every bundle thread.
    cxl::LatencyModel latency;
    /// Device offset of host 0's extra region (Geometry::extra_bytes).
    cxl::HeapOffset extra_base = 0;
    /// Bytes of each host's extra slice (cacheline-rounded extra_bytes).
    std::uint64_t extra_per_host = 0;

    /// Spawns a thread in @p proc.
    std::unique_ptr<pod::ThreadContext>
    thread_in(pod::Process& proc)
    {
        auto ctx = pod->create_thread(&proc);
        alloc->attach_thread(*ctx);
        ctx->mem().set_latency_model(&latency);
        return ctx;
    }

    /// Spawns a thread in @p host's process.
    std::unique_ptr<pod::ThreadContext>
    thread(pod::HostId host = 0)
    {
        return thread_in(*host_process[host]);
    }

    /// Device offset of @p host's private extra slice (cxlalloc bundles):
    /// hosts sharing a home device get consecutive extra_per_host slices
    /// of its window.
    cxl::HeapOffset
    extra_base_for_host(pod::HostId host) const
    {
        const pod::Topology& topo = pod->topology();
        cxl::DeviceId home = topo.home_of(host);
        std::uint64_t rank = 0;
        for (pod::HostId h = 0; h < host; h++) {
            if (topo.home_of(h) == home) {
                rank++;
            }
        }
        return heap->extra_base(home) + rank * extra_per_host;
    }
};

/// Heap geometry knobs for a run.
struct Geometry {
    std::uint32_t small_slabs = 2048;       // 64 MiB
    std::uint32_t large_slabs = 96;         // 48 MiB
    std::uint32_t huge_regions = 16;
    std::uint64_t huge_region_size = 8 << 20;
    std::uint64_t extra_bytes = 0;          ///< index arrays, queue meta...
    /// Full hardware coherence (the paper's DRAM-machine experiments,
    /// Figs. 7-10): atomics work anywhere, including the extra region.
    bool full_hwcc = false;
    /// Enforce PC-T mapping checks per access (Fig. 10 huge study).
    bool checked_mappings = false;
    /// Per-shard reference-cell table (Layout::app_sync; detectable-CAS
    /// words the tiered benchmarks and the migrator publish through).
    std::uint64_t app_sync_bytes = 0;
    /// Tiered placement knobs, used only when the pod topology has
    /// LocalDram windows (pod::Topology::with_local_dram): geometry of the
    /// per-host DRAM shard and the Config::dram_percent policy split.
    std::uint32_t dram_small_slabs = 64; // 2 MiB
    std::uint32_t dram_percent = 0;
};

/// Builds @p which ("cxlalloc", "ralloc-like", ...) on a fresh pod of
/// @p topology. cxlalloc gets one shard of @p geom's geometry per device
/// window, plus enough extra window space to give every host homed on it a
/// private Geometry::extra_bytes slice. Baselines need the 1x1 topology.
inline Bundle
make_bundle(const std::string& which, const Geometry& geom,
            MemoryMode mode = MemoryMode::Local,
            const pod::Topology& topology = pod::Topology())
{
    Bundle b;
    switch (mode) {
      case MemoryMode::Local:
        b.latency = cxl::LatencyModel::local_dram();
        break;
      case MemoryMode::CxlHwcc:
        b.latency = cxl::LatencyModel::cxl_hwcc();
        break;
      case MemoryMode::CxlMcas:
        b.latency = cxl::LatencyModel::cxl_mcas();
        break;
    }
    cxl::CoherenceMode coherence = mode == MemoryMode::CxlMcas
                                       ? cxl::CoherenceMode::NoHwcc
                                       : (geom.full_hwcc
                                              ? cxl::CoherenceMode::FullHwcc
                                              : cxl::CoherenceMode::PartialHwcc);
    pod::PodConfig pc;
    pc.checked_mappings = geom.checked_mappings;

    if (which == "cxlalloc" || which == "cxlalloc-nonrecoverable") {
        cxlalloc::Config cfg;
        cfg.small_slabs = geom.small_slabs;
        cfg.large_slabs = geom.large_slabs;
        cfg.huge_regions = geom.huge_regions;
        cfg.huge_region_size = geom.huge_region_size;
        cfg.recoverable = which == "cxlalloc";
        cfg.app_sync_bytes = geom.app_sync_bytes;
        cfg.dram_percent = geom.dram_percent;

        // LocalDram windows hold a smaller host-private shard; the policy
        // split (dram_percent) rides on the shard config above.
        bool tiered = topology.has_dram_tier();
        cxlalloc::Config dram_cfg = cfg;
        if (tiered) {
            dram_cfg.small_slabs = geom.dram_small_slabs;
            dram_cfg.large_slabs = 8;
            dram_cfg.huge_regions = 1;
            dram_cfg.huge_region_size = 1 << 20;
        }

        // Worst-case hosts homed on one device decides the per-window
        // extra.
        std::vector<std::uint32_t> homed(topology.devices(), 0);
        for (pod::HostId h = 0; h < topology.hosts(); h++) {
            homed[topology.home_of(h)]++;
        }
        std::uint32_t max_homed = 1;
        for (std::uint32_t n : homed) {
            max_homed = std::max(max_homed, n);
        }
        b.extra_per_host = cxlcommon::align_up(geom.extra_bytes,
                                               cxlcommon::kCacheLine);

        pc.device = cxlalloc::PodShardedAllocator::device_config(
            cfg, topology, coherence, /*simulate_cache=*/false,
            /*extra_window_bytes=*/b.extra_per_host * max_homed,
            tiered ? &dram_cfg : nullptr);
        pc.topology = topology;
        b.pod = std::make_unique<pod::Pod>(pc);
        b.heap = std::make_unique<cxlalloc::PodShardedAllocator>(
            *b.pod, cfg, tiered ? &dram_cfg : nullptr);
        b.heap->set_metrics(bundle_metrics());
        for (pod::HostId h = 0; h < topology.hosts(); h++) {
            b.host_process.push_back(b.pod->create_process(h));
            b.heap->attach(*b.host_process.back());
        }
        b.alloc = std::make_unique<baselines::CxlallocAdapter>(b.heap.get());
        b.extra_base = b.extra_base_for_host(0);
        return b;
    }
    CXL_FATAL_IF(!topology.trivial(), "baselines run on a single-host pod");

    // Baselines share a flat arena; ralloc's metadata goes at the front of
    // the sync region so it works under mCAS.
    std::uint64_t arena_size =
        static_cast<std::uint64_t>(geom.small_slabs) * (32 << 10) +
        static_cast<std::uint64_t>(geom.large_slabs) * (512 << 10) +
        geom.huge_regions * geom.huge_region_size;
    std::uint32_t ralloc_slabs =
        static_cast<std::uint32_t>(arena_size / (64 << 10));
    std::uint64_t meta_bytes =
        baselines::Rallocish::meta_size(ralloc_slabs) + 4096;
    std::uint64_t arena =
        (64 + meta_bytes + cxl::kPageSize - 1) & ~(cxl::kPageSize - 1);

    pc.device.mode = coherence;
    pc.device.sync_region_size = arena; // metadata prefix is coherent
    b.extra_base = arena + arena_size;
    pc.device.size = ((b.extra_base + geom.extra_bytes + cxl::kPageSize - 1) &
                      ~(cxl::kPageSize - 1));
    b.pod = std::make_unique<pod::Pod>(pc);
    b.host_process.push_back(b.pod->create_process());

    if (which == "mimalloc-like") {
        b.alloc = std::make_unique<baselines::Mimic>(*b.pod, arena,
                                                     arena_size);
    } else if (which == "boost-like") {
        b.alloc = std::make_unique<baselines::Boostish>(*b.pod, arena,
                                                        arena_size);
    } else if (which == "lightning-like") {
        b.alloc = std::make_unique<baselines::Lightningish>(*b.pod, arena,
                                                            arena_size);
    } else if (which == "cxl-shm-like") {
        b.alloc = std::make_unique<baselines::Cxlshmish>(*b.pod, arena,
                                                         arena_size);
    } else if (which == "ralloc-like") {
        b.alloc = std::make_unique<baselines::Rallocish>(
            *b.pod, /*meta=*/64, /*data=*/arena, ralloc_slabs);
    } else {
        std::fprintf(stderr, "unknown allocator '%s'\n", which.c_str());
        std::abort();
    }
    return b;
}

/// Result of one multi-threaded run.
struct RunResult {
    double wall_s = 0;
    std::uint64_t ops = 0;
    std::uint64_t sim_ns = 0; ///< max over threads (critical path)
    std::uint64_t committed_bytes = 0;
    std::uint64_t hwcc_bytes = 0;
    std::uint64_t metadata_bytes = 0;
    cxl::MemEventCounters events;

    double
    mops_wall() const
    {
        return wall_s > 0 ? static_cast<double>(ops) / wall_s / 1e6 : 0;
    }

    double
    mops_sim() const
    {
        return sim_ns > 0
                   ? static_cast<double>(ops) / static_cast<double>(sim_ns) *
                         1e3
                   : 0;
    }
};

/// Runs @p body once per thread and aggregates results. Threads spread
/// evenly over the pod's hosts in index order: worker w runs on host
/// w * hosts / nthreads, so hosts x k threads give each host k
/// consecutive workers. @p body returns the number of operations it
/// performed. A thread's simulated clock and counters are read when its
/// body returns: the teardown after it (detach_thread, which lands the
/// frees cxlalloc deferred and hands its slabs back) is not the
/// workload's.
inline RunResult
run_threads(Bundle& b, std::uint32_t nthreads,
            const std::function<std::uint64_t(pod::ThreadContext&,
                                              std::uint32_t)>& body)
{
    auto hosts = static_cast<std::uint32_t>(b.host_process.size());
    std::vector<std::thread> workers;
    std::vector<std::uint64_t> ops(nthreads, 0);
    std::vector<std::uint64_t> sim(nthreads, 0);
    std::vector<cxl::MemEventCounters> events(nthreads);
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t w = 0; w < nthreads; w++) {
        workers.emplace_back([&, w] {
            auto host = static_cast<pod::HostId>(w * hosts / nthreads);
            auto ctx = b.thread(host);
            ops[w] = body(*ctx, w);
            sim[w] = ctx->mem().sim_ns();
            events[w] = ctx->mem().counters();
            if (obs::MetricsRegistry* reg = bundle_metrics()) {
                ctx->mem().publish_metrics(*reg);
                reg->shard(ctx->tid()).add(reg->counter("run.ops"), ops[w]);
            }
            b.alloc->detach_thread(*ctx);
            b.pod->release_thread(std::move(ctx));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    RunResult r;
    r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
    for (std::uint32_t w = 0; w < nthreads; w++) {
        r.ops += ops[w];
        r.sim_ns = std::max(r.sim_ns, sim[w]);
        r.events += events[w];
    }
    if (obs::MetricsRegistry* reg = bundle_metrics()) {
        reg->set_gauge(reg->gauge("run.sim_ns_max"),
                       static_cast<double>(r.sim_ns));
    }
    r.committed_bytes = b.pod->device().committed_bytes();
    r.metadata_bytes = b.alloc->metadata_overhead_bytes();
    auto probe = b.thread();
    r.hwcc_bytes = b.alloc->hwcc_bytes(probe->mem());
    b.pod->release_thread(std::move(probe));
    return r;
}

/// Prints one benchmark series row.
inline void
print_row(const char* figure, const std::string& workload,
          const std::string& alloc, std::uint32_t threads,
          const RunResult& r, const char* note = "")
{
    std::printf("%-6s %-16s %-24s t=%-2u  %9.3f Mops/s (wall)  "
                "mem=%-11s hwcc=%-11s%s%s\n",
                figure, workload.c_str(), alloc.c_str(), threads,
                r.mops_wall(),
                cxlcommon::format_bytes(r.committed_bytes + r.metadata_bytes)
                    .c_str(),
                cxlcommon::format_bytes(r.hwcc_bytes).c_str(),
                note[0] != '\0' ? "  " : "", note);
}

} // namespace bench
