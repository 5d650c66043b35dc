/// Ablation of the unsized-list spill threshold (paper §3.1.1: slabs are
/// transferred to the global free list when the thread-local unsized list
/// reaches "a configurable threshold length"). Sweeps the threshold on the
/// xmalloc workload, where stolen slabs constantly flow through the
/// unsized lists: a low threshold bounces slabs through the contended
/// global list; a high threshold hoards memory per thread.

#include <cstdio>

#include "support.h"
#include "workload/micro.h"

namespace {

void
run_with_limit(std::uint32_t limit, std::uint32_t threads)
{
    cxlalloc::Config cfg;
    cfg.small_slabs = 2048;
    cfg.large_slabs = 16;
    cfg.huge_regions = 4;
    cfg.unsized_limit = limit;
    pod::PodConfig pc;
    pc.device = cxlalloc::PodShardedAllocator::device_config(
        cfg, pc.topology, cxl::CoherenceMode::PartialHwcc);
    pod::Pod pod(pc);
    cxlalloc::PodShardedAllocator heap(pod, cfg);
    baselines::CxlallocAdapter adapter(&heap);
    pod::Process* proc = pod.create_process();
    heap.attach(*proc);

    workload::XmallocRing ring(threads);
    std::vector<std::thread> workers;
    std::vector<std::uint64_t> ops(threads, 0);
    std::vector<cxl::MemEventCounters> ev(threads);
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t w = 0; w < threads; w++) {
        workers.emplace_back([&, w] {
            auto ctx = pod.create_thread(proc);
            heap.attach_thread(*ctx);
            ops[w] = workload::run_xmalloc(adapter, *ctx, ring, w,
                                           200'000 / threads, 64);
            ev[w] = ctx->mem().counters();
            pod.release_thread(std::move(ctx));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::uint64_t total_ops = 0;
    cxl::MemEventCounters total;
    for (std::uint32_t w = 0; w < threads; w++) {
        total_ops += ops[w];
        total += ev[w];
    }
    auto probe = pod.create_thread(proc);
    heap.attach_thread(*probe);
    auto stats = heap.shard(0).stats(probe->mem());
    pod.release_thread(std::move(probe));
    std::printf("ablate unsized-limit=%-3u t=%-2u  %7.2f Mops/s  "
                "cas=%-8llu cas-fail=%-6llu heap=%u slabs "
                "global-free=%u\n",
                limit, threads, static_cast<double>(total_ops) / secs / 1e6,
                static_cast<unsigned long long>(total.cas_ops),
                static_cast<unsigned long long>(total.cas_failures),
                stats.small.length, stats.small.global_free);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Options opt = bench::parse_options(argc, argv);
    std::puts("Ablation: thread-local unsized free list spill threshold "
              "(xmalloc-small, producer/consumer slab flow)");
    for (std::uint32_t threads : {2u, 4u}) {
        for (std::uint32_t limit : {0u, 1u, 4u, 16u, 64u}) {
            run_with_limit(limit, threads);
        }
        std::puts("");
    }
    std::puts("Expected: limit=0 sends every recycled slab through the "
              "global list (max CAS traffic); large limits cut the CAS");
    std::puts("traffic but let each thread hoard slabs (watch heap size). "
              "The default (4) balances the two.");
    bench::finish_metrics(opt);
    return 0;
}
