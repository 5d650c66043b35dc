/// Fig. 10 (paper §5.3): huge-allocation microbenchmarks — threadtest-huge
/// and xmalloc-huge with increasing thread counts distributed over
/// different process counts. cxlalloc only: "there are no baselines
/// because every other allocator crashes or does not complete".
///
/// Objects are 8 MiB here (the paper uses 1 GiB on a 64 GiB heap; the
/// ratio of object to heap size is preserved). PC-T mapping checks are ON,
/// so cross-process faults and hazard-offset traffic are exercised for
/// real — xmalloc's consumer faults in every mapping the producer created.

#include <cstdio>

#include "support.h"
#include "workload/micro.h"

namespace {

constexpr std::uint64_t kObjectSize = 8 << 20;
constexpr std::uint64_t kPairsPerThread = 48;

bench::Geometry
huge_geometry(std::uint32_t threads)
{
    bench::Geometry geom;
    geom.small_slabs = 64;
    geom.large_slabs = 8;
    geom.huge_regions = threads * 6 + 8;
    geom.huge_region_size = kObjectSize;
    geom.checked_mappings = true;
    return geom;
}

/// Runs body threads spread over @p processes pod processes.
template <typename Body>
bench::RunResult
run_spread(bench::Bundle& b, std::uint32_t threads, std::uint32_t processes,
           Body&& body)
{
    std::vector<pod::Process*> procs(processes);
    procs[0] = b.host_process[0];
    for (std::uint32_t p = 1; p < processes; p++) {
        procs[p] = b.pod->create_process();
        b.heap->attach(*procs[p]);
    }
    std::vector<std::thread> workers;
    std::vector<std::uint64_t> ops(threads, 0);
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t w = 0; w < threads; w++) {
        workers.emplace_back([&, w] {
            auto ctx = b.thread_in(*procs[w % processes]);
            ops[w] = body(*ctx, w);
            b.pod->release_thread(std::move(ctx));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    bench::RunResult r;
    r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
    for (auto o : ops) {
        r.ops += o;
    }
    r.committed_bytes = b.pod->device().committed_bytes();
    r.hwcc_bytes = b.heap->hwcc_bytes();
    return r;
}

void
threadtest_huge(std::uint32_t threads, std::uint32_t processes)
{
    bench::Bundle b = bench::make_bundle("cxlalloc", huge_geometry(threads));
    bench::RunResult r = run_spread(
        b, threads, processes, [&](pod::ThreadContext& ctx, std::uint32_t) {
            std::uint64_t pairs = 0;
            for (std::uint64_t round = 0; round < kPairsPerThread / 4;
                 round++) {
                cxl::HeapOffset held[4];
                for (auto& h : held) {
                    h = b.alloc->allocate(ctx, kObjectSize);
                    CXL_ASSERT(h != 0, "huge space exhausted");
                }
                for (auto h : held) {
                    b.alloc->deallocate(ctx, h);
                    pairs++;
                }
                b.heap->cleanup(ctx);
            }
            return 2 * pairs;
        });
    std::printf("fig10  threadtest-huge  p=%-2u t=%-2u  %9.1f Kops/s  "
                "mapped=%s\n",
                processes, threads, r.mops_wall() * 1000,
                cxlcommon::format_bytes(r.committed_bytes).c_str());
}

void
xmalloc_huge(std::uint32_t threads, std::uint32_t processes)
{
    bench::Bundle b = bench::make_bundle("cxlalloc", huge_geometry(threads));
    workload::XmallocRing ring(threads, /*ring_capacity=*/4);
    bench::RunResult r = run_spread(
        b, threads, processes, [&](pod::ThreadContext& ctx, std::uint32_t w) {
            std::uint64_t done = workload::run_xmalloc(
                *b.alloc, ctx, ring, w, kPairsPerThread, kObjectSize,
                /*touch=*/true);
            b.heap->cleanup(ctx);
            return done;
        });
    std::printf("fig10  xmalloc-huge     p=%-2u t=%-2u  %9.1f Kops/s  "
                "mapped=%s\n",
                processes, threads, r.mops_wall() * 1000,
                cxlcommon::format_bytes(r.committed_bytes).c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Options opt = bench::parse_options(argc, argv);
    std::puts("Fig. 10: huge (8 MiB object) allocation microbenchmarks, "
              "thread count x process count (cxlalloc only;");
    std::puts("no baseline completes this workload). PC-T checks ON: "
              "cross-process faults + hazard offsets exercised.\n");
    for (std::uint32_t processes : {1u, 2u, 4u}) {
        for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
            if (threads < processes) {
                continue;
            }
            threadtest_huge(threads, processes);
        }
    }
    std::puts("");
    for (std::uint32_t processes : {1u, 2u, 4u}) {
        for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
            if (threads < processes) {
                continue;
            }
            xmalloc_huge(threads, processes);
        }
    }
    std::puts("\nPaper shape (Fig. 10): throughput bounded by OS mapping "
              "work, improving with process count (address-space");
    std::puts("parallelism); memory consumption stays modest because the "
              "benchmark never touches the data, only the mappings.");
    bench::finish_metrics(opt);
    return 0;
}
