/// Fig. 12 (paper §5.4.2): small-heap microbenchmarks under different CXL
/// HWcc architectural assumptions — cxlalloc and ralloc on local DRAM,
/// CXL memory with HWcc, and CXL memory with NO HWcc (all synchronization
/// through the NMP mCAS engine).
///
/// Reported throughput here is the *simulated* throughput from the
/// calibrated latency model (paper §5.4 measurements: DRAM 112 ns, CXL
/// 357 ns, mCAS ~2.3 µs) driven by the allocators' actual event streams —
/// wall-clock on this host cannot express a 2.3 µs memory-side CAS.

#include <cstdio>

#include "support.h"
#include "workload/micro.h"

namespace {

constexpr std::uint64_t kTotalPairs = 120'000;
constexpr std::uint64_t kBatch = 256;
constexpr std::uint64_t kObjectSize = 64;

void
run_one(const char* workload_name, const std::string& alloc_name,
        bench::MemoryMode mode, std::uint32_t threads)
{
    bench::Geometry geom;
    bench::Bundle b = bench::make_bundle(alloc_name, geom, mode);
    bench::RunResult r;
    bool is_threadtest = std::string(workload_name) == "threadtest-small";
    if (is_threadtest) {
        std::uint64_t rounds = kTotalPairs / threads / kBatch;
        r = bench::run_threads(
            b, threads, [&](pod::ThreadContext& ctx, std::uint32_t) {
                return 2 * workload::run_threadtest(*b.alloc, ctx, rounds,
                                                    kBatch, kObjectSize);
            });
    } else {
        workload::XmallocRing ring(threads);
        r = bench::run_threads(
            b, threads, [&](pod::ThreadContext& ctx, std::uint32_t w) {
                return workload::run_xmalloc(*b.alloc, ctx, ring, w,
                                             kTotalPairs / threads,
                                             kObjectSize);
            });
    }
    std::printf("fig12  %-16s %-14s-%-5s t=%-2u  %9.3f Mops/s (sim)  "
                "%8.3f Mops/s (wall)  mcas=%-8llu flush=%llu\n",
                workload_name, alloc_name.c_str(),
                bench::to_string(mode), threads, r.mops_sim(), r.mops_wall(),
                static_cast<unsigned long long>(r.events.mcas_ops),
                static_cast<unsigned long long>(r.events.flushes));
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Options opt = bench::parse_options(argc, argv);
    std::puts("Fig. 12: microbenchmark throughput under CXL HWcc "
              "assumptions (local DRAM / CXL+HWcc / CXL+mCAS)");
    const char* workloads[] = {"threadtest-small", "xmalloc-small"};
    for (const char* w : workloads) {
        for (std::uint32_t threads : {1u, 2u, 4u}) {
            for (const std::string& alloc : {std::string("cxlalloc"),
                                             std::string("ralloc-like")}) {
                for (bench::MemoryMode mode :
                     {bench::MemoryMode::Local, bench::MemoryMode::CxlHwcc,
                      bench::MemoryMode::CxlMcas}) {
                    run_one(w, alloc, mode, threads);
                }
            }
        }
        std::puts("");
    }
    std::puts("Paper shape (Fig. 12): local ~= hwcc for both; under mCAS, "
              "cxlalloc-threadtest keeps ~80% of hwcc (local ops stay");
    std::puts("cached; no mCAS on the fast path) while ralloc-mcas pays an "
              "uncachable metadata read per free (10-99x gap);");
    std::puts("on xmalloc every remote free is an mCAS: cxlalloc-mcas drops "
              "to ~1% of hwcc but scales past ralloc-mcas, whose shared");
    std::puts("slab metadata contends on the engine.");
    std::puts("Beyond the paper: here a no-HWcc remote free waits in a "
              "pending list and lands coalesced (one mCAS per slab");
    std::puts("per drain), so cxlalloc-mcas xmalloc is not bound by a "
              "round trip per free (EXPERIMENTS.md).");
    bench::finish_metrics(opt);
    return 0;
}
