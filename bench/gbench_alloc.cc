/// Google-benchmark microbenchmarks of raw allocator primitives: per-op
/// cost of the fast path (alloc/free same thread), the remote-free path,
/// and cxlalloc's recoverable vs non-recoverable ablation. Complements the
/// paper-figure harnesses with statistically-managed single-op timings.
///
/// Besides ns/op, every series reports simulated mem-ops/op (MemSession
/// loads + stores per alloc-or-free), the counter that carries Figs. 9/12:
/// wall-clock ns can hide software overhead that the simulated-access
/// model charges in full.

#include <benchmark/benchmark.h>
#include <utility>

#include "cxlalloc/size_class.h"
#include "support.h"
#include "workload/micro.h"

namespace {

/// Snapshots a session's simulated-memory counters around the timed loop
/// and reports mem-ops/op next to google-benchmark's ns/op. When metrics
/// are enabled (--metrics-json), also publishes the session counters and a
/// per-series gauge into the global registry so the exported snapshot
/// carries the per-op numbers. The session's counters run from its
/// creation to the report; so do the heap's (alloc.*): the report stops
/// them, so a ratio across the two (alloc.drain_blocks /
/// mem.mcas_batch_ops, blocks per drain operand) means what it says.
class MemOpsProbe {
  public:
    MemOpsProbe(bench::Bundle& b, cxl::MemSession& mem)
        : bundle_(b), mem_(mem), loads0_(mem.counters().loads),
          stores0_(mem.counters().stores),
          fences0_(mem.counters().fences),
          flushed0_(mem.counters().flushed_lines),
          mcas0_(mem.counters().mcas_ops)
    {
    }

    void
    report(benchmark::State& state, std::uint64_t ops,
           const std::string& label)
    {
        if (ops == 0) {
            return;
        }
        auto loads = static_cast<double>(mem_.counters().loads - loads0_);
        auto stores = static_cast<double>(mem_.counters().stores - stores0_);
        auto fences = static_cast<double>(mem_.counters().fences - fences0_);
        auto flushed =
            static_cast<double>(mem_.counters().flushed_lines - flushed0_);
        auto mcas = static_cast<double>(mem_.counters().mcas_ops - mcas0_);
        auto n = static_cast<double>(ops);
        state.counters["loads_per_op"] = loads / n;
        state.counters["stores_per_op"] = stores / n;
        state.counters["mem_ops_per_op"] = (loads + stores) / n;
        // The fence-elision scoreboard: ordering instructions per op are
        // what the deferred-record + dirty-line work drives down, and the
        // CI budget gate holds them down (verify_metrics_json --budget).
        state.counters["fences_per_op"] = fences / n;
        state.counters["flushed_lines_per_op"] = flushed / n;
        // NMP mCAS operands, serial and batched (NoHwcc sessions only).
        state.counters["mcas_ops_per_op"] = mcas / n;
        if (obs::MetricsRegistry* reg = bench::bundle_metrics()) {
            mem_.publish_metrics(*reg);
            obs::MetricsShard& sh = reg->shard(mem_.tid());
            sh.add(reg->counter("run.ops"), ops);
            reg->set_gauge(reg->gauge("gbench." + label + ".mem_ops_per_op"),
                           (loads + stores) / n);
            reg->set_gauge(reg->gauge("gbench." + label + ".fences_per_op"),
                           fences / n);
            reg->set_gauge(
                reg->gauge("gbench." + label + ".flushed_lines_per_op"),
                flushed / n);
            if (mem_.device()->mode() == cxl::CoherenceMode::NoHwcc) {
                // The mCAS series split the access count: every counter
                // read the NoHwcc drain makes is a load, and every help
                // record a serial mCAS.
                reg->set_gauge(
                    reg->gauge("gbench." + label + ".loads_per_op"),
                    loads / n);
                reg->set_gauge(
                    reg->gauge("gbench." + label + ".stores_per_op"),
                    stores / n);
                reg->set_gauge(
                    reg->gauge("gbench." + label + ".mcas_ops_per_op"),
                    mcas / n);
            }
            if (bundle_.heap) {
                bundle_.heap->set_metrics(nullptr);
            }
        }
    }

  private:
    bench::Bundle& bundle_;
    cxl::MemSession& mem_;
    std::uint64_t loads0_;
    std::uint64_t stores0_;
    std::uint64_t fences0_;
    std::uint64_t flushed0_;
    std::uint64_t mcas0_;
};

/// One untimed alloc+free pair before a probe starts: the slab acquisition
/// the first allocation pays stays out of the per-op gauges, which then
/// read the steady-state fast path whatever iteration count
/// google-benchmark picks.
void
warm_up_pair(bench::Bundle& b, pod::ThreadContext& ctx, std::uint64_t size)
{
    b.alloc->deallocate(ctx, b.alloc->allocate(ctx, size));
}

/// alloc+free pair on the fast path, per allocator. The size argument
/// selects the small-heap class: 8 B is the paper's worst case for
/// per-slab bitset scans (4096 blocks = 64 words), 64 B the common case.
void
BM_AllocFreePair(benchmark::State& state, const std::string& name)
{
    const auto size = static_cast<std::uint64_t>(state.range(0));
    bench::Geometry geom;
    geom.small_slabs = 512;
    geom.large_slabs = 8;
    geom.huge_regions = 2;
    bench::Bundle b = bench::make_bundle(name, geom);
    auto ctx = b.thread();
    warm_up_pair(b, *ctx, size);
    MemOpsProbe probe(b, ctx->mem());
    for (auto _ : state) {
        cxl::HeapOffset p = b.alloc->allocate(*ctx, size);
        // Read-only: GCC's sanitizer builds miscompile the read-write form
        // ("+m,r") and hand the free a clobbered offset.
        benchmark::DoNotOptimize(std::as_const(p));
        b.alloc->deallocate(*ctx, p);
    }
    state.SetItemsProcessed(state.iterations() * 2);
    probe.report(state, state.iterations() * 2,
                 "alloc_free_pair." + name + ".sz" + std::to_string(size));
    b.pod->release_thread(std::move(ctx));
}

/// Remote-free round trip: thread A allocates a batch of blocks of the
/// @p sizes, thread B frees it. Under mCAS memory mode B's remote frees
/// wait in its pending lines, so each batch ends with B's cleanup, whose
/// drain rounds land them. The per-op gauges (gbench.remote_free.<name>
/// <series>.*) cover a fixed run of batches after one untimed warm-up
/// batch, ahead of the timed loop, so they read the same whatever
/// iteration count google-benchmark picks.
void
BM_RemoteFreeBatch(benchmark::State& state, const std::string& name,
                   bench::MemoryMode mode, std::vector<std::uint64_t> sizes,
                   const std::string& series)
{
    bench::Geometry geom;
    geom.small_slabs = 512;
    geom.large_slabs = 8;
    geom.huge_regions = 2;
    bench::Bundle b = bench::make_bundle(name, geom, mode);
    auto producer = b.thread();
    auto consumer = b.thread();
    const bool drain = mode == bench::MemoryMode::CxlMcas;
    const auto n = static_cast<std::int64_t>(sizes.size());
    constexpr int kProbeBatches = 64;
    std::vector<cxl::HeapOffset> batch(sizes.size());
    auto round_trip = [&] {
        for (std::size_t i = 0; i < sizes.size(); i++) {
            batch[i] = b.alloc->allocate(*producer, sizes[i]);
        }
        for (auto p : batch) {
            b.alloc->deallocate(*consumer, p);
        }
        if (drain) {
            b.heap->cleanup(*consumer);
        }
    };
    round_trip();
    MemOpsProbe probe(b, consumer->mem());
    for (int i = 0; i < kProbeBatches; i++) {
        round_trip();
    }
    probe.report(state, kProbeBatches * n, "remote_free." + name + series);
    for (auto _ : state) {
        round_trip();
    }
    state.SetItemsProcessed(state.iterations() * n * 2);
    b.pod->release_thread(std::move(producer));
    b.pod->release_thread(std::move(consumer));
}

/// One slab fill per op: the 32 allocations of a 1 KiB-class slab, the
/// last of which detaches it, then their 32 local frees, the first of
/// which relinks it (the class's lone slab stays warm, so no op inits
/// one). The owner's pin keeps a Detached slab its own, so a detach
/// writes nothing back: fences and flushed lines per op read 0 (a detach
/// that wrote back its descriptor and record would read 1 and 2).
void
BM_SlabFill(benchmark::State& state)
{
    constexpr std::uint64_t kSize = 1024;
    bench::Geometry geom;
    geom.small_slabs = 512;
    geom.large_slabs = 8;
    geom.huge_regions = 2;
    bench::Bundle b = bench::make_bundle("cxlalloc", geom);
    auto ctx = b.thread();
    std::vector<cxl::HeapOffset> fill(cxlalloc::small_blocks_per_slab(
        cxlalloc::small_class_for(kSize)));
    auto one_fill = [&] {
        for (cxl::HeapOffset& p : fill) {
            p = b.alloc->allocate(*ctx, kSize);
        }
        for (cxl::HeapOffset p : fill) {
            b.alloc->deallocate(*ctx, p);
        }
    };
    one_fill(); // the slab's Init stays out of the gauges
    MemOpsProbe probe(b, ctx->mem());
    for (auto _ : state) {
        one_fill();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fill.size()) * 2);
    probe.report(state, state.iterations(), "slab_fill.cxlalloc.sz1024");
    b.pod->release_thread(std::move(ctx));
}

/// cxlalloc fast path under mCAS memory mode (no HWcc): local operations
/// must not touch the NMP engine.
void
BM_CxlallocMcasFastPath(benchmark::State& state)
{
    bench::Geometry geom;
    geom.small_slabs = 512;
    geom.large_slabs = 8;
    geom.huge_regions = 2;
    bench::Bundle b =
        bench::make_bundle("cxlalloc", geom, bench::MemoryMode::CxlMcas);
    auto ctx = b.thread();
    warm_up_pair(b, *ctx, 64);
    MemOpsProbe probe(b, ctx->mem());
    for (auto _ : state) {
        cxl::HeapOffset p = b.alloc->allocate(*ctx, 64);
        benchmark::DoNotOptimize(std::as_const(p));
        b.alloc->deallocate(*ctx, p);
    }
    state.counters["mcas_ops"] = static_cast<double>(
        ctx->mem().counters().mcas_ops);
    state.SetItemsProcessed(state.iterations() * 2);
    probe.report(state, state.iterations() * 2, "mcas_fast_path.cxlalloc");
    b.pod->release_thread(std::move(ctx));
}

} // namespace

BENCHMARK_CAPTURE(BM_AllocFreePair, cxlalloc, std::string("cxlalloc"))
    ->Arg(8)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_AllocFreePair, cxlalloc_nonrec,
                  std::string("cxlalloc-nonrecoverable"))
    ->Arg(8)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_AllocFreePair, mimalloc_like,
                  std::string("mimalloc-like"))
    ->Arg(64);
BENCHMARK_CAPTURE(BM_AllocFreePair, ralloc_like, std::string("ralloc-like"))
    ->Arg(64);
BENCHMARK_CAPTURE(BM_AllocFreePair, cxl_shm_like,
                  std::string("cxl-shm-like"))
    ->Arg(64);
BENCHMARK_CAPTURE(BM_AllocFreePair, boost_like, std::string("boost-like"))
    ->Arg(64);
BENCHMARK_CAPTURE(BM_AllocFreePair, lightning_like,
                  std::string("lightning-like"))
    ->Arg(64);
const std::vector<std::uint64_t> kSixtyFourBlocksOf64B(64, 64);
BENCHMARK_CAPTURE(BM_RemoteFreeBatch, cxlalloc, std::string("cxlalloc"),
                  bench::MemoryMode::Local, kSixtyFourBlocksOf64B,
                  std::string());
BENCHMARK_CAPTURE(BM_RemoteFreeBatch, mimalloc_like,
                  std::string("mimalloc-like"), bench::MemoryMode::Local,
                  kSixtyFourBlocksOf64B, std::string());
BENCHMARK_CAPTURE(BM_RemoteFreeBatch, ralloc_like,
                  std::string("ralloc-like"), bench::MemoryMode::Local,
                  kSixtyFourBlocksOf64B, std::string());
// One block in each of eight slabs (eight size classes): the cleanup lands
// the batch as one full ring, and a counter read per operand would add a
// load per op. One block in each of two slabs: a ring of two, where a help
// mCAS per round would add half an mCAS per op. The batch's fixed costs
// (the cleanup's huge-heap pass) hide the one at two slabs and the other
// at eight, under the 15 % + 0.1 budget.
BENCHMARK_CAPTURE(BM_RemoteFreeBatch, cxlalloc_mcas_8slabs,
                  std::string("cxlalloc"), bench::MemoryMode::CxlMcas,
                  std::vector<std::uint64_t>{8, 16, 32, 64, 128, 256, 512,
                                             1024},
                  std::string("-mcas.slabs8"));
BENCHMARK_CAPTURE(BM_RemoteFreeBatch, cxlalloc_mcas_2slabs,
                  std::string("cxlalloc"), bench::MemoryMode::CxlMcas,
                  std::vector<std::uint64_t>{64, 128},
                  std::string("-mcas.slabs2"));

/// One block of each small size class, @p times over, the classes
/// interleaved: 24 slabs that each gather @p times blocks.
std::vector<std::uint64_t>
each_small_class(int times)
{
    std::vector<std::uint64_t> sizes;
    for (int t = 0; t < times; t++) {
        for (std::uint32_t c = 0; c < cxlalloc::kNumSmallClasses; c++) {
            sizes.push_back(cxlalloc::small_class_size(c));
        }
    }
    return sizes;
}

// Every small class three times over: a slab's blocks arrive 24 frees
// apart. Pending lines that hold the 24 entries until the cleanup land
// each slab's three blocks in one operand; a single 15-slot line lands
// nearly every block on its own, in full rings along the way.
BENCHMARK_CAPTURE(BM_RemoteFreeBatch, cxlalloc_mcas_small_classes_x3,
                  std::string("cxlalloc"), bench::MemoryMode::CxlMcas,
                  each_small_class(3), std::string("-mcas.small_classes_x3"));
BENCHMARK(BM_SlabFill);
BENCHMARK(BM_CxlallocMcasFastPath);

// Custom main instead of BENCHMARK_MAIN(): peel off the repo-wide metrics
// flags (which google-benchmark would reject) before handing the rest over.
int
main(int argc, char** argv)
{
    std::vector<char*> gb_args;
    std::vector<char*> our_args;
    gb_args.push_back(argv[0]);
    our_args.push_back(argv[0]);
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--metrics-json") {
            our_args.push_back(argv[i]);
            if (i + 1 < argc) {
                our_args.push_back(argv[++i]);
            }
        } else if (a == "--smoke") {
            our_args.push_back(argv[i]);
        } else {
            gb_args.push_back(argv[i]);
        }
    }
    bench::Options opt = bench::parse_options(
        static_cast<int>(our_args.size()), our_args.data());
    // Smoke mode (CI): short measurement windows; the per-op counters are
    // deterministic, so a short run reports the same mem-ops/op.
    static std::string min_time = "--benchmark_min_time=0.05";
    if (opt.smoke) {
        gb_args.push_back(min_time.data());
    }

    int gb_argc = static_cast<int>(gb_args.size());
    benchmark::Initialize(&gb_argc, gb_args.data());
    if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bench::finish_metrics(opt);
    return 0;
}
