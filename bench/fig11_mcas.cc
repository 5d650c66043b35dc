/// Fig. 11 (paper §5.4.1): latency percentiles of a compare-and-swap on a
/// CXL memory location under three implementations —
///   sw_cas        CPU CAS benefiting from the cache (needs HWcc),
///   sw_flush_cas  cacheline flush then CAS (software mCAS emulation),
///   hw_cas        the NMP mCAS engine (works with NO HWcc).
///
/// Per-operation latency is computed from the calibrated model plus the
/// run's ACTUAL conflict/failure behaviour on the shared word (threads
/// hammer one location concurrently), with multiplicative jitter so tails
/// are visible; the engine's conflict counters come from the real NMP
/// simulation.
///
/// A second section compares the engine's two submission disciplines on
/// striped counters: one doorbell per operand (serial) vs a ring of up to
/// kNmpRingSlots independent operands per doorbell (batched), where the
/// ~2.3 us round trip is paid once per ring and each extra operand costs
/// only the engine's serialized CAS pass (mcas_batch_slot_ns).
///
/// Every counter and histogram is scoped "fig11.<impl>.t<threads>.". The
/// single-thread rows, which no conflict perturbs, are also gauges for the
/// budget gate (BENCH_fig11.json): fig11.hw_cas.t1.p50_ns and
/// fig11.{eng_serial,eng_batched}.t1.kops (in Kops/s, so the gate's
/// absolute slack of 0.1 is negligible).

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/random.h"
#include "cxl/latency_model.h"
#include "cxl/mem_ops.h"
#include "pod/pod.h"
#include "support.h"

namespace {

constexpr std::uint64_t kOpsPerThread = 20'000;
constexpr cxl::HeapOffset kTarget = 256; // the contended word

enum class Impl { SwCas, SwFlushCas, HwCas };

const char*
to_string(Impl i)
{
    switch (i) {
      case Impl::SwCas:
        return "sw_cas";
      case Impl::SwFlushCas:
        return "sw_flush_cas";
      case Impl::HwCas:
        return "hw_cas";
    }
    return "?";
}

/// Runs one (impl, threads) cell; returns its scoped metrics snapshot.
/// Latencies land in a fixed-footprint histogram per worker shard instead
/// of the unbounded per-thread sample vectors this bench used to keep.
obs::MetricsSnapshot
run(Impl impl, std::uint32_t threads)
{
    obs::MetricsRegistry reg;
    obs::MetricId hist = reg.histogram("cas_ns");
    obs::MetricId ops = reg.counter("cas_logical_ops");
    pod::PodConfig pc;
    pc.device.size = 1 << 20;
    pc.device.mode = impl == Impl::HwCas ? cxl::CoherenceMode::NoHwcc
                                         : cxl::CoherenceMode::PartialHwcc;
    pc.device.sync_region_size = 64 << 10;
    pod::Pod pod(pc);
    pod::Process* proc = pod.create_process();

    cxl::LatencyModel model = impl == Impl::HwCas
                                  ? cxl::LatencyModel::cxl_mcas()
                                  : (impl == Impl::SwCas
                                         ? cxl::LatencyModel::cxl_hwcc()
                                         : cxl::LatencyModel::cxl_flush_cas());

    std::vector<std::thread> workers;
    for (std::uint32_t w = 0; w < threads; w++) {
        workers.emplace_back([&, w] {
            auto ctx = pod.create_thread(proc);
            cxl::MemSession& mem = ctx->mem();
            cxlcommon::Xoshiro rng(w + 1);
            obs::MetricsShard& shard = reg.shard(w + 1);
            for (std::uint64_t i = 0; i < kOpsPerThread; i++) {
                // One logical CAS = retry until success; latency is the
                // sum of attempt costs observed on the real shared word.
                std::uint64_t ns = 0;
                std::uint64_t expected = mem.atomic_load64(kTarget);
                if (impl == Impl::SwFlushCas) {
                    // Flush the target line, so the operand read (and the
                    // CAS) must go to CXL memory.
                    ns += model.flush_ns + model.read_ns;
                } else {
                    // Operand read hits the cache (sw_cas) or rides the
                    // spwr (hw_cas, already in mcas_ns).
                    ns += model.cached_ns;
                }
                while (true) {
                    bool ok = mem.cas64(kTarget, expected, expected + 1);
                    if (impl == Impl::HwCas) {
                        ns += model.mcas_ns;
                        if (!ok) {
                            ns += model.mcas_conflict_ns;
                        }
                    } else {
                        ns += model.cas_ns;
                        if (!ok) {
                            ns += model.cas_contended_ns;
                        }
                    }
                    if (ok) {
                        break;
                    }
                    if (impl == Impl::SwFlushCas) {
                        ns += model.flush_ns;
                    }
                }
                // Steady-state contention cost that one serialized core
                // cannot produce natively: with k hosts hammering one line,
                // a coherent CAS virtually always finds the line remote
                // (back-invalidation ping-pong, cost ~ k), while the NMP
                // engine only queues (milder slope) — the crossover the
                // paper measures.
                if (impl == Impl::HwCas) {
                    ns += model.mcas_conflict_ns * (threads - 1);
                } else {
                    ns += model.cas_contended_ns * (threads - 1) / 4;
                }
                // Multiplicative jitter (queueing, PCIe scheduling): keeps
                // p99/p99.9 tails meaningful.
                double j = 1.0 + 0.12 * rng.next_double() +
                           (rng.next_below(100) == 0
                                ? 2.0 + 4.0 * rng.next_double()
                                : 0.0);
                shard.record(hist, static_cast<std::uint64_t>(
                                       static_cast<double>(ns) * j));
                shard.add(ops);
            }
            mem.publish_metrics(reg);
            pod.release_thread(std::move(ctx));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    return reg.snapshot();
}

// ---------------- engine submission disciplines: serial vs batched -------

constexpr std::uint64_t kEngineOps = 10'000; ///< logical increments/thread
constexpr std::uint32_t kStripes = 64;       ///< independent counters
constexpr cxl::HeapOffset kStripeBase = 1024;

cxl::HeapOffset
stripe_off(std::uint32_t stripe)
{
    return kStripeBase + static_cast<cxl::HeapOffset>(stripe) * 64;
}

struct EngineCell {
    obs::MetricsSnapshot snap;
    std::uint64_t ops = 0;        ///< successful mCAS increments
    std::uint64_t max_sim_ns = 0; ///< modeled wall clock (slowest thread)
};

/// Runs one (discipline, threads) cell: every thread performs kEngineOps
/// successful increments on random stripes, through real MemSession mCAS
/// submission (sim_ns charged by the calibrated model, conflicts from the
/// real engine). Throughput = total ops / slowest thread's modeled time.
EngineCell
run_engine(bool batched, std::uint32_t threads)
{
    obs::MetricsRegistry reg;
    pod::PodConfig pc;
    pc.device.size = 1 << 20;
    pc.device.mode = cxl::CoherenceMode::NoHwcc;
    pc.device.sync_region_size = 64 << 10;
    pod::Pod pod(pc);
    pod::Process* proc = pod.create_process();
    cxl::LatencyModel model = cxl::LatencyModel::cxl_mcas();

    std::vector<std::uint64_t> sim_ns(threads, 0);
    std::vector<std::thread> workers;
    for (std::uint32_t w = 0; w < threads; w++) {
        workers.emplace_back([&, w] {
            auto ctx = pod.create_thread(proc);
            cxl::MemSession& mem = ctx->mem();
            mem.set_latency_model(&model);
            cxlcommon::Xoshiro rng(w + 1);
            cxl::McasBackoff backoff;
            std::uint64_t done = 0;
            if (!batched) {
                // One operand, one doorbell, one ~2.3 us round trip each.
                while (done < kEngineOps) {
                    cxl::HeapOffset t = stripe_off(rng.next_below(kStripes));
                    std::uint64_t expected = mem.atomic_load64(t);
                    if (mem.cas64(t, expected, expected + 1)) {
                        done++;
                    }
                }
            } else {
                // A window of consecutive stripes gives distinct targets
                // within the ring (a same-batch duplicate would doom
                // itself, Fig. 6(b)); windows of different threads overlap,
                // so cross-thread conflicts still occur and retry.
                while (done < kEngineOps) {
                    std::uint32_t base = rng.next_below(kStripes);
                    auto want = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(cxl::kNmpRingSlots,
                                                kEngineOps - done));
                    cxl::McasOperand ops[cxl::kNmpRingSlots];
                    for (std::uint32_t j = 0; j < want; j++) {
                        cxl::HeapOffset t =
                            stripe_off((base + j) % kStripes);
                        std::uint64_t cur = mem.atomic_load64(t);
                        ops[j] = cxl::McasOperand{
                            .target = t, .expected = cur, .swap = cur + 1};
                    }
                    // Post the window into the (empty) ring, one doorbell,
                    // then harvest the results in posting order.
                    for (std::uint32_t j = 0; j < want; j++) {
                        mem.mcas_post(ops[j]);
                    }
                    mem.mcas_doorbell();
                    bool conflicted = false;
                    for (std::uint32_t k = 0; k < want; k++) {
                        cxl::McasResult r;
                        mem.mcas_poll(&r);
                        if (r.success) {
                            done++;
                        } else {
                            conflicted |= r.conflict;
                        }
                    }
                    // Failed operands are simply retried on later windows;
                    // conflicts wait out the competing in-flight window.
                    if (conflicted) {
                        mem.charge(backoff.next_ns());
                    } else {
                        backoff.reset();
                    }
                }
            }
            sim_ns[w] = mem.sim_ns();
            mem.publish_metrics(reg);
            pod.release_thread(std::move(ctx));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    pod.nmp().publish_metrics(reg);

    EngineCell cell;
    cell.ops = static_cast<std::uint64_t>(threads) * kEngineOps;
    cell.max_sim_ns = *std::max_element(sim_ns.begin(), sim_ns.end());
    cell.snap = reg.snapshot();
    return cell;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Options opt = bench::parse_options(argc, argv);
    std::vector<std::uint32_t> thread_counts =
        opt.smoke ? std::vector<std::uint32_t>{1u, 4u}
                  : std::vector<std::uint32_t>{1u, 4u, 8u, 16u};

    std::puts("Fig. 11: CAS latency on a CXL memory location (modeled ns "
              "from calibrated costs + measured conflicts)");
    for (Impl impl : {Impl::SwCas, Impl::SwFlushCas, Impl::HwCas}) {
        for (std::uint32_t threads : thread_counts) {
            obs::MetricsSnapshot snap = run(impl, threads);
            std::printf("fig11  %-13s t=%-2u  %s\n", to_string(impl), threads,
                        obs::summary(*snap.histogram("cas_ns")).c_str());
            if (obs::MetricsRegistry* reg = bench::bundle_metrics()) {
                char prefix[48];
                std::snprintf(prefix, sizeof prefix, "fig11.%s.t%u.",
                              to_string(impl), threads);
                reg->absorb(snap, prefix);
                if (impl == Impl::HwCas && threads == 1) {
                    reg->set_gauge(reg->gauge("fig11.hw_cas.t1.p50_ns"),
                                   snap.histogram("cas_ns")->percentile(50));
                }
            }
        }
        std::puts("");
    }
    std::puts("Paper shape (Fig. 11): sw_cas cheapest (cache-hit CAS, needs "
              "HWcc); at 1 thread hw_cas p50 ~2.3us is slower than");
    std::puts("sw_flush_cas, but at 16 threads hw_cas beats sw_flush_cas "
              "(~17% lower p50, ~20% lower p99): the engine serializes");
    std::puts("instead of bouncing cachelines. Neither sw variant is safe "
              "without inter-host HWcc.");
    std::puts("");

    std::printf("Fig. 11 (batched): engine throughput on %u striped "
                "counters, one doorbell per operand vs per ring\n",
                kStripes);
    std::vector<std::uint32_t> engine_threads =
        opt.smoke ? std::vector<std::uint32_t>{1u, 8u}
                  : std::vector<std::uint32_t>{1u, 2u, 4u, 8u, 16u};
    double serial_t8 = 0.0;
    double batched_t8 = 0.0;
    for (bool batched : {false, true}) {
        const char* name = batched ? "eng_batched" : "eng_serial";
        for (std::uint32_t threads : engine_threads) {
            EngineCell cell = run_engine(batched, threads);
            double mops =
                cell.max_sim_ns == 0
                    ? 0.0
                    : static_cast<double>(cell.ops) * 1e3 /
                          static_cast<double>(cell.max_sim_ns);
            const obs::Histogram* occ =
                cell.snap.histogram("nmp.batch_occupancy");
            std::printf("fig11  %-13s t=%-2u  %8.2f Mops/s  "
                        "conflicts=%-7llu occupancy=%.2f\n",
                        name, threads, mops,
                        static_cast<unsigned long long>(
                            cell.snap.counter("mem.mcas_conflicts")),
                        occ != nullptr ? occ->mean() : 0.0);
            if (threads == 8) {
                (batched ? batched_t8 : serial_t8) = mops;
            }
            if (obs::MetricsRegistry* reg = bench::bundle_metrics()) {
                char prefix[48];
                std::snprintf(prefix, sizeof prefix, "fig11.%s.t%u.", name,
                              threads);
                reg->absorb(cell.snap, prefix);
                if (threads == 1) {
                    // One thread has no conflicts: the row is exact, and
                    // the budget gate holds it.
                    std::snprintf(prefix, sizeof prefix, "fig11.%s.t1.kops",
                                  name);
                    reg->set_gauge(reg->gauge(prefix), mops * 1e3);
                }
            }
        }
        std::puts("");
    }
    if (serial_t8 > 0.0 && batched_t8 > 0.0) {
        std::printf("fig11  batched/serial at t=8: %.2fx — the ~2.3us "
                    "round trip is paid once per ring of up to %u "
                    "operands, each extra operand costing only the "
                    "engine's serialized CAS pass\n",
                    batched_t8 / serial_t8, cxl::kNmpRingSlots);
    }
    bench::finish_metrics(opt);
    return 0;
}
