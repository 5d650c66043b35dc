/// Pod-allocator benchmark: argument parsing, set-up, timed phases, output.
///
///   perfbench --workload <churn_mcas|kv_pod|tiered_hot_shift> --seed <n>
///             --seconds <s> --trace <0|1> [--size full|tiny]
///             [--trace-out <path>]
///
/// Builds the workload's heap kSetups times (set-up time is the median),
/// then runs a closed loop for --seconds: every worker runs one round of
/// steps, all meet at a barrier, repeat. With --trace 0 it prints the
/// end-to-end metrics; with --trace 1 it runs the first half untraced and
/// the second half traced, and prints the per-layer metrics. After every
/// timed phase the heaps are swept for invariant violations; at the end
/// every held object is verified and freed and the heaps swept again.
/// The last stdout line is one JSON object; exit 0 only when correct.

#include <algorithm>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "bench.h"
#include "obs/registry.h"

namespace perfbench {
namespace {

constexpr int kSetups = 9;

struct Phase {
    std::vector<WorkerStats> ws;
    std::vector<std::unique_ptr<Tracer>> tracers;
    std::vector<double> round_rates;     ///< host ops/s per round
    std::vector<double> round_sim_rates; ///< ops per simulated s per round
    double wall_s = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    Hist sim;
    cxl::MemEventCounters c;
    std::uint64_t faults = 0;
    double edge_ns = 0;
    double mcas_round_trip_ns = 0;
    double committed_mib = 0;
    double rss_mib = 0;
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
    std::uint64_t moves = 0;
    std::uint64_t aborted = 0;
};

Phase
run_phase(Workload& wl, double seconds, bool traced)
{
    std::vector<cxl::MemSession*> sessions = wl.sessions();
    for (cxl::MemSession* s : sessions) {
        s->reset_accounting();
    }
    std::uint64_t faults0 = wl.mapping_faults();
    unsigned n = wl.workers();
    Phase p;
    p.ws.resize(n);
    if (traced) {
        for (unsigned i = 0; i < n; i++) {
            p.tracers.push_back(std::make_unique<Tracer>());
            p.ws[i].tracer = p.tracers.back().get();
        }
    }

    std::atomic<bool> stop{false};
    std::uint64_t t_start = host_ns();
    std::uint64_t t_prev = t_start;
    std::vector<std::uint64_t> busy(n, 0);
    std::vector<std::uint64_t> ops_prev(n, 0);
    std::vector<std::uint64_t> sim_prev(n, 0);
    auto deadline = static_cast<std::uint64_t>(seconds * 1e9);
    // Runs once per round, after every worker arrived and before any
    // leaves: the workers' tallies and sessions are quiescent here. The
    // host rate sums each worker's ops over its own busy time, so time a
    // worker idles at the barrier (waiting for a slower one) is not
    // counted against the system.
    auto on_round = [&]() noexcept {
        std::uint64_t t = host_ns();
        double rate = 0;
        std::uint64_t ops = 0;
        std::uint64_t critical = 0;
        for (unsigned i = 0; i < n; i++) {
            std::uint64_t done = p.ws[i].ops - ops_prev[i];
            ops += done;
            ops_prev[i] = p.ws[i].ops;
            if (busy[i] > 0) {
                rate += static_cast<double>(done) /
                        (static_cast<double>(busy[i]) * 1e-9);
            }
            std::uint64_t sim = sessions[i]->sim_ns();
            critical = std::max(critical, sim - sim_prev[i]);
            sim_prev[i] = sim;
        }
        p.round_rates.push_back(rate);
        if (critical > 0) {
            p.round_sim_rates.push_back(
                static_cast<double>(ops) /
                (static_cast<double>(critical) * 1e-9));
        }
        t_prev = t;
        if (t - t_start >= deadline) {
            stop.store(true, std::memory_order_relaxed);
        }
    };
    std::barrier bar(static_cast<std::ptrdiff_t>(n), on_round);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; i++) {
        threads.emplace_back([&, i] {
            do {
                WorkerStats& ws = p.ws[i];
                std::uint64_t background0 = ws.background_ns;
                std::uint64_t t0 = host_ns();
                wl.step_round(i, ws);
                busy[i] = host_ns() - t0 - (ws.background_ns - background0);
                bar.arrive_and_wait();
            } while (!stop.load(std::memory_order_relaxed));
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    p.wall_s = static_cast<double>(t_prev - t_start) * 1e-9;

    for (unsigned i = 0; i < n; i++) {
        const WorkerStats& w = p.ws[i];
        p.ops += w.ops;
        p.failed += w.failed;
        p.sim.merge(w.sim);
        p.reads += w.reads;
        p.hits += w.hits;
        p.moves += w.moves;
        p.aborted += w.aborted;
    }
    obs::MetricsRegistry reg;
    for (cxl::MemSession* s : sessions) {
        p.c += s->counters();
        s->publish_metrics(reg);
    }
    obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto& [name, value] : snap.counters) {
        std::string_view v(name);
        if (v.starts_with("pod.edge.") && v.ends_with(".ns")) {
            p.edge_ns += static_cast<double>(value);
        }
    }
    if (const obs::Histogram* h = snap.histogram("mem.mcas_round_trip_ns")) {
        p.mcas_round_trip_ns = h->mean();
    }
    p.faults = wl.mapping_faults() - faults0;
    p.committed_mib = static_cast<double>(wl.committed_bytes()) / (1 << 20);
    p.rss_mib = rss_mib();
    return p;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void
layer_metrics(const Phase& t, const Phase& untraced, const Tracer& cal,
              Workload& wl, const std::vector<double>& pod_s,
              const std::vector<double>& attach_s,
              const std::vector<double>& preload_s, std::vector<Metric>& out)
{
    std::array<KindStats, kKinds> s{};
    std::uint64_t placed = 0;
    std::uint64_t home = 0;
    std::uint64_t dram = 0;
    std::uint64_t frees = 0;
    std::uint64_t cross = 0;
    for (const auto& tr : t.tracers) {
        for (std::size_t k = 0; k < kKinds; k++) {
            s[k].merge(tr->stats[k]);
        }
        placed += tr->allocs_placed;
        home += tr->allocs_home;
        dram += tr->allocs_dram;
        frees += tr->frees;
        cross += tr->frees_cross;
    }
    for (std::size_t k = 0; k < kKinds; k++) {
        s[k].merge(cal.stats[k]);
    }
    auto at = [&](Kind k) -> const KindStats& {
        return s[static_cast<std::size_t>(k)];
    };
    const KindStats& alloc = at(Kind::Alloc);
    const KindStats& free = at(Kind::Free);
    const KindStats& remote = at(Kind::FreeRemote);
    auto sim_mean = [&](const KindStats& k) {
        return ratio(k.sim_ns, k.calls);
    };
    auto per_loop_op = [&](Kind k) {
        return ratio(at(k).wall_ns, at(k).items);
    };
    auto add = [&](const char* name, double v, const char* unit) {
        out.push_back({name, std::isfinite(v) ? v : 0.0, unit});
    };
    double ops = static_cast<double>(t.ops);

    // cxlalloc
    std::uint64_t alloc_calls = alloc.calls + free.calls + remote.calls;
    add("cxlalloc.alloc.calls", alloc.calls, "count");
    add("cxlalloc.free.calls", free.calls, "count");
    add("cxlalloc.free_remote.calls", remote.calls, "count");
    add("cxlalloc.alloc.wall_ns_p50", alloc.wall.quantile(0.5), "ns");
    add("cxlalloc.alloc.wall_ns_p99", alloc.wall.quantile(0.99), "ns");
    add("cxlalloc.free.wall_ns_p50", free.wall.quantile(0.5), "ns");
    add("cxlalloc.free.wall_ns_p99", free.wall.quantile(0.99), "ns");
    add("cxlalloc.alloc.sim_ns_mean", sim_mean(alloc), "ns");
    add("cxlalloc.free.sim_ns_mean", sim_mean(free), "ns");
    add("cxlalloc.free_remote.sim_ns_mean", sim_mean(remote), "ns");
    add("cxlalloc.alloc.failed_ratio", ratio(alloc.failed, alloc.calls),
        "ratio");
    add("cxlalloc.mem_ops_per_call",
        ratio(alloc.mem_ops + free.mem_ops + remote.mem_ops, alloc_calls),
        "count/call");
    add("cxlalloc.fences_per_call",
        ratio(alloc.fences + free.fences + remote.fences, alloc_calls),
        "count/call");
    add("cxlalloc.flushed_lines_per_call",
        ratio(alloc.flushed_lines + free.flushed_lines +
                  remote.flushed_lines,
              alloc_calls),
        "count/call");
    add("cxlalloc.free_batch.blocks_mean", ratio(remote.items, remote.calls),
        "count");
    add("cxlalloc.pod_shard.home_ratio", ratio(home, placed), "ratio");
    add("cxlalloc.pod_shard.cross_window_free_ratio", ratio(cross, frees),
        "ratio");
    add("cxlalloc.pod_shard.dram_ratio", ratio(dram, placed), "ratio");

    // cxl MemSession
    const cxl::MemEventCounters& c = t.c;
    add("cxl.loads_per_op", c.loads / ops, "count/op");
    add("cxl.stores_per_op", c.stores / ops, "count/op");
    add("cxl.fences_per_op", c.fences / ops, "count/op");
    add("cxl.flushed_lines_per_op", c.flushed_lines / ops, "count/op");
    add("cxl.cas_failure_ratio", ratio(c.cas_failures, c.cas_ops), "ratio");
    std::uint64_t layer_wall = 0;
    std::uint64_t layer_mem_ops = 0;
    for (Kind k : {Kind::Alloc, Kind::Free, Kind::FreeRemote,
                   Kind::CellPublish, Kind::CellRead, Kind::Epoch}) {
        layer_wall += at(k).wall_ns;
        layer_mem_ops += at(k).mem_ops;
    }
    add("cxl.wall_ns_per_mem_op", ratio(layer_wall, layer_mem_ops), "ns");
    add("cxl.swcc_load_wall_ns", per_loop_op(Kind::CalLoad), "ns");
    add("cxl.swcc_store_wall_ns", per_loop_op(Kind::CalStore), "ns");
    add("cxl.sync_cas_wall_ns", per_loop_op(Kind::CalCas), "ns");
    std::uint64_t routed = c.pod_local + c.pod_remote + c.pod_dram;
    add("cxl.remote_access_ratio", ratio(c.pod_remote, routed), "ratio");
    add("cxl.dram_access_ratio", ratio(c.pod_dram, routed), "ratio");
    add("cxl.edge_sim_ns_per_op", t.edge_ns / ops, "ns");

    // cxl nmp
    add("cxl.nmp.mcas_per_op", c.mcas_ops / ops, "count/op");
    add("cxl.nmp.batch_occupancy", ratio(c.mcas_batch_ops, c.mcas_batches),
        "ops/batch");
    add("cxl.nmp.conflict_ratio", ratio(c.mcas_conflicts, c.mcas_ops),
        "ratio");
    add("cxl.nmp.round_trip_sim_ns", t.mcas_round_trip_ns, "ns");

    // pod
    add("pod.mapping_faults_per_kop", 1000.0 * t.faults / ops, "count/kop");
    add("pod.tlb_hit_ratio", ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses),
        "ratio");
    add("pod.setup_s", median(pod_s), "s");

    // kv
    std::uint64_t kv_calls = 0;
    std::uint64_t kv_self = 0;
    std::uint64_t kv_children = 0;
    for (Kind k : {Kind::KvInsert, Kind::KvGet, Kind::KvRemove}) {
        kv_calls += at(k).calls;
        kv_self += at(k).self_ns;
        kv_children += at(k).children;
    }
    add("kv.op_self_wall_ns", ratio(kv_self, kv_calls), "ns");
    add("kv.alloc_calls_per_op", ratio(kv_children, kv_calls), "count/op");
    add("kv.read_hit_ratio", ratio(t.hits, t.reads), "ratio");

    // sync
    const KindStats& publish = at(Kind::CellPublish);
    add("sync.cell_publish.calls", publish.calls, "count");
    add("sync.cell_publish.success_ratio",
        publish.calls == 0 ? 0 : 1.0 - ratio(publish.failed, publish.calls),
        "ratio");
    add("sync.cell_publish.sim_ns_mean", sim_mean(publish), "ns");
    add("sync.cell_read.sim_ns_mean", sim_mean(at(Kind::CellRead)), "ns");

    // migrate
    const KindStats& epoch = at(Kind::Epoch);
    add("migrate.epoch.calls", epoch.calls, "count");
    add("migrate.epoch.wall_ns_p50", epoch.wall.quantile(0.5), "ns");
    add("migrate.epoch.sim_ns_mean", sim_mean(epoch), "ns");
    add("migrate.moves_per_epoch", ratio(t.moves, epoch.calls), "count");
    add("migrate.move_success_ratio", ratio(t.moves, t.moves + t.aborted),
        "ratio");

    // set-up and overhead
    add("cxlalloc.attach_s", median(attach_s), "s");
    add("workload.preload_s", median(preload_s), "s");
    add("workload.gen_wall_ns_per_op", wl.gen_ns_per_op(), "ns");
    add("trace.overhead_ratio",
        ratio(median(untraced.round_rates), median(t.round_rates)), "ratio");
}

void
write_trace(const std::string& path, const Phase& t, const Tracer& cal)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "worker,span,parent,start_ns,dur_ns,self_ns,sim_ns\n");
    std::uint64_t base = ~std::uint64_t{0};
    for (const auto& tr : t.tracers) {
        for (const Tracer::Record& r : tr->records) {
            base = std::min(base, r.start_ns);
        }
    }
    auto dump = [&](const Tracer& tr, long worker) {
        for (const Tracer::Record& r : tr.records) {
            std::fprintf(f,
                         "%ld,%s,%d,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                         ",%" PRIu64 "\n",
                         worker, kind_name(r.kind), r.parent,
                         r.start_ns - std::min(base, r.start_ns), r.dur_ns,
                         r.self_ns, r.sim_ns);
        }
    };
    for (std::size_t w = 0; w < t.tracers.size(); w++) {
        dump(*t.tracers[w], static_cast<long>(w));
    }
    dump(cal, -1);
    std::fclose(f);
}

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<churn_mcas|kv_pod|tiered_hot_shift> --seed <n> --seconds "
                 "<s> --trace <0|1> [--size full|tiny] [--trace-out <path>]\n",
                 msg);
    std::exit(2);
}

Args
parse(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (flag == "--trace") {
            a.trace = v == "1";
        } else if (flag == "--size") {
            a.size = v == "tiny" ? Size::Tiny : Size::Full;
        } else if (flag == "--trace-out") {
            a.trace_out = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!(a.seconds > 0)) {
        usage("--seconds must be positive");
    }
    return a;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args a = parse(argc, argv);
    std::unique_ptr<Workload> (*make)(const Args&) = nullptr;
    if (a.workload == "churn_mcas") {
        make = make_churn;
    } else if (a.workload == "kv_pod") {
        make = make_kv_pod;
    } else if (a.workload == "tiered_hot_shift") {
        make = make_tiered;
    } else {
        usage("unknown workload");
    }

    // Set-up is repeated and its median reported, so work moved into
    // set-up shows without one slow construction deciding the figure.
    std::vector<double> setup_s, pod_s, attach_s, preload_s;
    std::unique_ptr<Workload> wl;
    for (int k = 0; k < kSetups; k++) {
        wl.reset();
        double t0 = host_s();
        wl = make(a);
        setup_s.push_back(host_s() - t0);
        pod_s.push_back(wl->setup.pod_s);
        attach_s.push_back(wl->setup.attach_s);
        preload_s.push_back(wl->setup.preload_s);
    }

    std::uint64_t failed = wl->setup_failed;
    std::uint64_t attempted = 0;
    std::uint64_t violations = 0;
    std::vector<Metric> metrics;
    Phase main_phase;
    if (!a.trace) {
        main_phase = run_phase(*wl, a.seconds, false);
        violations += wl->sweep(false);
        const Phase& p = main_phase;
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"wall_ops_per_s", median(p.round_rates), "1/s"},
            {"sim_ops_per_s", median(p.round_sim_rates), "1/s"},
            {"sim_op_ns_p50", p.sim.quantile(0.5), "ns"},
            {"sim_op_ns_p99", p.sim.quantile(0.99), "ns"},
            {"committed_mib", p.committed_mib, "MiB"},
            {"hwcc_kib", static_cast<double>(wl->hwcc_bytes()) / 1024.0,
             "KiB"},
            {"host_rss_mib", p.rss_mib, "MiB"},
        };
        attempted += p.ops;
        failed += p.failed;
    } else {
        Phase u = run_phase(*wl, a.seconds / 2, false);
        violations += wl->sweep(false);
        main_phase = run_phase(*wl, a.seconds / 2, true);
        violations += wl->sweep(false);
        Tracer cal;
        wl->calibrate(cal);
        layer_metrics(main_phase, u, cal, *wl, pod_s, attach_s, preload_s,
                      metrics);
        if (!a.trace_out.empty()) {
            write_trace(a.trace_out, main_phase, cal);
        }
        attempted += u.ops + main_phase.ops;
        failed += u.failed + main_phase.failed;
    }
    std::uint64_t bad_objects = wl->drain();
    violations += wl->sweep(true);
    failed += bad_objects + violations;
    bool correct = failed == 0;

    const Phase& p = main_phase;
    std::printf("workload %s seed %" PRIu64 " (%s run, %u workers, %.3f s "
                "timed, %zu rounds)\n",
                a.workload.c_str(), a.seed, a.trace ? "traced" : "untraced",
                wl->workers(), p.wall_s, p.round_rates.size());
    std::printf("  sim_op_ns samples = %" PRIu64 " ops (simulated clock)\n",
                p.sim.count());
    std::printf("  failed_op_ratio = %.6g ratio (%" PRIu64 " of %" PRIu64
                " attempted; %" PRIu64 " bad objects, %" PRIu64
                " invariant violations)\n",
                ratio(failed, attempted), failed, attempted, bad_objects,
                violations);
    for (const Metric& m : metrics) {
        std::printf("  %s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
