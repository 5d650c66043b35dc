/// Pod fault storm: KV-style reference-cell traffic on a 2-host x 2-device
/// pod driven through a scripted FaultPlan — an NMP doorbell slowdown and
/// stall under a remote free batch, a long edge flap that parks frees and
/// throws typed EdgeDownErrors at cross-device readers, a short flap on the
/// monitor-facing edge that manufactures exactly one liveness false
/// suspect, a Suspect-device live evacuation, and finally a whole-host
/// kill that the LivenessDetector must notice and the surviving host must
/// adopt and recover.
///
/// Everything runs on one OS thread in lockstep rounds with fixed RNG
/// seeds, so every number below — including the CI-budgeted gauges
/// pod.edge_down_ops, liveness.false_suspects and evac.blocks_per_op — is
/// exactly reproducible. The bench self-gates:
///
///  - post-storm throughput (sim ns/op of the surviving worker) must stay
///    >= 90% of the pre-storm baseline;
///  - exact block accounting after the final drain (cleanup included):
///    the heap audit is ok with zero live blocks, zero pending and zero
///    parked frees (a lost free or a double free after host-kill recovery
///    + quarantine replay cannot hide from this);
///  - one host death, at least one false suspect, a nonzero evacuation
///    with zero aborted moves, and the parked stash fully replayed.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "cxlalloc/migrate.h"
#include "pod/faults.h"
#include "pod/liveness.h"
#include "support.h"
#include "sync/detectable_cas.h"

namespace {

constexpr std::uint64_t kObjSize = 64;

/// Storm script timeline (injector steps; one step per storm round).
constexpr std::uint64_t kStepNmpDelay = 3;
constexpr std::uint64_t kStepNmpStall = 5;
constexpr std::uint64_t kStepLongFlap = 10;  ///< host 0 loses device 1
constexpr std::uint64_t kLongFlapDown = 20;  ///< ... until step 30
constexpr std::uint64_t kStepLeaseFlap = 40; ///< host 1 loses device 0
constexpr std::uint64_t kLeaseFlapDown = 5;  ///< long enough for Suspect only
constexpr std::uint64_t kStepEvacuate = 60;  ///< scripted Suspect + evac
constexpr std::uint64_t kStepHostKill = 80;
constexpr std::uint64_t kStormRounds = 100;

struct Plan {
    std::uint32_t objects;
    std::uint32_t ops_per_round;
    std::uint32_t pre_rounds;
    std::uint32_t post_rounds;
    std::uint32_t stash; ///< extra blocks per scripted stash free
};

cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 100;
    e.write_add_ns = 150;
    e.ns_per_kib = 4;
    return e;
}

struct Worker {
    std::unique_ptr<pod::ThreadContext> ctx;
    pod::HostId host = 0;
    std::uint32_t lo = 0; ///< cell partition [lo, hi)
    std::uint32_t hi = 0;
    cxlcommon::Xoshiro rng{0};
    std::uint64_t ops = 0;
};

struct Rig {
    Plan plan;
    pod::Topology topo;
    bench::Bundle b;
    cxlalloc::CxlAllocator* cell_shard = nullptr;
    cxl::HeapOffset cells = 0;
    cxl::HeapOffset lease_base = 0;
    std::unique_ptr<cxlalloc::HotSlabMigrator> migrator;
    std::unique_ptr<pod::LivenessDetector> detector;
    std::unique_ptr<pod::FaultInjector> injector;
    std::unique_ptr<pod::ThreadContext> monitor;
    Worker workers[2];
    std::vector<cxl::HeapOffset> stall_stash; ///< host-1 blocks, batch-freed
    std::vector<cxl::HeapOffset> park_stash;  ///< freed while the edge is Down
    std::uint64_t edge_down_ops = 0;
    std::uint64_t replayed = 0;
    std::uint64_t evacuated = 0;
    std::uint64_t rehomed = 0;
    std::uint64_t deaths_handled = 0;
    /// The scripted batch's landing spent the whole injected stall.
    bool stall_spent_at_step = false;
    char payload[kObjSize];
    char buf[kObjSize];

    explicit Rig(const Plan& p)
        : plan(p),
          topo(pod::Topology::dense(2, 2, cxl::EdgeCost{}, far_edge()))
    {
        bench::Geometry geom;
        geom.small_slabs = 96; // 3 MiB/shard, ~2x the live set plus churn
        geom.large_slabs = 4;
        geom.huge_regions = 1;
        geom.huge_region_size = 1 << 20;
        // Reference cells plus the liveness lease table, both in the
        // device-0 shard's app-sync (always-coherent) region.
        geom.app_sync_bytes =
            static_cast<std::uint64_t>(plan.objects) * 8 +
            pod::kLeaseTableBytes;
        // NoHwcc: all synchronization rides the NMP engine, so the scripted
        // doorbell stall/delay hits the real mCAS path (under HWcc the
        // remote-free batch never rings a doorbell).
        b = bench::make_bundle("cxlalloc", geom, bench::MemoryMode::CxlMcas,
                               topo);
        cell_shard = &b.heap->shard(topo.home_of(0));
        cells = cell_shard->layout().app_sync();
        lease_base = cells + static_cast<cxl::HeapOffset>(plan.objects) * 8;

        migrator = std::make_unique<cxlalloc::HotSlabMigrator>(*b.heap);
        migrator->set_cell_table(cells, plan.objects);
        migrator->set_metrics(bench::bundle_metrics());

        pod::LivenessConfig lcfg;
        lcfg.lease_base = lease_base;
        lcfg.suspect_after = 3;
        lcfg.dead_after = 8;
        detector = std::make_unique<pod::LivenessDetector>(*b.pod, lcfg);
        monitor = b.thread(0);

        for (pod::HostId h = 0; h < 2; h++) {
            Worker& w = workers[h];
            w.ctx = b.thread(h);
            w.host = h;
            w.lo = h * plan.objects / 2;
            w.hi = (h + 1) * plan.objects / 2;
            w.rng = cxlcommon::Xoshiro(0xfa017 + h * 7919u);
        }
        std::memset(payload, 0x6b, sizeof payload);

        pod::FaultPlan script;
        script.nmp_delay(kStepNmpDelay, 500, 2)
            .nmp_stall(kStepNmpStall, 2)
            .edge_flap(0, 1, kStepLongFlap, kLongFlapDown)
            .edge_flap(1, 0, kStepLeaseFlap, kLeaseFlapDown)
            .host_kill(1, kStepHostKill);
        injector = std::make_unique<pod::FaultInjector>(*b.pod, script);
    }

    cxl::HeapOffset
    cell_of(std::uint32_t i) const
    {
        return cells + static_cast<cxl::HeapOffset>(i) * 8;
    }

    /// Allocates and publishes @p w's cell partition (objects land on the
    /// worker's home device), plus the scripted stashes from host 1.
    void
    populate()
    {
        for (Worker& w : workers) {
            cxl::MemSession& mem = w.ctx->mem();
            for (std::uint32_t i = w.lo; i < w.hi; i++) {
                cxl::HeapOffset off = b.heap->allocate(*w.ctx, kObjSize);
                CXL_FATAL_IF(off == 0, "fault_storm: populate exhausted");
                mem.write_bytes(off, payload, kObjSize);
                mem.flush(off, kObjSize);
                mem.fence();
                auto res = cell_shard->cell_publish(
                    *w.ctx, cell_of(i), 0,
                    static_cast<std::uint32_t>(off >> 3));
                CXL_FATAL_IF(!res.success, "fault_storm: populate publish");
            }
        }
        // Host-1-owned blocks host 0 will batch-free through the stalled
        // doorbell (stall_stash) and into the Down edge (park_stash).
        Worker& w1 = workers[1];
        for (std::uint32_t i = 0; i < plan.stash * 2; i++) {
            cxl::HeapOffset off = b.heap->allocate(*w1.ctx, kObjSize);
            CXL_FATAL_IF(off == 0, "fault_storm: stash exhausted");
            (i < plan.stash ? stall_stash : park_stash).push_back(off);
        }
    }

    /// One workload op: 20% cross-partition read, else 50/50 own-partition
    /// update (alloc + publish + free old) / read. Typed EdgeDownErrors —
    /// the degraded-mode contract under a Down edge — are counted, never
    /// fatal.
    void
    do_op(Worker& w)
    {
        cxl::MemSession& mem = w.ctx->mem();
        double roll = w.rng.next_double();
        bool cross = roll < 0.2;
        bool update = !cross && roll >= 0.6;
        std::uint32_t idx =
            cross ? static_cast<std::uint32_t>(w.rng.next() % plan.objects)
                  : w.lo + static_cast<std::uint32_t>(w.rng.next() %
                                                      (w.hi - w.lo));
        try {
            cxl::HeapOffset cell = cell_of(idx);
            std::uint32_t val = cell_shard->dcas().read(mem, cell);
            if (val != 0) {
                auto off = static_cast<cxl::HeapOffset>(val) << 3;
                if (update) {
                    cxl::HeapOffset fresh =
                        b.heap->allocate(*w.ctx, kObjSize);
                    if (fresh != 0) {
                        mem.write_bytes(fresh, payload, kObjSize);
                        mem.flush(fresh, kObjSize);
                        mem.fence();
                        auto res = cell_shard->cell_publish(
                            *w.ctx, cell, val,
                            static_cast<std::uint32_t>(fresh >> 3));
                        b.heap->deallocate(*w.ctx,
                                           res.success ? off : fresh);
                    }
                } else {
                    mem.read_bytes(off, buf, kObjSize);
                }
            }
        } catch (const cxl::EdgeDownError&) {
            edge_down_ops++;
        }
        w.ops++;
    }

    /// Harness side of the script: actions keyed to the injector clock
    /// that need a thread (the injector itself only flips state).
    void
    scripted(std::uint64_t now)
    {
        Worker& w0 = workers[0];
        if (now == kStepNmpStall) {
            // Remote free batch from host 0 into host 1's shard, landed by
            // the cleanup right after it: its drain rings the NMP doorbell
            // right after the stall armed — the session's retry ladder must
            // absorb both swallowed doorbells here, not some later mCAS.
            b.heap->deallocate_batch(
                *w0.ctx, stall_stash.data(),
                static_cast<std::uint32_t>(stall_stash.size()));
            stall_stash.clear();
            b.heap->cleanup(*w0.ctx);
            stall_spent_at_step = b.pod->nmp().stall_remaining() == 0;
        }
        if (now == kStepLongFlap + 2) {
            // Frees aimed at the Down device: every one must park, none
            // may be lost — they replay after the flap recovers.
            b.heap->deallocate_batch(
                *w0.ctx, park_stash.data(),
                static_cast<std::uint32_t>(park_stash.size()));
        }
        if (now == kStepEvacuate) {
            // Device 1 starts answering erratically: mark it Suspect from
            // host 0's seat and pull the reachable blocks home while it
            // still answers.
            topo.set_edge_state(0, 1, cxl::EdgeState::Suspect);
            evacuated += migrator->evacuate_device(*w0.ctx, 1, 0);
            topo.set_edge_state(0, 1, cxl::EdgeState::Up);
        }
        if (injector->host_killed(1) && workers[1].ctx != nullptr) {
            // Host 1 dies: its context vanishes without writeback. The
            // monitor finds out via missed leases, not from us.
            if (obs::MetricsRegistry* reg = bench::bundle_metrics()) {
                workers[1].ctx->mem().publish_metrics(*reg);
            }
            b.pod->mark_crashed(std::move(workers[1].ctx),
                                pod::Pod::CrashSeverity::Host);
        }
    }

    /// Dead-host verdict: adopt every crashed slot on the surviving host,
    /// run migrator-aware recovery, evacuate the dead host's device, and
    /// take over its cell partition.
    void
    on_dead(pod::HostId host)
    {
        Worker& w0 = workers[0];
        for (cxl::ThreadId tid : b.pod->crashed_threads()) {
            auto rec = b.pod->adopt_thread(b.host_process[0], tid);
            migrator->recover(*rec);
            if (obs::MetricsRegistry* reg = bench::bundle_metrics()) {
                rec->mem().publish_metrics(*reg);
            }
            b.pod->release_thread(std::move(rec));
        }
        evacuated += migrator->evacuate_device(
            *w0.ctx, topo.home_of(host), topo.home_of(w0.host));
        // The storm left live blocks in slabs the survivor no longer owns
        // (slabs disown themselves when they fill while carrying remote
        // frees), and every free into those is a remote free: it waits in
        // the pending list and costs its share of a cross-device mCAS
        // drain. Re-home them once so steady-state traffic is host-local
        // again — this is what the >= 90% post-storm throughput gate is
        // really gating.
        rehomed += migrator->rehome(*w0.ctx, topo.home_of(w0.host));
        w0.lo = 0;
        w0.hi = plan.objects;
        deaths_handled++;
    }

    /// One lockstep round. Storm rounds advance the fault clock first.
    void
    round(bool storm)
    {
        if (storm) {
            injector->step();
            scripted(injector->now());
        }
        for (Worker& w : workers) {
            if (w.ctx != nullptr) {
                pod::LivenessDetector::beat(w.ctx->mem(), lease_base,
                                            w.host);
            }
        }
        for (pod::HostId dead : detector->poll(monitor->mem())) {
            on_dead(dead);
        }
        for (Worker& w : workers) {
            if (w.ctx == nullptr) {
                continue;
            }
            for (std::uint32_t k = 0; k < plan.ops_per_round; k++) {
                do_op(w);
            }
        }
        replayed += b.heap->replay_parked(*workers[0].ctx);
    }

    /// Sim ns/op of worker 0 over @p rounds lockstep rounds.
    double
    measure(std::uint32_t rounds, bool storm)
    {
        Worker& w0 = workers[0];
        std::uint64_t sim0 = w0.ctx->mem().sim_ns();
        std::uint64_t ops0 = w0.ops;
        for (std::uint32_t r = 0; r < rounds; r++) {
            round(storm);
        }
        std::uint64_t dops = w0.ops - ops0;
        return dops > 0 ? static_cast<double>(w0.ctx->mem().sim_ns() - sim0) /
                              static_cast<double>(dops)
                        : 0.0;
    }

    /// Frees every live object, drains the parked list and every live
    /// worker's pending remote frees, and audits both shards: a lost free
    /// strands live blocks, a double free breaks the remote balance.
    /// Returns 1 on failure.
    std::uint32_t
    drain_and_verify()
    {
        Worker& w0 = workers[0];
        cxl::MemSession& mem = w0.ctx->mem();
        for (std::uint32_t i = 0; i < plan.objects; i++) {
            std::uint32_t val = cell_shard->dcas().read(mem, cell_of(i));
            if (val != 0) {
                b.heap->deallocate(*w0.ctx,
                                   static_cast<cxl::HeapOffset>(val) << 3);
            }
        }
        replayed += b.heap->replay_parked(*w0.ctx);
        for (Worker& w : workers) {
            if (w.ctx != nullptr) {
                b.heap->cleanup(*w.ctx);
            }
        }

        cxlalloc::AuditReport audit = b.heap->audit(mem);
        if (audit.ok() && audit.live_blocks == 0 &&
            audit.pending_frees == 0 && audit.parked_frees == 0) {
            return 0;
        }
        std::printf("FAIL: drain %s\n", audit.to_string().c_str());
        return 1;
    }

    std::uint64_t
    total_ops() const
    {
        return workers[0].ops + workers[1].ops;
    }
};

} // namespace

int
main(int argc, char** argv)
{
    bench::Options opt = bench::parse_options(argc, argv);
    Plan plan = opt.smoke ? Plan{256, 8, 10, 10, 8}
                          : Plan{1024, 16, 40, 40, 16};

    std::puts("Pod fault storm: 2 hosts x 2 devices, scripted NMP "
              "stall/delay + edge flaps + Suspect evacuation + host kill");

    Rig rig(plan);
    rig.populate();

    double pre_ns_op = rig.measure(plan.pre_rounds, /*storm=*/false);
    std::printf("pre-storm  %9.1f ns/op (sim, worker 0)\n", pre_ns_op);

    for (std::uint64_t r = 0; r < kStormRounds; r++) {
        rig.round(/*storm=*/true);
    }
    std::printf("storm      %" PRIu64 " rounds: %" PRIu64 " edge-down ops, "
                "%" PRIu64 " parked-free replays, %" PRIu64 " evacuated + %"
                PRIu64 " rehomed blocks, %" PRIu64 " false suspects, %"
                PRIu64 " deaths\n",
                kStormRounds, rig.edge_down_ops, rig.replayed, rig.evacuated,
                rig.rehomed, rig.detector->false_suspects(),
                rig.detector->deaths());

    double post_ns_op = rig.measure(plan.post_rounds, /*storm=*/false);
    double ratio = post_ns_op > 0 ? pre_ns_op / post_ns_op : 0;
    std::printf("post-storm %9.1f ns/op (sim, worker 0)  throughput ratio "
                "%.3f\n",
                post_ns_op, ratio);

    std::uint32_t failures = 0;
    auto gate = [&](bool ok, const char* what) {
        if (!ok) {
            std::printf("FAIL: %s\n", what);
            failures++;
        }
    };
    gate(rig.injector->done(), "fault plan did not fully fire/recover");
    gate(ratio >= 0.9, "post-storm throughput below 90% of pre-storm");
    gate(rig.edge_down_ops > 0, "no typed edge-down ops observed");
    gate(rig.detector->deaths() == 1 && rig.deaths_handled == 1,
         "host kill not detected exactly once");
    gate(rig.detector->false_suspects() >= 1,
         "lease flap produced no false suspect");
    gate(rig.evacuated > 0, "evacuation moved nothing");
    gate(rig.migrator->aborted() == 0, "evacuation aborted moves");
    gate(rig.replayed >= plan.stash, "parked stash not fully replayed");
    gate(rig.b.pod->nmp().total_stalled_doorbells() >= 2,
         "doorbell stall never exercised the retry ladder");
    gate(rig.stall_spent_at_step,
         "the scripted batch's landing left the stall armed");
    // The sessions' counters are the storm's: the closing frees, replays,
    // cleanups and audit below are teardown.
    if (obs::MetricsRegistry* reg = bench::bundle_metrics()) {
        rig.workers[0].ctx->mem().publish_metrics(*reg);
        rig.monitor->mem().publish_metrics(*reg);
    }
    failures += rig.drain_and_verify();

    std::uint64_t ops = rig.total_ops();
    if (obs::MetricsRegistry* reg = bench::bundle_metrics()) {
        reg->shard(rig.workers[0].ctx->tid())
            .add(reg->counter("run.ops"), ops);
        reg->set_gauge(reg->gauge("pod.edge_down_ops"),
                       static_cast<double>(rig.edge_down_ops));
        reg->set_gauge(reg->gauge("liveness.false_suspects"),
                       static_cast<double>(rig.detector->false_suspects()));
        reg->set_gauge(reg->gauge("evac.blocks_per_op"),
                       ops > 0 ? static_cast<double>(rig.evacuated) /
                                     static_cast<double>(ops)
                               : 0);
        reg->set_gauge(reg->gauge("fault.post_storm_ratio"), ratio);
    }

    std::printf("fault_storm: %s (%" PRIu64 " ops, %" PRIu64
                " stalled doorbells)\n",
                failures == 0 ? "all gates passed" : "GATES FAILED",
                ops, rig.b.pod->nmp().total_stalled_doorbells());
    bench::finish_metrics(opt);
    return failures == 0 ? 0 : 1;
}
