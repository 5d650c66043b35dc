/// tiered_hot_shift: the published-object store of bench/tiered_sweep on
/// one host with a CXL window and a private DRAM window (25 % DRAM),
/// driven by dynamic_hot_range: 90 % of accesses hit a hot 1/8 window that
/// shifts every phase, and 2 % are updates (allocate + cell_publish +
/// free). Objects sit behind detectable-CAS reference cells.
///
/// Why: reads, migration and detectable CAS dominate; the allocator is
/// touched only by the 2 % updates and by migration moves. A migration or
/// stride change shows only here; an allocator fast-path gain should not.
///
/// One worker runs HotSlabMigrator::run_epoch synchronously every
/// kEpochEvery ops on its own context, which models a background core on
/// both clocks: the migrator's simulated time is off the critical path and
/// its host time is reported as background time, not worker time. A
/// replica is deterministic for its seed and op count. The workload runs
/// kReplicas independent replicas, one per worker thread, so the host
/// clock averages over every core instead of riding one core's noise.
/// Payloads are stamped with object index and version and verified on
/// every read.

#include "bench.h"
#include "cxlalloc/migrate.h"
#include "pod/pod.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kObjSize = 64;
constexpr std::uint32_t kWords = kObjSize / 8;
constexpr std::uint64_t kEpochEvery = 10000;
/// One round is one phase of the hot window.
constexpr std::uint64_t kStepsPerRound = 50000;
constexpr std::uint64_t kPhaseOps = kStepsPerRound;
constexpr std::uint32_t kDramPercent = 25;
constexpr unsigned kReplicas = 4;

using Payload = std::array<std::uint64_t, kWords>;

void
stamp_payload(Payload& p, std::uint64_t index, std::uint64_t version)
{
    p[0] = index;
    p[1] = version;
    std::uint64_t base = mix64(index ^ (version << 40));
    for (std::uint32_t i = 2; i < kWords; i++) {
        p[i] = base + i;
    }
}

bool
payload_ok(const Payload& p, std::uint64_t index)
{
    Payload want;
    stamp_payload(want, index, p[1]);
    return p == want;
}

/// The CXL fabric's extra cost over the base (local-DRAM) latency model:
/// the paper's measured DRAM->CXL gap (§5.4), as in bench/tiered_sweep.
cxl::EdgeCost
cxl_gap_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 245;
    e.write_add_ns = 150;
    e.ns_per_kib = 8;
    return e;
}

/// One host's published-object store, heap and migrator on its own pod.
class Replica {
  public:
    Replica(const Args& args, unsigned index)
        : seed_(args.seed), objects_(args.size == Size::Tiny ? 1024 : 16384),
          versions_(objects_, 0), rng_(mix64(args.seed + 2) ^ index)
    {
        pod::Topology base(1, 1);
        base.edge(0, 0) = cxl_gap_edge();
        pod::Topology topo = pod::Topology::with_local_dram(base);

        cxlalloc::Config cfg;
        cfg.small_slabs = 512;
        cfg.large_slabs = 8;
        cfg.huge_regions = 1;
        cfg.huge_region_size = 1 << 20;
        // One cell per object plus a spare sync word for calibration.
        cfg.app_sync_bytes = (objects_ + 1) * 8;
        cfg.dram_percent = kDramPercent;
        // DRAM capacity tracks the DRAM fraction of the object set, plus
        // slack for the two thread-local active slabs.
        cxlalloc::Config dram_cfg = cfg;
        dram_cfg.small_slabs = static_cast<std::uint32_t>(
            objects_ * kDramPercent /
                (100 * (cxlalloc::kSmallSlabSize / kObjSize)) +
            2);

        double t0 = host_s();
        pod::PodConfig pc;
        pc.device = cxlalloc::PodShardedAllocator::device_config(
            cfg, topo, cxl::CoherenceMode::PartialHwcc,
            /*simulate_cache=*/false, /*extra_window_bytes=*/0, &dram_cfg);
        pc.topology = topo;
        pod_ = std::make_unique<pod::Pod>(pc);
        proc_ = pod_->create_process(0);
        double t1 = host_s();
        setup.pod_s = t1 - t0;

        heap_ = std::make_unique<cxlalloc::PodShardedAllocator>(*pod_, cfg,
                                                                &dram_cfg);
        heap_->attach(*proc_);
        worker_ = pod_->create_thread(proc_);
        mig_ctx_ = pod_->create_thread(proc_);
        for (pod::ThreadContext* ctx : {worker_.get(), mig_ctx_.get()}) {
            heap_->attach_thread(*ctx);
            ctx->mem().set_latency_model(&model_);
        }
        cell_shard_ = &heap_->shard(topo.home_of(0));
        cells_ = cell_shard_->layout().app_sync();
        dram_device_ = heap_->dram_device(0);
        cxlalloc::HotSlabMigrator::Options mopt;
        mopt.max_moves_per_epoch = 256;
        migrator_ = std::make_unique<cxlalloc::HotSlabMigrator>(*heap_, mopt);
        migrator_->set_cell_table(cells_,
                                  static_cast<std::uint32_t>(objects_));
        double t2 = host_s();
        setup.attach_s = t2 - t1;

        cxl::MemSession& mem = worker_->mem();
        Payload p;
        for (std::uint64_t i = 0; i < objects_; i++) {
            cxl::HeapOffset off = heap_->allocate(*worker_, kObjSize);
            if (off == 0) {
                setup_failed++;
                continue;
            }
            stamp_payload(p, i, 0);
            mem.write_bytes(off, p.data(), kObjSize);
            mem.flush(off, kObjSize);
            mem.fence();
            auto res = cell_shard_->cell_publish(
                *worker_, cell(i), 0, static_cast<std::uint32_t>(off >> 3));
            setup_failed += res.success ? 0 : 1;
        }
        setup.preload_s = host_s() - t2;
    }

    ~Replica()
    {
        pod_->release_thread(std::move(worker_));
        pod_->release_thread(std::move(mig_ctx_));
    }

    Replica(const Replica&) = delete;
    Replica& operator=(const Replica&) = delete;

    SetupTimes setup;
    std::uint64_t setup_failed = 0;

    void
    step_round(WorkerStats& ws)
    {
        cxl::MemSession& mem = worker_->mem();
        for (std::uint64_t s = 0; s < kStepsPerRound; s++) {
            std::uint64_t op = op_++;
            try {
                if (op % kEpochEvery == kEpochEvery - 1) {
                    run_epoch(ws);
                }
                std::uint64_t idx = draw_index(op);
                bool update = rng_.uniform() < 0.02;
                std::uint64_t s0 = mem.sim_ns();
                access(idx, update, ws);
                ws.sim.add(mem.sim_ns() - s0);
            } catch (const cxl::EdgeDownError&) {
                ws.failed++;
            } catch (const cxl::NmpStallError&) {
                ws.failed++;
            }
            ws.ops++;
        }
    }

    cxl::MemSession& worker_session() { return worker_->mem(); }
    cxl::MemSession& migrator_session() { return mig_ctx_->mem(); }

    std::uint64_t mapping_faults() { return proc_->faults_resolved(); }

    std::uint64_t
    sweep(bool drained)
    {
        std::uint64_t bad = 0;
        for (cxl::DeviceId d = 0; d < heap_->shard_count(); d++) {
            bad += sweep_heap(heap_->shard(d), worker_->mem(), drained);
        }
        return bad;
    }

    std::uint64_t
    drain()
    {
        cxl::MemSession& mem = worker_->mem();
        std::uint64_t bad = 0;
        Payload p;
        for (std::uint64_t i = 0; i < objects_; i++) {
            std::uint32_t val = cell_shard_->dcas().read(mem, cell(i));
            if (val == 0) {
                bad++;
                continue;
            }
            auto off = static_cast<cxl::HeapOffset>(val) << 3;
            mem.read_bytes(off, p.data(), kObjSize);
            bad += payload_ok(p, i) && p[1] == versions_[i] ? 0 : 1;
            heap_->deallocate(*worker_, off);
        }
        return bad;
    }

    std::uint64_t
    committed_bytes()
    {
        return pod_->device().committed_bytes();
    }

    std::uint64_t hwcc_bytes() { return heap_->hwcc_bytes(); }

    void
    calibrate(Tracer& tracer)
    {
        cxl::HeapOffset scratch = heap_->allocate(*worker_, kObjSize);
        calibrate_session(tracer, worker_->mem(), scratch, cell(objects_),
                          50000);
        heap_->deallocate(*worker_, scratch);
    }

    double
    gen_ns_per_op()
    {
        constexpr std::uint64_t kOps = 1 << 20;
        Rng saved = rng_;
        rng_ = Rng(seed_);
        std::uint64_t acc = 0;
        std::uint64_t t0 = host_ns();
        for (std::uint64_t op = 0; op < kOps; op++) {
            acc += draw_index(op) + (rng_.uniform() < 0.02 ? 1 : 0);
        }
        double ns = static_cast<double>(host_ns() - t0);
        rng_ = saved;
        return acc == 0 ? ns : ns / kOps;
    }

  private:
    cxl::HeapOffset
    cell(std::uint64_t i) const
    {
        return cells_ + i * 8;
    }

    /// dynamic_hot_range: 90 % in a hot 1/8 window that shifts by its own
    /// length every kPhaseOps ops, 10 % uniform.
    std::uint64_t
    draw_index(std::uint64_t op)
    {
        std::uint64_t hot_len = objects_ / 8;
        std::uint64_t hot_base = (op / kPhaseOps * hot_len) % objects_;
        if (rng_.uniform() < 0.9) {
            return (hot_base + rng_.below(hot_len)) % objects_;
        }
        return rng_.below(objects_);
    }

    void
    run_epoch(WorkerStats& ws)
    {
        std::uint64_t aborted0 = migrator_->aborted();
        std::uint64_t t0 = host_ns();
        {
            Span sp(ws.tracer, Kind::Epoch, mig_ctx_->mem());
            std::uint32_t moves = migrator_->run_epoch(*mig_ctx_);
            sp.items = moves;
            ws.moves += moves;
        }
        ws.aborted += migrator_->aborted() - aborted0;
        ws.background_ns += host_ns() - t0;
    }

    void
    access(std::uint64_t idx, bool update, WorkerStats& ws)
    {
        cxl::MemSession& mem = worker_->mem();
        std::uint32_t val;
        {
            Span sp(ws.tracer, Kind::CellRead, mem);
            val = cell_shard_->dcas().read(mem, cell(idx));
        }
        if (val == 0) {
            ws.failed++;
            return;
        }
        auto off = static_cast<cxl::HeapOffset>(val) << 3;
        if (!update) {
            Payload p;
            mem.read_bytes(off, p.data(), kObjSize);
            ws.failed += payload_ok(p, idx) ? 0 : 1;
            migrator_->note_access(off);
            return;
        }

        cxl::HeapOffset fresh;
        {
            Span sp(ws.tracer, Kind::Alloc, mem);
            fresh = heap_->allocate(*worker_, kObjSize);
            sp.failed = fresh == 0;
            if (ws.tracer != nullptr && fresh != 0) {
                ws.tracer->note_alloc(mem, fresh, dram_device_);
            }
        }
        if (fresh == 0) {
            ws.failed++;
            return;
        }
        Payload p;
        stamp_payload(p, idx, versions_[idx] + 1);
        mem.write_bytes(fresh, p.data(), kObjSize);
        mem.flush(fresh, kObjSize);
        mem.fence();
        cxlsync::DetectableCas::Result res;
        {
            Span sp(ws.tracer, Kind::CellPublish, mem);
            res = cell_shard_->cell_publish(
                *worker_, cell(idx), val,
                static_cast<std::uint32_t>(fresh >> 3));
            sp.failed = !res.success;
        }
        // Nothing else writes the cells while the worker runs (the
        // migrator shares its thread), so a lost publish is a fault.
        ws.failed += res.success ? 0 : 1;
        versions_[idx] += res.success ? 1 : 0;
        cxl::HeapOffset loser = res.success ? off : fresh;
        {
            Span sp(ws.tracer, Kind::Free, mem);
            if (ws.tracer != nullptr) {
                ws.tracer->note_free(mem, loser);
            }
            heap_->deallocate(*worker_, loser);
        }
        migrator_->note_access(res.success ? fresh : off);
    }

    std::uint64_t seed_;
    std::uint64_t objects_;
    std::vector<std::uint64_t> versions_;
    Rng rng_;
    std::uint64_t op_ = 0;
    cxl::LatencyModel model_ = cxl::LatencyModel::local_dram();
    std::unique_ptr<pod::Pod> pod_;
    pod::Process* proc_ = nullptr;
    std::unique_ptr<cxlalloc::PodShardedAllocator> heap_;
    std::unique_ptr<pod::ThreadContext> worker_;
    std::unique_ptr<pod::ThreadContext> mig_ctx_;
    cxlalloc::CxlAllocator* cell_shard_ = nullptr;
    cxl::HeapOffset cells_ = 0;
    cxl::DeviceId dram_device_ = 0;
    std::unique_ptr<cxlalloc::HotSlabMigrator> migrator_;
};

class Tiered final : public Workload {
  public:
    explicit Tiered(const Args& args)
    {
        for (unsigned r = 0; r < kReplicas; r++) {
            replicas_[r] = std::make_unique<Replica>(args, r);
            setup.pod_s += replicas_[r]->setup.pod_s;
            setup.attach_s += replicas_[r]->setup.attach_s;
            setup.preload_s += replicas_[r]->setup.preload_s;
            setup_failed += replicas_[r]->setup_failed;
        }
    }

    unsigned workers() const override { return kReplicas; }

    void
    step_round(unsigned w, WorkerStats& ws) override
    {
        replicas_[w]->step_round(ws);
    }

    std::vector<cxl::MemSession*>
    sessions() override
    {
        std::vector<cxl::MemSession*> out;
        for (auto& r : replicas_) {
            out.push_back(&r->worker_session());
        }
        for (auto& r : replicas_) {
            out.push_back(&r->migrator_session());
        }
        return out;
    }

    std::uint64_t
    mapping_faults() override
    {
        return sum([](Replica& r) { return r.mapping_faults(); });
    }

    std::uint64_t
    sweep(bool drained) override
    {
        return sum([&](Replica& r) { return r.sweep(drained); });
    }

    std::uint64_t
    drain() override
    {
        return sum([](Replica& r) { return r.drain(); });
    }

    std::uint64_t
    committed_bytes() override
    {
        return sum([](Replica& r) { return r.committed_bytes(); });
    }

    std::uint64_t
    hwcc_bytes() override
    {
        return sum([](Replica& r) { return r.hwcc_bytes(); });
    }

    void calibrate(Tracer& tracer) override { replicas_[0]->calibrate(tracer); }
    double gen_ns_per_op() override { return replicas_[0]->gen_ns_per_op(); }

  private:
    template <typename F>
    std::uint64_t
    sum(F&& f)
    {
        std::uint64_t n = 0;
        for (auto& r : replicas_) {
            n += f(*r);
        }
        return n;
    }

    std::array<std::unique_ptr<Replica>, kReplicas> replicas_;
};

} // namespace

std::unique_ptr<Workload>
make_tiered(const Args& args)
{
    return std::make_unique<Tiered>(args);
}

} // namespace perfbench
