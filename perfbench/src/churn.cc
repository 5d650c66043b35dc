/// churn_mcas: xmalloc-style alloc/free churn on one single-host
/// CxlAllocator with no HWcc (every sync op is an NMP mCAS).
///
/// Why: the allocator, MemSession and NMP layers do nearly all the work —
/// no KV index, no routing, no migration — so a fast-path, remote-free or
/// simulator-speed change shows here in full.
///
/// Each worker is its own pod::Process with checked mappings (PC-T). It
/// keeps a FIFO of live objects; every step allocates one object and
/// retires the oldest once the FIFO is over its live-set size. A quarter
/// of retirements hand the object to the right neighbour instead of
/// freeing it; the neighbour frees what it receives as remote frees,
/// drained kRemoteBatch at a time through deallocate_batch. Objects are
/// stamped at allocation and the stamp is checked before every free, so
/// two live objects sharing bytes are caught.

#include <atomic>
#include <cstring>
#include <deque>

#include "bench.h"
#include "cxlalloc/allocator.h"
#include "pod/pod.h"

namespace perfbench {
namespace {

constexpr unsigned kWorkers = 4;
constexpr std::uint32_t kRemoteBatch = 16;
constexpr std::uint64_t kStepsPerRound = 2048;
constexpr cxl::DeviceId kNoDram = ~cxl::DeviceId{0};

struct Item {
    cxl::HeapOffset off = 0;
    std::uint64_t size = 0;
    std::uint64_t stamp = 0;
};

/// Single-producer (left neighbour) single-consumer (owner) handoff ring.
class Inbox {
  public:
    explicit Inbox(std::size_t capacity) : slots_(capacity) {}

    bool
    push(const Item& item)
    {
        std::size_t t = tail_.load(std::memory_order_relaxed);
        if (t - head_.load(std::memory_order_acquire) == slots_.size()) {
            return false;
        }
        slots_[t % slots_.size()] = item;
        tail_.store(t + 1, std::memory_order_release);
        return true;
    }

    /// Pops up to @p max items, but only when at least @p min are queued.
    std::size_t
    pop(Item* out, std::size_t max, std::size_t min)
    {
        std::size_t h = head_.load(std::memory_order_relaxed);
        std::size_t avail = tail_.load(std::memory_order_acquire) - h;
        if (avail < min || avail == 0) {
            return 0;
        }
        std::size_t n = std::min(avail, max);
        for (std::size_t i = 0; i < n; i++) {
            out[i] = slots_[(h + i) % slots_.size()];
        }
        head_.store(h + n, std::memory_order_release);
        return n;
    }

  private:
    std::vector<Item> slots_;
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<std::size_t> tail_{0};
};

/// Heavy-tailed object size: mostly small (8 B-1 KiB, cubed uniform biases
/// small), 1/128 large (1-16 KiB), 1/65536 huge (0.5-2 MiB, freed at once).
std::uint64_t
draw_size(Rng& rng)
{
    double r = rng.uniform();
    double u = rng.uniform();
    if (r < 1.0 / 65536) {
        return (512 << 10) + static_cast<std::uint64_t>(u * (1536 << 10));
    }
    if (r < 1.0 / 128) {
        return cxlalloc::kSmallMax + 1 +
               static_cast<std::uint64_t>(u * u * u * (15 << 10));
    }
    return 8 + static_cast<std::uint64_t>(u * u * u * 1016);
}

class Churn final : public Workload {
  public:
    explicit Churn(const Args& args)
        : seed_(args.seed), live_(args.size == Size::Tiny ? 256 : 4096)
    {
        cxlalloc::Config cfg;
        cfg.small_slabs = args.size == Size::Tiny ? 512 : 2048;
        cfg.large_slabs = args.size == Size::Tiny ? 64 : 256;
        cfg.huge_regions = 16;
        cfg.huge_region_size = 8 << 20;
        cfg.app_sync_bytes = 64; // one spare sync word for calibration

        double t0 = host_s();
        pod::PodConfig pc;
        pc.device = cxlalloc::Layout(cfg).device_config(
            cxl::CoherenceMode::NoHwcc);
        pc.checked_mappings = true;
        pod_ = std::make_unique<pod::Pod>(pc);
        for (unsigned w = 0; w < kWorkers; w++) {
            workers_[w].proc = pod_->create_process();
        }
        double t1 = host_s();
        setup.pod_s = t1 - t0;

        heap_ = std::make_unique<cxlalloc::CxlAllocator>(*pod_, cfg);
        for (unsigned w = 0; w < kWorkers; w++) {
            Worker& me = workers_[w];
            heap_->attach(*me.proc);
            me.ctx = pod_->create_thread(me.proc);
            heap_->attach_thread(*me.ctx);
            me.ctx->mem().set_latency_model(&model_);
            me.rng = Rng(mix64(seed_) ^ w);
            me.inbox = std::make_unique<Inbox>(1024);
        }
        double t2 = host_s();
        setup.attach_s = t2 - t1;

        WorkerStats scratch;
        for (unsigned w = 0; w < kWorkers; w++) {
            for (std::uint64_t i = 0; i < live_; i++) {
                allocate_one(w, scratch);
            }
        }
        setup_failed = scratch.failed;
        setup.preload_s = host_s() - t2;
    }

    ~Churn() override
    {
        for (Worker& me : workers_) {
            pod_->release_thread(std::move(me.ctx));
        }
    }

    unsigned workers() const override { return kWorkers; }

    void
    step_round(unsigned w, WorkerStats& ws) override
    {
        Worker& me = workers_[w];
        for (std::uint64_t s = 0; s < kStepsPerRound; s++) {
            try {
                allocate_one(w, ws);
                if (me.fifo.size() > live_) {
                    Item oldest = me.fifo.front();
                    me.fifo.pop_front();
                    retire(w, oldest, ws);
                }
                drain_inbox(w, ws, kRemoteBatch);
            } catch (const cxl::EdgeDownError&) {
                ws.failed++;
            } catch (const cxl::NmpStallError&) {
                ws.failed++;
            }
        }
        if (me.freed_huge) {
            heap_->cleanup(*me.ctx);
            me.freed_huge = false;
        }
    }

    std::vector<cxl::MemSession*>
    sessions() override
    {
        std::vector<cxl::MemSession*> out;
        for (Worker& me : workers_) {
            out.push_back(&me.ctx->mem());
        }
        return out;
    }

    std::uint64_t
    mapping_faults() override
    {
        std::uint64_t n = 0;
        for (Worker& me : workers_) {
            n += me.proc->faults_resolved();
        }
        return n;
    }

    std::uint64_t
    sweep(bool drained) override
    {
        return sweep_heap(*heap_, workers_[0].ctx->mem(), drained);
    }

    std::uint64_t
    drain() override
    {
        std::uint64_t bad = 0;
        WorkerStats scratch;
        for (unsigned w = 0; w < kWorkers; w++) {
            Worker& me = workers_[w];
            while (!me.fifo.empty()) {
                Item it = me.fifo.front();
                me.fifo.pop_front();
                bad += stamp_ok(me, it) ? 0 : 1;
                heap_->deallocate(*me.ctx, it.off);
            }
        }
        // Handed-over objects are freed by their receiver, after every
        // producer has stopped.
        for (unsigned w = 0; w < kWorkers; w++) {
            while (drain_inbox(w, scratch, 1)) {
            }
            heap_->cleanup(*workers_[w].ctx);
        }
        return bad + scratch.failed;
    }

    std::uint64_t
    committed_bytes() override
    {
        return pod_->device().committed_bytes();
    }

    std::uint64_t hwcc_bytes() override { return heap_->layout().hwcc_bytes(); }

    void
    calibrate(Tracer& tracer) override
    {
        Worker& me = workers_[0];
        cxl::HeapOffset scratch = heap_->allocate(*me.ctx, 64);
        calibrate_session(tracer, me.ctx->mem(), scratch,
                          heap_->layout().app_sync(), 20000);
        heap_->deallocate(*me.ctx, scratch);
    }

    double
    gen_ns_per_op() override
    {
        constexpr std::uint64_t kDraws = 1 << 20;
        Rng rng(seed_);
        std::uint64_t acc = 0;
        std::uint64_t t0 = host_ns();
        for (std::uint64_t i = 0; i < kDraws; i++) {
            acc += draw_size(rng) + rng.below(4) + mix64(seed_ ^ i);
        }
        double ns = static_cast<double>(host_ns() - t0);
        return acc == 0 ? ns : ns / kDraws;
    }

  private:
    struct Worker {
        pod::Process* proc = nullptr;
        std::unique_ptr<pod::ThreadContext> ctx;
        Rng rng{0};
        std::deque<Item> fifo;
        std::unique_ptr<Inbox> inbox;
        std::uint64_t seq = 0;
        bool freed_huge = false;
    };

    void
    write_stamp(Worker& me, const Item& it)
    {
        std::byte* p = heap_->pointer(*me.ctx, it.off, it.size);
        std::memcpy(p, &it.stamp, 8);
        if (it.size >= 16) {
            std::memcpy(p + it.size - 8, &it.stamp, 8);
        }
    }

    bool
    stamp_ok(Worker& me, const Item& it)
    {
        const std::byte* p = heap_->pointer(*me.ctx, it.off, it.size);
        std::uint64_t head;
        std::uint64_t tail = it.stamp;
        std::memcpy(&head, p, 8);
        if (it.size >= 16) {
            std::memcpy(&tail, p + it.size - 8, 8);
        }
        return head == it.stamp && tail == it.stamp;
    }

    void
    allocate_one(unsigned w, WorkerStats& ws)
    {
        Worker& me = workers_[w];
        cxl::MemSession& mem = me.ctx->mem();
        Item it;
        it.size = draw_size(me.rng);
        it.stamp = mix64(seed_ ^ (std::uint64_t{w} << 56) ^ ++me.seq);
        std::uint64_t s0 = mem.sim_ns();
        {
            Span sp(ws.tracer, Kind::Alloc, mem);
            it.off = heap_->allocate(*me.ctx, it.size);
            sp.failed = it.off == 0;
            if (ws.tracer != nullptr && it.off != 0) {
                ws.tracer->note_alloc(mem, it.off, kNoDram);
            }
        }
        ws.sim.add(mem.sim_ns() - s0);
        ws.ops++;
        if (it.off == 0) {
            ws.failed++;
            return;
        }
        write_stamp(me, it);
        if (it.size > cxlalloc::kLargeMax) {
            // Huge objects are transient, so whether one happens to be
            // live when the run ends does not swing committed memory.
            retire(w, it, ws);
            return;
        }
        me.fifo.push_back(it);
    }

    void
    retire(unsigned w, const Item& it, WorkerStats& ws)
    {
        Worker& me = workers_[w];
        ws.failed += stamp_ok(me, it) ? 0 : 1;
        if (it.size <= cxlalloc::kLargeMax && me.rng.below(4) == 0 &&
            workers_[(w + 1) % kWorkers].inbox->push(it)) {
            return;
        }
        cxl::MemSession& mem = me.ctx->mem();
        std::uint64_t s0 = mem.sim_ns();
        {
            Span sp(ws.tracer, Kind::Free, mem);
            if (ws.tracer != nullptr) {
                ws.tracer->note_free(mem, it.off);
            }
            heap_->deallocate(*me.ctx, it.off);
        }
        ws.sim.add(mem.sim_ns() - s0);
        ws.ops++;
        me.freed_huge |= it.size > cxlalloc::kLargeMax;
    }

    /// Frees one batch from the inbox if at least @p min objects wait.
    bool
    drain_inbox(unsigned w, WorkerStats& ws, std::size_t min)
    {
        Worker& me = workers_[w];
        Item batch[kRemoteBatch];
        std::size_t n = me.inbox->pop(batch, kRemoteBatch, min);
        if (n == 0) {
            return false;
        }
        cxl::HeapOffset offs[kRemoteBatch];
        for (std::size_t i = 0; i < n; i++) {
            ws.failed += stamp_ok(me, batch[i]) ? 0 : 1;
            offs[i] = batch[i].off;
        }
        cxl::MemSession& mem = me.ctx->mem();
        std::uint64_t s0 = mem.sim_ns();
        {
            Span sp(ws.tracer, Kind::FreeRemote, mem);
            sp.items = n;
            if (ws.tracer != nullptr) {
                for (std::size_t i = 0; i < n; i++) {
                    ws.tracer->note_free(mem, offs[i]);
                }
            }
            heap_->deallocate_batch(*me.ctx, offs,
                                    static_cast<std::uint32_t>(n));
        }
        // Amortized per free, remainder on the last so the sum is exact.
        std::uint64_t d = mem.sim_ns() - s0;
        ws.sim.add(d / n, n - 1);
        ws.sim.add(d - (d / n) * (n - 1));
        ws.ops += n;
        return true;
    }

    std::uint64_t seed_;
    std::uint64_t live_;
    cxl::LatencyModel model_ = cxl::LatencyModel::cxl_mcas();
    std::unique_ptr<pod::Pod> pod_;
    std::unique_ptr<cxlalloc::CxlAllocator> heap_;
    std::array<Worker, kWorkers> workers_;
};

} // namespace

std::unique_ptr<Workload>
make_churn(const Args& args)
{
    return std::make_unique<Churn>(args);
}

} // namespace perfbench
