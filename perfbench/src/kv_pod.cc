/// kv_pod: the paper's modified YCSB-A (25 % insert, 25 % delete, 50 %
/// read, zipfian keys, 960 B values) on a dense 4-host x 4-device pod with
/// partial HWcc and fig8's far-edge costs.
///
/// Why: the KV index and the pod's routing and edge charges carry most of
/// the cost; the allocator is a minority and writes sit beside reads. An
/// allocator-only gain should move this workload only a little, while a
/// routing or placement change shows here and not in churn_mcas.
///
/// One worker thread per host, each with a KvStore in its home window;
/// every 8th read goes to the next host's store. An insert of a key its
/// store already holds replaces it (remove + insert in one op), so a store
/// never holds more than its keyspace, however long the run. The store
/// reaches the heap through this file's PodAllocator shim, so the traced
/// run sees the allocator calls as child spans of the KV operation. Values
/// are stamped with key id and writer; every hit is verified.

#include <cstring>

#include "baselines/pod_allocator.h"
#include "bench.h"
#include "cxlalloc/pod_shard.h"
#include "kv/kv_store.h"
#include "pod/pod.h"

namespace perfbench {
namespace {

constexpr unsigned kHosts = 4;
constexpr unsigned kDevices = 4;
constexpr std::uint32_t kKeyLen = 8;
constexpr std::uint32_t kValueWords = 120; // 960 B
constexpr std::uint32_t kValueLen = kValueWords * 8;
constexpr std::uint64_t kStepsPerRound = 4096;
constexpr std::uint64_t kPeerReadEvery = 8;

using Value = std::array<std::uint64_t, kValueWords>;

/// Word 0 = key id, word 1 = writer tag (host, sequence); the rest is
/// derived from both, so a torn, misplaced or stale-freed value fails.
void
stamp_value(Value& v, std::uint64_t key, std::uint64_t tag)
{
    v[0] = key;
    v[1] = tag;
    std::uint64_t base = mix64(key ^ (tag * 0x9e3779b97f4a7c15ULL));
    for (std::uint32_t i = 2; i < kValueWords; i++) {
        v[i] = base + i;
    }
}

bool
value_ok(const Value& v, std::uint64_t key)
{
    std::uint64_t base = mix64(key ^ (v[1] * 0x9e3779b97f4a7c15ULL));
    if (v[0] != key) {
        return false;
    }
    for (std::uint32_t i = 2; i < kValueWords; i++) {
        if (v[i] != base + i) {
            return false;
        }
    }
    return true;
}

/// The benchmark's PodAllocator over the sharded heap: forwards to the
/// public PodShardedAllocator API, recording an allocator span (and the
/// returned block's window) when the calling thread is traced.
class Shim final : public baselines::PodAllocator {
  public:
    explicit Shim(cxlalloc::PodShardedAllocator& heap) : heap_(heap) {}

    const char* name() const override { return "perfbench-pod-shim"; }
    baselines::AllocTraits traits() const override { return {}; }

    void
    attach_thread(pod::ThreadContext& ctx) override
    {
        heap_.attach_thread(ctx);
    }

    cxl::HeapOffset
    allocate(pod::ThreadContext& ctx, std::uint64_t size) override
    {
        Tracer* t = tracer[ctx.tid()];
        Span sp(t, Kind::Alloc, ctx.mem());
        cxl::HeapOffset off = heap_.allocate(ctx, size);
        sp.failed = off == 0;
        if (t != nullptr && off != 0) {
            t->note_alloc(ctx.mem(), off,
                          heap_.dram_device(ctx.process().host()));
        }
        return off;
    }

    void
    deallocate(pod::ThreadContext& ctx, cxl::HeapOffset offset) override
    {
        Tracer* t = tracer[ctx.tid()];
        Span sp(t, Kind::Free, ctx.mem());
        if (t != nullptr) {
            t->note_free(ctx.mem(), offset);
        }
        heap_.deallocate(ctx, offset);
    }

    std::uint64_t
    hwcc_bytes(cxl::MemSession&) override
    {
        return heap_.hwcc_bytes();
    }

    /// Tracer of each pod thread id (null = untraced).
    std::array<Tracer*, cxl::kMaxThreads + 1> tracer{};

  private:
    cxlalloc::PodShardedAllocator& heap_;
};

/// Extra cost of a non-attached (switched) edge over the base CXL latency
/// (the fig8 --pod far edge).
cxl::EdgeCost
far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 120;
    e.write_add_ns = 180;
    e.ns_per_kib = 8;
    return e;
}

class KvPod final : public Workload {
  public:
    explicit KvPod(const Args& args)
        : seed_(args.seed),
          keys_(args.size == Size::Tiny ? 1024 : 16384),
          buckets_(args.size == Size::Tiny ? 1 << 12 : 1 << 15),
          zipf_(keys_)
    {
        pod::Topology topo =
            pod::Topology::dense(kHosts, kDevices, cxl::EdgeCost{}, far_edge());
        cxlalloc::Config cfg;
        cfg.small_slabs = args.size == Size::Tiny ? 256 : 2048;
        cfg.large_slabs = 8;
        cfg.huge_regions = 1;
        cfg.huge_region_size = 1 << 20;
        cfg.app_sync_bytes = 64; // one spare sync word for calibration

        double t0 = host_s();
        pod::PodConfig pc;
        pc.device = cxlalloc::PodShardedAllocator::device_config(
            cfg, topo, cxl::CoherenceMode::PartialHwcc,
            /*simulate_cache=*/false,
            /*extra_window_bytes=*/kv::HashTable::footprint(buckets_));
        pc.topology = topo;
        pod_ = std::make_unique<pod::Pod>(pc);
        for (unsigned h = 0; h < kHosts; h++) {
            hosts_[h].proc = pod_->create_process(static_cast<pod::HostId>(h));
        }
        double t1 = host_s();
        setup.pod_s = t1 - t0;

        heap_ = std::make_unique<cxlalloc::PodShardedAllocator>(*pod_, cfg);
        shim_ = std::make_unique<Shim>(*heap_);
        for (unsigned h = 0; h < kHosts; h++) {
            Host& me = hosts_[h];
            heap_->attach(*me.proc);
            me.ctx = pod_->create_thread(me.proc);
            shim_->attach_thread(*me.ctx);
            me.ctx->mem().set_latency_model(&model_);
            me.buckets =
                heap_->extra_base(topo.home_of(static_cast<pod::HostId>(h)));
            me.store = std::make_unique<kv::KvStore>(*pod_, me.buckets,
                                                     buckets_, shim_.get());
            me.rng = Rng(mix64(seed_ + 1) ^ h);
        }
        double t2 = host_s();
        setup.attach_s = t2 - t1;

        Value v;
        for (unsigned h = 0; h < kHosts; h++) {
            Host& me = hosts_[h];
            me.present.assign(keys_, 1);
            for (std::uint64_t key = 0; key < keys_; key++) {
                stamp_value(v, key, (std::uint64_t{h} << 32) | ++me.seq);
                if (!me.store->insert(*me.ctx, key, kKeyLen, v.data(),
                                      kValueLen)) {
                    setup_failed++;
                }
            }
        }
        setup.preload_s = host_s() - t2;
    }

    ~KvPod() override
    {
        for (Host& me : hosts_) {
            me.store.reset();
            pod_->release_thread(std::move(me.ctx));
        }
    }

    unsigned workers() const override { return kHosts; }

    void
    step_round(unsigned h, WorkerStats& ws) override
    {
        Host& me = hosts_[h];
        cxl::MemSession& mem = me.ctx->mem();
        shim_->tracer[me.ctx->tid()] = ws.tracer;
        Value value;
        Value buf;
        for (std::uint64_t s = 0; s < kStepsPerRound; s++) {
            double r = me.rng.uniform();
            std::uint64_t key = zipf_.sample(me.rng);
            std::uint64_t s0 = mem.sim_ns();
            try {
                if (r < 0.25) {
                    stamp_value(value, key,
                                (std::uint64_t{h} << 32) | ++me.seq);
                    Span sp(ws.tracer, Kind::KvInsert, mem);
                    charge_bucket(me, h, key);
                    if (me.present[key] != 0) {
                        me.store->remove(*me.ctx, key, kKeyLen);
                    }
                    bool ok = me.store->insert(*me.ctx, key, kKeyLen,
                                               value.data(), kValueLen);
                    me.present[key] = ok ? 1 : 0;
                    sp.failed = !ok;
                    ws.failed += ok ? 0 : 1;
                } else if (r < 0.5) {
                    Span sp(ws.tracer, Kind::KvRemove, mem);
                    charge_bucket(me, h, key);
                    if (me.store->remove(*me.ctx, key, kKeyLen)) {
                        me.present[key] = 0;
                    }
                } else {
                    unsigned target = ++me.reads % kPeerReadEvery == 0
                                          ? (h + 1) % kHosts
                                          : h;
                    Span sp(ws.tracer, Kind::KvGet, mem);
                    charge_bucket(me, target, key);
                    ws.reads++;
                    if (hosts_[target].store->get(*me.ctx, key, kKeyLen,
                                                  buf.data(), kValueLen)) {
                        ws.hits++;
                        sp.failed = !value_ok(buf, key);
                        ws.failed += sp.failed ? 1 : 0;
                    }
                }
            } catch (const cxl::EdgeDownError&) {
                ws.failed++;
            } catch (const cxl::NmpStallError&) {
                ws.failed++;
            }
            ws.sim.add(mem.sim_ns() - s0);
            ws.ops++;
        }
    }

    std::vector<cxl::MemSession*>
    sessions() override
    {
        std::vector<cxl::MemSession*> out;
        for (Host& me : hosts_) {
            out.push_back(&me.ctx->mem());
        }
        return out;
    }

    std::uint64_t
    mapping_faults() override
    {
        std::uint64_t n = 0;
        for (Host& me : hosts_) {
            n += me.proc->faults_resolved();
        }
        return n;
    }

    std::uint64_t
    sweep(bool drained) override
    {
        std::uint64_t bad = 0;
        for (cxl::DeviceId d = 0; d < heap_->shard_count(); d++) {
            bad += sweep_heap(heap_->shard(d), hosts_[0].ctx->mem(), drained);
        }
        return bad;
    }

    std::uint64_t
    drain() override
    {
        shim_->tracer.fill(nullptr);
        std::uint64_t bad = 0;
        for (Host& me : hosts_) {
            me.store->table().for_each_node([&](std::uint64_t node) {
                bad += node_ok(me, node) ? 0 : 1;
            });
        }
        for (Host& me : hosts_) {
            me.store->table().clear(*me.ctx);
        }
        return bad;
    }

    std::uint64_t
    committed_bytes() override
    {
        return pod_->device().committed_bytes();
    }

    std::uint64_t hwcc_bytes() override { return heap_->hwcc_bytes(); }

    void
    calibrate(Tracer& tracer) override
    {
        Host& me = hosts_[0];
        cxl::HeapOffset scratch = heap_->allocate(*me.ctx, 64);
        cxl::HeapOffset sync =
            heap_->shard(me.ctx->mem().home_device()).layout().app_sync();
        calibrate_session(tracer, me.ctx->mem(), scratch, sync, 50000);
        heap_->deallocate(*me.ctx, scratch);
    }

    double
    gen_ns_per_op() override
    {
        constexpr std::uint64_t kOps = 1 << 18;
        Rng rng(seed_);
        Value v;
        std::uint64_t acc = 0;
        std::uint64_t t0 = host_ns();
        for (std::uint64_t i = 0; i < kOps; i++) {
            double r = rng.uniform();
            std::uint64_t key = zipf_.sample(rng);
            if (r < 0.25) {
                stamp_value(v, key, i);
                acc += v[kValueWords - 1];
            }
            acc += key;
        }
        double ns = static_cast<double>(host_ns() - t0);
        return acc == 0 ? ns : ns / kOps;
    }

  private:
    struct Host {
        pod::Process* proc = nullptr;
        std::unique_ptr<pod::ThreadContext> ctx;
        std::unique_ptr<kv::KvStore> store;
        cxl::HeapOffset buckets = 0;
        Rng rng{0};
        std::uint64_t seq = 0;
        std::uint64_t reads = 0;
        /// Keys the host's own store holds (only its worker writes it).
        std::vector<std::uint8_t> present;
    };

    /// The KV data path uses real pointers (full-HWcc semantics), so the
    /// index access is modelled by pulling the target bucket line through
    /// the session: that routes it over the (host, device) edge and
    /// charges its latency, as fig8 --pod does.
    void
    charge_bucket(Host& me, unsigned target, std::uint64_t key)
    {
        char kb[kKeyLen];
        kv::KvStore::format_key(key, kKeyLen, kb);
        std::uint64_t hash = kv::HashTable::hash_bytes(kb, kKeyLen);
        std::uint64_t head;
        me.ctx->mem().read_bytes(
            hosts_[target].buckets + (hash % buckets_) * 8, &head, 8);
    }

    /// Node layout (kv/hash_table.h): +16 klen, +20 vlen, +24 key, value.
    bool
    node_ok(Host& me, std::uint64_t node)
    {
        const std::byte* raw =
            me.ctx->mem().data_ptr(node, 24 + kKeyLen + kValueLen);
        std::uint32_t klen;
        std::uint32_t vlen;
        std::memcpy(&klen, raw + 16, 4);
        std::memcpy(&vlen, raw + 20, 4);
        if (klen != kKeyLen || vlen != kValueLen) {
            return false;
        }
        Value v;
        std::memcpy(v.data(), raw + 24 + kKeyLen, kValueLen);
        char kb[kKeyLen];
        kv::KvStore::format_key(v[0], kKeyLen, kb);
        return std::memcmp(kb, raw + 24, kKeyLen) == 0 && value_ok(v, v[0]);
    }

    std::uint64_t seed_;
    std::uint64_t keys_;
    std::uint64_t buckets_;
    Zipf zipf_;
    cxl::LatencyModel model_ = cxl::LatencyModel::cxl_hwcc();
    std::unique_ptr<pod::Pod> pod_;
    std::unique_ptr<cxlalloc::PodShardedAllocator> heap_;
    std::unique_ptr<Shim> shim_;
    std::array<Host, kHosts> hosts_;
};

} // namespace

std::unique_ptr<Workload>
make_kv_pod(const Args& args)
{
    return std::make_unique<KvPod>(args);
}

} // namespace perfbench
