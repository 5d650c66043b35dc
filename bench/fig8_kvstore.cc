/// Fig. 8 (paper §5.2.1): throughput and memory consumption for every
/// allocator running the in-memory key-value store under YCSB and
/// synthesized memcached-trace workloads, across thread counts.
///
/// Allocators that cannot serve a workload's allocation sizes (cxl-shm on
/// MC-12/MC-37, which need > 1 KiB values) are reported as CRASH, matching
/// the paper.

#include <cstdio>
#include <cstring>
#include <memory>

#include "kv/kv_store.h"
#include "support.h"
#include "workload/kv_workload.h"

namespace {

constexpr std::uint64_t kBuckets = 1 << 15;

struct WorkloadPlan {
    workload::KvWorkloadSpec spec;
    std::uint64_t total_ops;
    std::uint64_t preload; ///< keys inserted before timing (YCSB-A/D)
    bench::Geometry geom;
};

std::vector<WorkloadPlan>
plans()
{
    bench::Geometry small_values;
    small_values.small_slabs = 4096; // 128 MiB
    small_values.large_slabs = 32;
    small_values.extra_bytes = kv::HashTable::footprint(kBuckets);

    bench::Geometry big_values;
    big_values.small_slabs = 1024;
    big_values.large_slabs = 768; // 384 MiB for up to 325 KiB values
    big_values.extra_bytes = kv::HashTable::footprint(kBuckets);

    std::vector<WorkloadPlan> out;
    out.push_back({workload::ycsb_load(), 40'000, 0, small_values});
    out.push_back({workload::ycsb_a(), 40'000, 10'000, small_values});
    out.push_back({workload::ycsb_d(), 40'000, 10'000, small_values});
    out.push_back({workload::mc12(), 3'000, 0, big_values});
    out.push_back({workload::mc15(), 40'000, 0, small_values});
    out.push_back({workload::mc31(), 40'000, 0, small_values});
    out.push_back({workload::mc37(), 3'000, 1'000, big_values});
    return out;
}

void
run_one(const WorkloadPlan& plan, const std::string& alloc_name,
        std::uint32_t threads)
{
    bench::Bundle b = bench::make_bundle(alloc_name, plan.geom);
    kv::KvStore store(*b.pod, b.extra_base, kBuckets, b.alloc.get());

    std::uint64_t failures = 0;

    // Preload (untimed), as YCSB does before the A/D mixes.
    if (plan.preload > 0) {
        auto ctx = b.thread();
        std::vector<char> value(plan.spec.val_max ? plan.spec.val_max : 8,
                                'p');
        for (std::uint64_t k = 0; k < plan.preload; k++) {
            std::uint64_t key = k % plan.spec.keyspace;
            std::uint32_t klen =
                workload::KvOpStream::key_len(plan.spec, key);
            std::uint32_t vlen =
                plan.spec.val_min +
                (plan.spec.val_max - plan.spec.val_min) / 4;
            if (!store.insert(*ctx, key, klen, value.data(), vlen)) {
                failures++;
            }
        }
        b.pod->release_thread(std::move(ctx));
    }

    std::uint64_t per_thread = plan.total_ops / threads;
    std::vector<std::uint64_t> fail(threads, 0);
    bench::RunResult r = bench::run_threads(
        b, threads, [&](pod::ThreadContext& ctx, std::uint32_t w) {
            workload::KvOpStream stream(plan.spec, 7'000 + w);
            std::vector<char> value(plan.spec.val_max ? plan.spec.val_max : 8,
                                    'v');
            std::vector<char> read_buf(4096);
            for (std::uint64_t i = 0; i < per_thread; i++) {
                workload::KvOp op = stream.next();
                switch (op.type) {
                  case workload::OpType::Insert:
                  case workload::OpType::Update:
                    if (!store.insert(ctx, op.key, op.klen, value.data(),
                                      op.vlen)) {
                        fail[w]++;
                    }
                    break;
                  case workload::OpType::Remove:
                    store.remove(ctx, op.key, op.klen);
                    break;
                  case workload::OpType::Read:
                    store.get(ctx, op.key, op.klen, read_buf.data(),
                              read_buf.size());
                    break;
                }
            }
            return per_thread;
        });
    for (auto f : fail) {
        failures += f;
    }

    char note[64] = "";
    if (failures > plan.total_ops / 100) {
        std::snprintf(note, sizeof note, "CRASH (%llu failed allocs)",
                      static_cast<unsigned long long>(failures));
    }
    bench::print_row("fig8", plan.spec.name, alloc_name, threads, r, note);
}

// ---------------------------------------------------------------------------
// --pod: the multi-host variant (docs/POD_TOPOLOGY.md). One process per
// host, one cxlalloc shard per device window, one KV store per host in its
// home window; every 8th read targets the next host's store so the run
// exercises cross-host edges (and their extra latency) alongside the
// host-local fast path.

/// Extra cost of a non-attached (switched) edge over the base CXL latency.
cxl::EdgeCost
pod_far_edge()
{
    cxl::EdgeCost e;
    e.read_add_ns = 120;
    e.write_add_ns = 180;
    e.ns_per_kib = 8;
    return e;
}

bench::RunResult
run_pod_one(const pod::Topology& topo, std::uint32_t threads_per_host,
            std::uint64_t per_thread, bool cross_host_reads)
{
    bench::Geometry geom;
    geom.small_slabs = 4096;
    geom.large_slabs = 32;
    geom.extra_bytes = kv::HashTable::footprint(kBuckets);

    bench::Bundle b = bench::make_bundle("cxlalloc", geom,
                                         bench::MemoryMode::CxlHwcc, topo);
    std::uint32_t hosts = topo.hosts();
    std::vector<std::unique_ptr<kv::KvStore>> stores;
    for (std::uint32_t h = 0; h < hosts; h++) {
        stores.push_back(std::make_unique<kv::KvStore>(
            *b.pod, b.extra_base_for_host(static_cast<pod::HostId>(h)),
            kBuckets, b.alloc.get()));
    }

    std::vector<cxl::HeapOffset> bucket_base(hosts);
    for (std::uint32_t h = 0; h < hosts; h++) {
        bucket_base[h] = b.extra_base_for_host(static_cast<pod::HostId>(h));
    }

    workload::KvWorkloadSpec spec = workload::ycsb_a();
    return bench::run_threads(
        b, hosts * threads_per_host,
        [&](pod::ThreadContext& ctx, std::uint32_t w) {
            auto host = static_cast<std::uint32_t>(ctx.process().host());
            workload::KvOpStream stream(spec, 9'000 + w);
            std::vector<char> value(spec.val_max ? spec.val_max : 8, 'v');
            std::vector<char> read_buf(4096);
            kv::KvStore& own = *stores[host];
            kv::KvStore& peer = *stores[(host + 1u) % hosts];
            for (std::uint64_t i = 0; i < per_thread; i++) {
                workload::KvOp op = stream.next();
                switch (op.type) {
                  case workload::OpType::Insert:
                  case workload::OpType::Update:
                    own.insert(ctx, op.key, op.klen, value.data(), op.vlen);
                    break;
                  case workload::OpType::Remove:
                    own.remove(ctx, op.key, op.klen);
                    break;
                  case workload::OpType::Read: {
                    bool remote = cross_host_reads && hosts > 1 && i % 8 == 0;
                    std::uint32_t target = remote ? (host + 1u) % hosts : host;
                    // The KV data path uses real pointers (full-HWcc
                    // semantics), so model the read's data movement by
                    // pulling the target bucket line through the session —
                    // that is what routes it over the (host, device) edge
                    // and charges its latency.
                    char kb[96];
                    kv::KvStore::format_key(op.key, op.klen, kb);
                    std::uint64_t hsh = kv::HashTable::hash_bytes(kb, op.klen);
                    std::uint64_t head;
                    ctx.mem().read_bytes(
                        bucket_base[target] + (hsh % kBuckets) * 8, &head, 8);
                    (remote ? peer : own)
                        .get(ctx, op.key, op.klen, read_buf.data(),
                             read_buf.size());
                    break;
                  }
                }
            }
            return per_thread;
        });
}

void
run_pod(const bench::Options& opt)
{
    std::puts("Fig. 8 (pod): sharded cxlalloc over a multi-host pod "
              "(dense 4-device fabric; every 8th read is cross-host)");
    constexpr std::uint32_t kDevices = 4;
    constexpr std::uint32_t kThreadsPerHost = 8;
    std::uint64_t per_thread = opt.smoke ? 250 : 2'000;
    cxl::EdgeCost near; // directly-attached head: base latency only
    cxl::EdgeCost far = pod_far_edge();

    obs::MetricsRegistry* reg = bench::bundle_metrics();
    for (std::uint32_t hosts : {1u, 4u, 8u, 16u}) {
        pod::Topology topo = pod::Topology::dense(hosts, kDevices, near, far);
        bench::RunResult r = run_pod_one(topo, kThreadsPerHost, per_thread,
                                         /*cross_host_reads=*/true);
        char note[32];
        std::snprintf(note, sizeof note, "hosts=%u", hosts);
        bench::print_row("fig8p", "ycsb-a-pod", "cxlalloc-pod",
                         hosts * kThreadsPerHost, r, note);
        if (reg != nullptr) {
            char name[48];
            std::snprintf(name, sizeof name, "pod.scale.h%u.mops_sim", hosts);
            reg->set_gauge(reg->gauge(name), r.mops_sim());
        }
    }

    // Sparse Octopus preset: each host is wired to its nearest head only.
    // No cross-host reads — unreachable windows reject access outright —
    // and all placement stays on the single reachable arm.
    pod::Topology sparse = pod::Topology::octopus(16, kDevices, /*arms=*/1,
                                                  near, far);
    bench::RunResult rs = run_pod_one(sparse, kThreadsPerHost, per_thread,
                                      /*cross_host_reads=*/false);
    bench::print_row("fig8p", "ycsb-a-pod", "cxlalloc-pod-octopus",
                     16 * kThreadsPerHost, rs, "arms=1");

    if (reg != nullptr) {
        // Budget-gated summary gauges (verify_metrics_json --budget).
        obs::MetricsSnapshot snap = reg->snapshot();
        double local = static_cast<double>(snap.counter("pod.local_ops"));
        double remote = static_cast<double>(snap.counter("pod.remote_ops"));
        double run_ops = static_cast<double>(snap.counter("run.ops"));
        double steals = static_cast<double>(snap.counter("pod.alloc_steal"));
        reg->set_gauge(reg->gauge("pod.remote_op_ratio"),
                       local + remote > 0 ? remote / (local + remote) : 0);
        reg->set_gauge(reg->gauge("pod.steal_per_op"),
                       run_ops > 0 ? steals / run_ops : 0);
    }
    std::puts("");
    std::puts("Pod shape: throughput scales near-linearly with hosts "
              "(shards are host-local; only 1-in-8 reads cross an edge);");
    std::puts("the octopus row shows sparse wiring keeps every op on the "
              "single reachable arm (pod.remote_ops stays flat).");
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Options opt = bench::parse_options(argc, argv);
    if (opt.pod) {
        run_pod(opt);
        bench::finish_metrics(opt);
        return 0;
    }
    std::vector<WorkloadPlan> selected = plans();
    std::vector<std::uint32_t> thread_counts{1u, 2u, 4u};
    std::vector<std::string> allocators = bench::all_allocators();
    if (opt.smoke) {
        selected.resize(2); // ycsb-load + ycsb-a
        for (WorkloadPlan& p : selected) {
            p.total_ops /= 4;
            p.preload /= 4;
        }
        thread_counts = {2u};
        allocators = {"cxlalloc"};
    }

    std::puts("Fig. 8: key-value store throughput and memory across "
              "allocators (YCSB + synthesized memcached traces)");
    for (const WorkloadPlan& plan : selected) {
        for (std::uint32_t threads : thread_counts) {
            for (const std::string& name : allocators) {
                run_one(plan, name, threads);
            }
        }
        std::puts("");
    }
    std::puts("Paper shape (Fig. 8): boost/lightning flat (global mutex), "
              "lightning an order of magnitude more memory;");
    std::puts("cxl-shm suffers on skewed YCSB-A/D (refcount contention on "
              "hot keys) and CRASHES on MC-12/MC-37 (>1 KiB);");
    std::puts("mimalloc, ralloc and cxlalloc cluster at the top — cxlalloc "
              "~94% of mimalloc on average, with ~0.02% HWcc memory.");
    bench::finish_metrics(opt);
    return 0;
}
