/// @file
/// End-to-end example: an in-memory key-value store on cxlalloc, driven by
/// the YCSB-A workload (the paper's §5.2.1 macro-benchmark shape) from two
/// threads in different processes.
///
/// Run: ./build/examples/kvstore_ycsb

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "baselines/cxlalloc_adapter.h"
#include "common/stats.h"
#include "cxlalloc/pod_shard.h"
#include "kv/kv_store.h"
#include "workload/kv_workload.h"

int
main()
{
    constexpr std::uint64_t kBuckets = 1 << 15;
    constexpr std::uint64_t kOpsPerThread = 100'000;
    constexpr int kThreads = 2;

    // One host is the 1x1 pod (the PodConfig default topology): one
    // device window holding the heap plus the index's bucket array, which
    // lives past the heap in extra window space.
    cxlalloc::Config config;
    config.small_slabs = 4096; // 128 MiB small space for 960 B values
    pod::PodConfig pod_config;
    pod_config.device = cxlalloc::PodShardedAllocator::device_config(
        config, pod_config.topology, cxl::CoherenceMode::PartialHwcc,
        /*simulate_cache=*/false, kv::HashTable::footprint(kBuckets));
    pod::Pod pod(pod_config);

    cxlalloc::PodShardedAllocator heap(pod, config);
    baselines::CxlallocAdapter adapter(&heap);
    kv::KvStore store(pod, heap.extra_base(0), kBuckets, &adapter);

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; w++) {
        workers.emplace_back([&, w] {
            pod::Process* proc = pod.create_process();
            heap.attach(*proc);
            auto ctx = pod.create_thread(proc);
            heap.attach_thread(*ctx);

            workload::KvOpStream stream(workload::ycsb_a(), 1000 + w);
            std::vector<char> value(1024, 'v');
            std::vector<char> read_buf(1024);
            for (std::uint64_t i = 0; i < kOpsPerThread; i++) {
                workload::KvOp op = stream.next();
                switch (op.type) {
                  case workload::OpType::Insert:
                    store.insert(*ctx, op.key, op.klen, value.data(),
                                 op.vlen);
                    break;
                  case workload::OpType::Remove:
                    store.remove(*ctx, op.key, op.klen);
                    break;
                  default:
                    store.get(*ctx, op.key, op.klen, read_buf.data(),
                              read_buf.size());
                    break;
                }
            }
            pod.release_thread(std::move(ctx));
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    double total_ops = static_cast<double>(kOpsPerThread) * kThreads;
    std::printf("YCSB-A: %s over %d threads/processes (%.2fs)\n",
                cxlcommon::format_rate(total_ops / elapsed).c_str(),
                kThreads, elapsed);
    std::printf("live entries: %llu\n",
                static_cast<unsigned long long>(store.table().size()));
    std::printf("memory committed: %s (HWcc share: %s)\n",
                cxlcommon::format_bytes(pod.device().committed_bytes())
                    .c_str(),
                cxlcommon::format_bytes(heap.hwcc_bytes()).c_str());
    std::puts("kvstore_ycsb OK");
    return 0;
}
