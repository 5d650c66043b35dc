#include "workload/kv_workload.h"
#include "workload/micro.h"

#include <gtest/gtest.h>
#include <map>
#include <thread>

#include "small_geometry.h"

namespace {

using namespace workload;

TEST(KvWorkloads, SpecsMatchTable2)
{
    auto all = all_kv_workloads();
    ASSERT_EQ(all.size(), 7u);
    EXPECT_EQ(all[0].name, "YCSB-Load");
    EXPECT_DOUBLE_EQ(all[0].insert_pct, 1.0);
    EXPECT_EQ(all[1].name, "YCSB-A");
    EXPECT_DOUBLE_EQ(all[1].insert_pct, 0.25);
    EXPECT_DOUBLE_EQ(all[1].remove_pct, 0.25);
    EXPECT_TRUE(all[1].zipfian);
    EXPECT_EQ(all[2].name, "YCSB-D");
    EXPECT_DOUBLE_EQ(all[2].insert_pct, 0.05);
    // MC rows: insert %, key distribution, key size, value size (Table 2).
    EXPECT_DOUBLE_EQ(all[3].insert_pct, 0.797);
    EXPECT_EQ(all[3].key_min, 44u);
    EXPECT_EQ(all[3].val_max, 307u << 10);
    EXPECT_FALSE(all[3].zipfian);
    EXPECT_DOUBLE_EQ(all[4].insert_pct, 0.999);
    EXPECT_EQ(all[4].val_max, 144u);
    EXPECT_DOUBLE_EQ(all[5].insert_pct, 0.93);
    EXPECT_EQ(all[5].val_max, 15u);
    EXPECT_DOUBLE_EQ(all[6].insert_pct, 0.388);
    EXPECT_TRUE(all[6].zipfian);
    EXPECT_EQ(all[6].key_max, 82u);
}

TEST(KvWorkloads, EmpiricalMixMatchesSpec)
{
    for (const auto& spec : all_kv_workloads()) {
        KvOpStream stream(spec, 99);
        constexpr int kN = 50000;
        int inserts = 0;
        int removes = 0;
        for (int i = 0; i < kN; i++) {
            KvOp op = stream.next();
            inserts += op.type == OpType::Insert;
            removes += op.type == OpType::Remove;
            EXPECT_GE(op.klen, spec.key_min);
            EXPECT_LE(op.klen, spec.key_max);
            if (op.type == OpType::Insert) {
                EXPECT_GE(op.vlen, spec.val_min);
                EXPECT_LE(op.vlen, spec.val_max);
            }
            EXPECT_LT(op.key, spec.keyspace);
        }
        EXPECT_NEAR(static_cast<double>(inserts) / kN, spec.insert_pct, 0.01)
            << spec.name;
        EXPECT_NEAR(static_cast<double>(removes) / kN, spec.remove_pct, 0.01)
            << spec.name;
    }
}

TEST(KvWorkloads, KeyLengthIsDeterministicPerKey)
{
    auto spec = mc15(); // variable key lengths
    for (std::uint64_t key = 0; key < 1000; key++) {
        EXPECT_EQ(KvOpStream::key_len(spec, key),
                  KvOpStream::key_len(spec, key));
    }
    // And actually variable.
    bool varied = false;
    for (std::uint64_t key = 1; key < 100 && !varied; key++) {
        varied = KvOpStream::key_len(spec, key) !=
                 KvOpStream::key_len(spec, 0);
    }
    EXPECT_TRUE(varied);
}

TEST(KvWorkloads, SkewedStreamHammersHotKeys)
{
    // Scrambled-zipfian hot ranks land on arbitrary key ids, so measure
    // concentration: how often does the single most frequent key appear?
    auto max_frequency = [](KvOpStream s) {
        std::map<std::uint64_t, int> counts;
        for (int i = 0; i < 20000; i++) {
            counts[s.next().key]++;
        }
        int max = 0;
        for (const auto& [key, n] : counts) {
            max = std::max(max, n);
        }
        return max;
    };
    int skew = max_frequency(KvOpStream(ycsb_a(), 1));
    int uniform = max_frequency(KvOpStream(mc12(), 1));
    EXPECT_GT(skew, uniform * 10)
        << "zipf 0.99 should concentrate mass on a hot key";
}

TEST(Threadtest, RunsExactWorkAmount)
{
    bench::Bundle b =
        bench::make_bundle("cxlalloc", apptest::small_geometry());
    auto t = b.thread();
    std::uint64_t pairs = run_threadtest(*b.alloc, *t, /*rounds=*/10,
                                         /*batch=*/100, /*size=*/64);
    EXPECT_EQ(pairs, 1000u);
    b.heap->check_invariants(t->mem());
    b.pod->release_thread(std::move(t));
}

TEST(Xmalloc, RingCompletesAndBalances)
{
    bench::Bundle b =
        bench::make_bundle("cxlalloc", apptest::small_geometry());
    constexpr std::uint32_t kThreads = 3;
    constexpr std::uint64_t kCount = 2000;
    XmallocRing ring(kThreads);
    std::vector<std::thread> workers;
    std::vector<std::uint64_t> done(kThreads, 0);
    for (std::uint32_t w = 0; w < kThreads; w++) {
        workers.emplace_back([&, w] {
            auto t = b.thread();
            done[w] = run_xmalloc(*b.alloc, *t, ring, w, kCount, 128);
            b.pod->release_thread(std::move(t));
        });
    }
    for (auto& th : workers) {
        th.join();
    }
    for (std::uint32_t w = 0; w < kThreads; w++) {
        EXPECT_EQ(done[w], 2 * kCount) << "thread " << w;
    }
    auto checker = b.thread();
    b.heap->check_invariants(checker->mem());
    b.pod->release_thread(std::move(checker));
}

TEST(SpscRingTest, OrderAndCapacity)
{
    SpscRing ring(4);
    std::uint64_t v;
    EXPECT_FALSE(ring.pop(&v));
    EXPECT_TRUE(ring.push(1));
    EXPECT_TRUE(ring.push(2));
    EXPECT_TRUE(ring.push(3));
    EXPECT_TRUE(ring.push(4));
    EXPECT_FALSE(ring.push(5)) << "capacity respected";
    EXPECT_TRUE(ring.pop(&v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(ring.push(5));
    EXPECT_TRUE(ring.pop(&v));
    EXPECT_EQ(v, 2u);
}

} // namespace
