#include "kv/hash_table.h"

#include <gtest/gtest.h>
#include <set>
#include <thread>

#include "common/random.h"
#include "kv/kv_store.h"
#include "small_geometry.h"

namespace {

/// A single-host cxlalloc bundle with a hash table whose bucket array lives
/// in the bundle's extra region (carved directly; not an allocation).
struct KvRig {
    KvRig()
        : b(bench::make_bundle(
              "cxlalloc",
              apptest::small_geometry(kv::HashTable::footprint(kBuckets))))
    {
        table = std::make_unique<kv::HashTable>(*b.pod, b.extra_base,
                                                kBuckets, b.alloc.get());
    }

    static constexpr std::uint64_t kBuckets = 1024;

    bench::Bundle b;
    std::unique_ptr<kv::HashTable> table;
};

TEST(HashTableTest, InsertGetRemove)
{
    KvRig kv;
    auto t = kv.b.thread();
    EXPECT_TRUE(kv.table->insert(*t, "alpha", 5, "one", 3));
    char out[16] = {};
    std::uint32_t vlen = 0;
    EXPECT_TRUE(kv.table->get(*t, "alpha", 5, out, sizeof out, &vlen));
    EXPECT_EQ(vlen, 3u);
    EXPECT_EQ(std::memcmp(out, "one", 3), 0);
    EXPECT_FALSE(kv.table->get(*t, "beta", 4, nullptr, 0, nullptr));
    EXPECT_TRUE(kv.table->remove(*t, "alpha", 5));
    EXPECT_FALSE(kv.table->get(*t, "alpha", 5, nullptr, 0, nullptr));
    EXPECT_FALSE(kv.table->remove(*t, "alpha", 5));
    kv.table->clear(*t);
    kv.b.pod->release_thread(std::move(t));
}

TEST(HashTableTest, ManyKeysSurviveCollisions)
{
    KvRig kv;
    auto t = kv.b.thread();
    constexpr int kN = 5000; // ~5 keys per bucket: chains exercised
    for (std::uint64_t i = 0; i < kN; i++) {
        ASSERT_TRUE(kv.table->insert(*t, &i, 8, &i, 8));
    }
    EXPECT_EQ(kv.table->size(), static_cast<std::uint64_t>(kN));
    for (std::uint64_t i = 0; i < kN; i++) {
        std::uint64_t v = 0;
        std::uint32_t vlen = 0;
        ASSERT_TRUE(kv.table->get(*t, &i, 8, &v, 8, &vlen));
        EXPECT_EQ(v, i);
    }
    for (std::uint64_t i = 0; i < kN; i += 2) {
        ASSERT_TRUE(kv.table->remove(*t, &i, 8));
    }
    for (std::uint64_t i = 0; i < kN; i++) {
        EXPECT_EQ(kv.table->get(*t, &i, 8, nullptr, 0, nullptr), i % 2 == 1);
    }
    kv.table->clear(*t);
    kv.b.pod->release_thread(std::move(t));
}

TEST(HashTableTest, DeletedMemoryIsReclaimedThroughEbr)
{
    KvRig kv;
    auto t = kv.b.thread();
    // Insert/remove churn far exceeding the heap if nodes leaked.
    for (std::uint64_t round = 0; round < 50; round++) {
        for (std::uint64_t i = 0; i < 500; i++) {
            std::uint64_t key = round * 500 + i;
            char value[960];
            ASSERT_TRUE(kv.table->insert(*t, &key, 8, value, sizeof value))
                << "allocator exhausted: EBR is not reclaiming";
        }
        for (std::uint64_t i = 0; i < 500; i++) {
            std::uint64_t key = round * 500 + i;
            ASSERT_TRUE(kv.table->remove(*t, &key, 8));
        }
    }
    kv.table->clear(*t);
    kv.b.pod->release_thread(std::move(t));
}

TEST(HashTableTest, ConcurrentMixedOperations)
{
    KvRig kv;
    constexpr int kThreads = 4;
    constexpr int kOps = 3000;
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; w++) {
        workers.emplace_back([&kv, w] {
            auto t = kv.b.thread();
            cxlcommon::Xoshiro rng(w * 31 + 1);
            for (int i = 0; i < kOps; i++) {
                std::uint64_t key = rng.next_below(256);
                switch (rng.next_below(3)) {
                  case 0:
                    kv.table->insert(*t, &key, 8, &key, 8);
                    break;
                  case 1: {
                    std::uint64_t v;
                    kv.table->get(*t, &key, 8, &v, 8, nullptr);
                    break;
                  }
                  default:
                    kv.table->remove(*t, &key, 8);
                    break;
                }
            }
            kv.b.pod->release_thread(std::move(t));
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    auto t = kv.b.thread();
    // Every node the walk sees must be retrievable.
    kv.table->for_each_node([&](cxl::HeapOffset node) {
        EXPECT_NE(node, 0u);
    });
    kv.table->clear(*t);
    kv.b.heap->check_invariants(t->mem());
    kv.b.pod->release_thread(std::move(t));
}

TEST(HashTableTest, DetectableNodeLifecycle)
{
    KvRig kv;
    auto t = kv.b.thread();
    std::uint64_t key = 42;
    std::uint64_t node = kv.table->alloc_node(*t, &key, 8, "v", 1);
    ASSERT_NE(node, 0u);
    EXPECT_FALSE(kv.table->contains_node(*t, node));
    EXPECT_FALSE(kv.table->get(*t, &key, 8, nullptr, 0, nullptr));
    kv.table->link_node(*t, node);
    EXPECT_TRUE(kv.table->contains_node(*t, node));
    EXPECT_TRUE(kv.table->get(*t, &key, 8, nullptr, 0, nullptr));
    kv.table->clear(*t);
    kv.b.pod->release_thread(std::move(t));
}

TEST(KvStoreTest, FormatKeyDeterministicAndSized)
{
    char a[96];
    char b[96];
    kv::KvStore::format_key(1234, 44, a);
    kv::KvStore::format_key(1234, 44, b);
    EXPECT_EQ(std::memcmp(a, b, 44), 0);
    kv::KvStore::format_key(7, 8, a);
    EXPECT_EQ(a[7], '7');
    EXPECT_EQ(a[0], 'k');
}

} // namespace
