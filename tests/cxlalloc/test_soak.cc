/// Bounded soak test: everything at once — multiple processes, multiple
/// threads, all three heaps, PC-T checks, random crashes with recovery,
/// huge-heap cleanup — with full invariant checks at the end. This is the
/// closest single test to the paper's §5.1 methodology ("we run all of our
/// benchmarks with these checks enabled and observe no errors").

#include <gtest/gtest.h>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "fixture.h"

namespace {

using cxltest::Rig;
using cxltest::RigOptions;
using pod::ThreadCrashed;

TEST(Soak, EverythingAtOnce)
{
    RigOptions opt;
    opt.checked_mappings = true;
    Rig rig(opt);
    constexpr int kProcs = 3;
    constexpr int kThreadsPerProc = 2;
    constexpr int kOpsPerThread = 5000;

    std::vector<pod::Process*> procs{rig.process};
    for (int i = 1; i < kProcs; i++) {
        procs.push_back(rig.new_process());
    }

    // Cross-thread mailbox so frees are frequently remote + cross-process.
    std::mutex mailbox_mu;
    std::vector<cxl::HeapOffset> mailbox;
    std::atomic<int> crashes{0};
    // Each worker's slot, kept until the audit after the join has walked
    // its lists.
    std::vector<std::unique_ptr<pod::ThreadContext>> finished(
        kProcs * kThreadsPerProc);

    std::vector<std::thread> workers;
    for (int p = 0; p < kProcs; p++) {
        for (int w = 0; w < kThreadsPerProc; w++) {
            workers.emplace_back([&, p, w] {
                auto t = rig.thread(procs[p]);
                cxlcommon::Xoshiro rng(p * 100 + w + 1);
                t->arm_random_crash(rng.next(), 0.0005);
                for (int i = 0; i < kOpsPerThread; i++) {
                    try {
                        std::uint64_t roll = rng.next_below(100);
                        if (roll < 60) {
                            // Small/large/huge allocation mix.
                            std::uint64_t size =
                                roll < 50 ? 8 + rng.next_below(2040)
                                          : (roll < 58
                                                 ? 4096 + rng.next_below(
                                                              60000)
                                                 : (600 << 10));
                            cxl::HeapOffset q =
                                rig.alloc.allocate(*t, size);
                            if (q != 0) {
                                *rig.alloc.pointer(*t, q, 1) = std::byte{1};
                                std::lock_guard<std::mutex> lk(mailbox_mu);
                                mailbox.push_back(q);
                            }
                        } else if (roll < 95) {
                            cxl::HeapOffset victim = 0;
                            {
                                std::lock_guard<std::mutex> lk(mailbox_mu);
                                if (!mailbox.empty()) {
                                    victim = mailbox.back();
                                    mailbox.pop_back();
                                }
                            }
                            if (victim != 0) {
                                rig.alloc.deallocate(*t, victim);
                            }
                        } else {
                            rig.alloc.cleanup(*t);
                        }
                    } catch (const ThreadCrashed&) {
                        crashes.fetch_add(1);
                        cxl::ThreadId tid = t->tid();
                        rig.pod.mark_crashed(std::move(t));
                        t = rig.pod.adopt_thread(procs[p], tid);
                        rig.alloc.recover(*t);
                        t->arm_random_crash(rng.next(), 0.0005);
                        // NOTE: an interrupted mailbox free may have
                        // completed; the mailbox entry was already popped
                        // before the call, so tracking stays exact.
                    }
                }
                t->disarm_crash();
                finished[p * kThreadsPerProc + w] = std::move(t);
            });
        }
    }
    for (auto& th : workers) {
        th.join();
    }
    EXPECT_GT(crashes.load(), 0) << "soak should include crashes";
    rig.alloc.check_invariants(finished[0]->mem());
    for (auto& t : finished) {
        rig.alloc.detach_thread(*t);
        rig.pod.release_thread(std::move(t));
    }

    // Drain the mailbox and verify the whole heap.
    auto t = rig.thread();
    for (auto q : mailbox) {
        rig.alloc.deallocate(*t, q);
    }
    rig.alloc.cleanup(*t);
    rig.alloc.check_invariants(t->mem());
    // Heap fully serviceable afterwards.
    for (int i = 0; i < 100; i++) {
        cxl::HeapOffset q = rig.alloc.allocate(*t, 64 + i);
        ASSERT_NE(q, 0u);
        rig.alloc.deallocate(*t, q);
    }
    rig.pod.release_thread(std::move(t));
}

} // namespace
