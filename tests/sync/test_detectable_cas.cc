#include "sync/detectable_cas.h"

#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "cxl/device.h"
#include "cxl/nmp.h"

namespace {

using cxl::CoherenceMode;
using cxl::Device;
using cxl::DeviceConfig;
using cxl::MemSession;
using cxl::Nmp;
using cxlsync::DcasWord;
using cxlsync::DetectableCas;

constexpr cxl::HeapOffset kHelpBase = 0;
constexpr cxl::HeapOffset kWord = 8 * (cxl::kMaxThreads + 2);

struct Rig {
    explicit Rig(CoherenceMode mode = CoherenceMode::PartialHwcc)
        : dev(DeviceConfig{.size = 1 << 20,
                           .mode = mode,
                           .sync_region_size = 64 << 10}),
          nmp(&dev), dcas(kHelpBase)
    {
    }

    MemSession
    session(cxl::ThreadId tid)
    {
        return MemSession(&dev, &nmp, tid);
    }

    Device dev;
    Nmp nmp;
    DetectableCas dcas;
};

TEST(DcasWord, PackUnpackRoundTrip)
{
    std::uint64_t w = DcasWord::pack(0xdeadbeef, 17, 42);
    EXPECT_EQ(DcasWord::value(w), 0xdeadbeefu);
    EXPECT_EQ(DcasWord::tid(w), 17);
    EXPECT_EQ(DcasWord::version(w), 42);
}

TEST(DcasWord, ZeroWordIsUnowned)
{
    EXPECT_EQ(DcasWord::value(0), 0u);
    EXPECT_EQ(DcasWord::tid(0), cxl::kNoThread);
}

TEST(VersionGeq, WrapAware)
{
    EXPECT_TRUE(cxlsync::version_geq(5, 5));
    EXPECT_TRUE(cxlsync::version_geq(6, 5));
    EXPECT_FALSE(cxlsync::version_geq(5, 6));
    // Wraparound in the 15-bit circular space: 2 is "after" 32766.
    EXPECT_TRUE(cxlsync::version_geq(2, 32766));
    EXPECT_FALSE(cxlsync::version_geq(32766, 2));
}

TEST(DetectableCas, SuccessfulCasVisibleViaRead)
{
    Rig rig;
    MemSession s = rig.session(1);
    auto r = rig.dcas.try_cas(s, kWord, 0, 123, /*version=*/1);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(rig.dcas.read(s, kWord), 123u);
}

TEST(DetectableCas, FailureReturnsObservedValue)
{
    Rig rig;
    MemSession s = rig.session(1);
    ASSERT_TRUE(rig.dcas.try_cas(s, kWord, 0, 123, 1).success);
    auto r = rig.dcas.try_cas(s, kWord, 0, 55, 2);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.observed, 123u);
}

TEST(DetectableCas, WordCasFailsAfterAbaThatValueCasMisses)
{
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 7, 1).success);
    std::uint64_t seen = rig.dcas.read_word(s1, kWord);
    // Thread 2 moves the value away and back: same value, new tag.
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 7, 8, 1).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 8, 7, 2).success);
    auto r = rig.dcas.try_cas_word(s1, kWord, seen, 9, 2);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.observed, 7u);
    EXPECT_EQ(rig.dcas.read(s1, kWord), 7u);
    // Against the fresh word the same CAS lands.
    seen = rig.dcas.read_word(s1, kWord);
    EXPECT_TRUE(rig.dcas.try_cas_word(s1, kWord, seen, 9, 3).success);
    EXPECT_EQ(rig.dcas.read(s1, kWord), 9u);
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 3));
}

TEST(DetectableCas, RecoveryDetectsSuccessWhileTagInPlace)
{
    Rig rig;
    MemSession s = rig.session(1);
    ASSERT_TRUE(rig.dcas.try_cas(s, kWord, 0, 7, /*version=*/9).success);
    // "Crash": thread 1 asks whether its op with version 9 took effect.
    EXPECT_TRUE(rig.dcas.did_succeed(s, kWord, 9));
    // Its never-executed next op did not.
    EXPECT_FALSE(rig.dcas.did_succeed(s, kWord, 10));
}

TEST(DetectableCas, RecoveryDetectsSuccessAfterDisplacement)
{
    // The essential detectable-CAS property: thread 1's successful CAS is
    // detectable even after thread 2 overwrites the word, because thread 2
    // recorded the displaced tag in the help array.
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 7, /*version=*/9).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 7, 8, /*version=*/1).success);
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 9));
}

TEST(DetectableCas, RecoveryDetectsFailure)
{
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    // Thread 1's CAS never happened (it "crashed" before the attempt);
    // thread 2's ops must not make thread 1's query come back true.
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 0, 7, 1).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 7, 9, 2).success);
    EXPECT_FALSE(rig.dcas.did_succeed(s1, kWord, 4));
}

TEST(DetectableCas, HelpArrayTracksNewestVersion)
{
    Rig rig;
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    // Two successive successful ops by thread 1, both displaced by
    // thread 2: both must be detectable.
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 1, 1).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 1, 2, 1).success);
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 2, 3, 2).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 3, 4, 2).success);
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 1));
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 2));
    EXPECT_FALSE(rig.dcas.did_succeed(s1, kWord, 3));
}

TEST(DetectableCas, WorksOverMcas)
{
    Rig rig(CoherenceMode::NoHwcc);
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    ASSERT_TRUE(rig.dcas.try_cas(s1, kWord, 0, 7, 9).success);
    ASSERT_TRUE(rig.dcas.try_cas(s2, kWord, 7, 8, 1).success);
    EXPECT_TRUE(rig.dcas.did_succeed(s1, kWord, 9));
    EXPECT_GT(rig.nmp.total_ops(), 0u);
}

TEST(DetectableCas, ConcurrentCountedIncrements)
{
    for (CoherenceMode mode :
         {CoherenceMode::PartialHwcc, CoherenceMode::NoHwcc}) {
        Rig rig(mode);
        constexpr int kThreads = 4;
        constexpr int kOps = 300;
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; t++) {
            threads.emplace_back([&rig, t] {
                MemSession s =
                    rig.session(static_cast<cxl::ThreadId>(t + 1));
                for (std::uint16_t v = 1; v <= kOps; v++) {
                    std::uint32_t cur = rig.dcas.read(s, kWord);
                    while (true) {
                        auto r = rig.dcas.try_cas(s, kWord, cur, cur + 1, v);
                        if (r.success) {
                            break;
                        }
                        cur = r.observed;
                    }
                }
            });
        }
        for (auto& th : threads) {
            th.join();
        }
        MemSession check = rig.session(kThreads + 1);
        EXPECT_EQ(rig.dcas.read(check, kWord), kThreads * kOps);
    }
}

TEST(DetectableCas, NonrecoverableVariantSkipsHelpRecording)
{
    Rig rig;
    DetectableCas plain(kHelpBase, /*detectable=*/false);
    MemSession s1 = rig.session(1);
    MemSession s2 = rig.session(2);
    ASSERT_TRUE(plain.try_cas(s1, kWord, 0, 7, 1).success);
    ASSERT_TRUE(plain.try_cas(s2, kWord, 7, 8, 1).success);
    // Help entry for thread 1 was never written.
    EXPECT_EQ(s1.atomic_load64(kHelpBase + 8 * 1), 0u);
}

} // namespace
