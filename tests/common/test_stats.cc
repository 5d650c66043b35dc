#include "common/stats.h"

#include <gtest/gtest.h>

namespace {

using cxlcommon::RunningStat;

TEST(RunningStat, MeanAndStddev)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(x);
    }
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

TEST(RunningStat, SingleSampleHasZeroStddev)
{
    RunningStat s;
    s.add(42);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Format, Bytes)
{
    EXPECT_EQ(cxlcommon::format_bytes(512), "512.00 B");
    EXPECT_EQ(cxlcommon::format_bytes(1536), "1.50 KiB");
    EXPECT_EQ(cxlcommon::format_bytes(3ULL << 30), "3.00 GiB");
}

TEST(Format, Rate)
{
    EXPECT_EQ(cxlcommon::format_rate(1500.0), "1.50K ops/s");
    EXPECT_EQ(cxlcommon::format_rate(2.5e6), "2.50M ops/s");
}

} // namespace
