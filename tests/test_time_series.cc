/**
 * @file
 * Unit tests for the time-bucketed throughput series.
 */

#include <gtest/gtest.h>

#include "sim/time_series.hh"

using namespace performa::sim;

TEST(TimeSeries, EmptyIsZero)
{
    TimeSeries ts;
    EXPECT_EQ(ts.size(), 0u);
    EXPECT_EQ(ts.count(0), 0u);
    EXPECT_EQ(ts.total(0, sec(100)), 0u);
    EXPECT_DOUBLE_EQ(ts.meanRate(0, sec(10)), 0.0);
}

TEST(TimeSeries, RecordsIntoCorrectBucket)
{
    TimeSeries ts(sec(1));
    ts.record(sec(3) + 1);
    ts.record(sec(3) + 999);
    ts.record(sec(4));
    EXPECT_EQ(ts.count(3), 2u);
    EXPECT_EQ(ts.count(4), 1u);
    EXPECT_EQ(ts.count(5), 0u);
}

TEST(TimeSeries, RateIsPerSecond)
{
    TimeSeries ts(sec(2));
    ts.record(0, 10);
    EXPECT_DOUBLE_EQ(ts.rate(0), 5.0); // 10 in a 2-second bucket
}

TEST(TimeSeries, TotalOverRange)
{
    TimeSeries ts(sec(1));
    for (int i = 0; i < 10; ++i)
        ts.record(sec(static_cast<std::uint64_t>(i)), 2);
    EXPECT_EQ(ts.total(sec(2), sec(5)), 6u);  // buckets 2,3,4
    EXPECT_EQ(ts.total(0, sec(10)), 20u);
    EXPECT_EQ(ts.total(sec(5), sec(5)), 0u);  // empty interval
    EXPECT_EQ(ts.total(sec(8), sec(100)), 4u); // clipped at end
}

TEST(TimeSeries, MeanRateOverWindow)
{
    TimeSeries ts(sec(1));
    for (int i = 10; i < 20; ++i)
        ts.record(sec(static_cast<std::uint64_t>(i)), 100);
    EXPECT_DOUBLE_EQ(ts.meanRate(sec(10), sec(20)), 100.0);
    EXPECT_DOUBLE_EQ(ts.meanRate(sec(0), sec(10)), 0.0);
}

TEST(TimeSeries, CountBeyondRangeIsZero)
{
    TimeSeries ts;
    ts.record(sec(1));
    EXPECT_EQ(ts.count(1000), 0u);
    EXPECT_DOUBLE_EQ(ts.rate(1000), 0.0);
}

TEST(TickHelpers, UnitConversions)
{
    EXPECT_EQ(msec(1), usec(1000));
    EXPECT_EQ(sec(1), msec(1000));
    EXPECT_EQ(minutes(1), sec(60));
    EXPECT_EQ(hours(1), minutes(60));
    EXPECT_EQ(days(1), hours(24));
    EXPECT_DOUBLE_EQ(toSeconds(sec(90)), 90.0);
}
