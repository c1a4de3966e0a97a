/**
 * @file
 * Unit tests of the benchmark's arithmetic: the percentile rule (a
 * percentile is reported only with at least ten samples beyond it) and
 * the serving formulas load_accuracy_pct and ctl_pace_pct.
 */

#include <gtest/gtest.h>

#include <vector>

#include "measure.hh"

using namespace twigbench;

TEST(PercentileRule, NearestRankIsCeilingOfTheQuantile)
{
    EXPECT_EQ(nearestRank(50.0, 10), 5u);
    EXPECT_EQ(nearestRank(95.0, 200), 190u);
    EXPECT_EQ(nearestRank(99.0, 1000), 990u);
    EXPECT_EQ(nearestRank(99.0, 1001), 991u);
    EXPECT_EQ(nearestRank(100.0, 7), 7u);
    EXPECT_EQ(nearestRank(1.0, 3), 1u);
}

TEST(PercentileRule, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(95.0, 200), 10u);
    EXPECT_TRUE(percentileSupported(95.0, 200));
    EXPECT_FALSE(percentileSupported(95.0, 199));
    EXPECT_TRUE(percentileSupported(99.0, 1000));
    EXPECT_FALSE(percentileSupported(99.0, 999));
    EXPECT_FALSE(percentileSupported(99.0, 0));
    EXPECT_TRUE(percentileSupported(50.0, 20));
    EXPECT_FALSE(percentileSupported(50.0, 19));
}

TEST(PercentileRule, SamplesNeededIsTheSmallestSupportedCount)
{
    for (double q : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const std::size_t n = samplesNeededFor(q);
        EXPECT_TRUE(percentileSupported(q, n)) << q;
        EXPECT_FALSE(percentileSupported(q, n - 1)) << q;
    }
    EXPECT_EQ(samplesNeededFor(95.0), 200u);
    EXPECT_EQ(samplesNeededFor(99.0), 1000u);
}

TEST(PercentileRule, PercentilePicksTheNearestRankSample)
{
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 990.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 500.0);
    std::vector<double> empty;
    EXPECT_DOUBLE_EQ(percentile(empty, 99.0), 0.0);
}

TEST(PercentileRule, MedianAveragesTheMiddlePair)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(LoadAccuracy, IsTheSmallerOverTheLargerRate)
{
    EXPECT_DOUBLE_EQ(loadAccuracyPct(1000.0, 1000.0), 100.0);
    EXPECT_DOUBLE_EQ(loadAccuracyPct(900.0, 1000.0), 90.0);
    // Over-reporting is penalised the same way as under-reporting.
    EXPECT_DOUBLE_EQ(loadAccuracyPct(1000.0, 900.0), 90.0);
    // The ROADMAP overrun case: 171k reported against 17.7k offered.
    EXPECT_NEAR(loadAccuracyPct(171000.0, 17700.0), 10.35, 0.01);
    EXPECT_DOUBLE_EQ(loadAccuracyPct(0.0, 1000.0), 0.0);
    EXPECT_DOUBLE_EQ(loadAccuracyPct(0.0, 0.0), 100.0);
}

TEST(CtlPace, IsIntervalsTimesIntervalOverWall)
{
    EXPECT_DOUBLE_EQ(ctlPacePct(40, 0.025, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(ctlPacePct(20, 0.025, 1.0), 50.0);
    // 77 intervals of 2 ms in 3.11 s: the ROADMAP overrun measurement.
    EXPECT_NEAR(ctlPacePct(77, 0.002, 3.11), 4.95, 0.01);
    EXPECT_DOUBLE_EQ(ctlPacePct(10, 0.025, 0.0), 0.0);
}

TEST(DeriveSeed, StreamsAreDistinctAndStable)
{
    EXPECT_EQ(deriveSeed(7, 1), deriveSeed(7, 1));
    EXPECT_NE(deriveSeed(7, 1), deriveSeed(7, 2));
    EXPECT_NE(deriveSeed(7, 1), deriveSeed(8, 1));
}
