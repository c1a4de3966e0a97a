/** @file Unit tests for the bench argument parser (bench_util.hh). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.hh"

using twig::bench::BenchArgs;

namespace {

BenchArgs::ParseResult
tryParse(std::vector<std::string> argv,
         const std::vector<std::string> &extra = {})
{
    argv.insert(argv.begin(), "bench");
    std::vector<char *> raw;
    for (auto &arg : argv)
        raw.push_back(arg.data());
    return BenchArgs::tryParse(static_cast<int>(raw.size()), raw.data(),
                               extra);
}

} // namespace

TEST(BenchArgs, Defaults)
{
    const auto res = tryParse({});
    ASSERT_TRUE(res.ok());
    EXPECT_FALSE(res.args.full);
    EXPECT_EQ(res.args.seed, 42u);
    EXPECT_EQ(res.args.jobs, 1u);
    EXPECT_TRUE(res.args.extra.empty());
}

TEST(BenchArgs, ParsesKnownFlags)
{
    const auto res = tryParse({"--full", "--seed", "7", "--jobs", "3"});
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.args.full);
    EXPECT_EQ(res.args.seed, 7u);
    EXPECT_EQ(res.args.jobs, 3u);
}

TEST(BenchArgs, RejectsZeroJobs)
{
    const auto res = tryParse({"--jobs", "0"});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--jobs"), std::string::npos);
}

TEST(BenchArgs, RejectsNegativeAndNonNumericCounts)
{
    EXPECT_FALSE(tryParse({"--jobs", "-2"}).ok());
    EXPECT_FALSE(tryParse({"--seed", "-1"}).ok());
    EXPECT_FALSE(tryParse({"--seed", "abc"}).ok());
    EXPECT_FALSE(tryParse({"--jobs", "4x"}).ok());
    EXPECT_FALSE(tryParse({"--jobs", ""}).ok());
    // Way beyond 2^64: must fail, not silently wrap.
    EXPECT_FALSE(tryParse({"--seed", "99999999999999999999999"}).ok());
}

TEST(BenchArgs, RejectsUnknownFlagsAndMissingValues)
{
    const auto unknown = tryParse({"--bogus"});
    EXPECT_FALSE(unknown.ok());
    EXPECT_NE(unknown.error.find("--bogus"), std::string::npos);

    EXPECT_FALSE(tryParse({"--seed"}).ok());
    EXPECT_FALSE(tryParse({"--jobs"}).ok());
}

TEST(BenchArgs, ParsesDomains)
{
    // 0 means "bench default" and only arises by omission — an
    // explicit --domains 0 is rejected, like --jobs 0.
    EXPECT_EQ(tryParse({}).args.domains, 0u);
    const auto res = tryParse({"--domains", "8"});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.args.domains, 8u);
}

TEST(BenchArgs, RejectsBadDomains)
{
    const auto zero = tryParse({"--domains", "0"});
    EXPECT_FALSE(zero.ok());
    EXPECT_NE(zero.error.find("--domains"), std::string::npos);
    EXPECT_FALSE(tryParse({"--domains", "-3"}).ok());
    EXPECT_FALSE(tryParse({"--domains", "2x"}).ok());
    EXPECT_FALSE(tryParse({"--domains"}).ok());
}

TEST(BenchArgs, ExtraValueFlagsAreAllowlisted)
{
    // Not allowlisted: rejected like any unknown flag.
    EXPECT_FALSE(tryParse({"--out", "x.json"}).ok());

    const auto res = tryParse({"--out", "x.json", "--seed", "5"},
                              {"--out"});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.args.extra.at("--out"), "x.json");
    EXPECT_EQ(res.args.seed, 5u);

    EXPECT_FALSE(tryParse({"--out"}, {"--out"}).ok());
}

TEST(BenchArgs, HelpIsNotAnError)
{
    const auto help = tryParse({"--help"});
    EXPECT_TRUE(help.helpRequested);
    EXPECT_TRUE(help.error.empty());
    EXPECT_FALSE(help.ok()); // callers must not run the bench
    EXPECT_TRUE(tryParse({"-h"}).helpRequested);
}

TEST(BenchArgs, ServeFlagDefaults)
{
    const auto res = tryParse({});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.args.listen, "127.0.0.1");
    EXPECT_EQ(res.args.port, 0u);
    EXPECT_DOUBLE_EQ(res.args.durationS, 2.0);
    EXPECT_EQ(res.args.connections, 8u);
}

TEST(BenchArgs, ParsesServeFlags)
{
    const auto res = tryParse({"--listen", "0.0.0.0", "--port", "7411",
                               "--duration-s", "3.5", "--connections",
                               "16"});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.args.listen, "0.0.0.0");
    EXPECT_EQ(res.args.port, 7411u);
    EXPECT_DOUBLE_EQ(res.args.durationS, 3.5);
    EXPECT_EQ(res.args.connections, 16u);
}

TEST(BenchArgs, PortZeroMeansEphemeral)
{
    const auto res = tryParse({"--port", "0"});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.args.port, 0u);
}

TEST(BenchArgs, RejectsOutOfRangePorts)
{
    const auto res = tryParse({"--port", "65536"});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--port"), std::string::npos);
    EXPECT_FALSE(tryParse({"--port", "99999999"}).ok());
    EXPECT_FALSE(tryParse({"--port", "-1"}).ok());
    EXPECT_FALSE(tryParse({"--port", "http"}).ok());
    EXPECT_TRUE(tryParse({"--port", "65535"}).ok());
}

TEST(BenchArgs, RejectsNonPositiveDurations)
{
    EXPECT_FALSE(tryParse({"--duration-s", "0"}).ok());
    EXPECT_FALSE(tryParse({"--duration-s", "-1.5"}).ok());
    EXPECT_FALSE(tryParse({"--duration-s", "soon"}).ok());
    const auto missing = tryParse({"--duration-s"});
    EXPECT_FALSE(missing.ok());
    EXPECT_NE(missing.error.find("--duration-s"), std::string::npos);
}

TEST(BenchArgs, RejectsZeroConnectionsAndEmptyListen)
{
    const auto res = tryParse({"--connections", "0"});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--connections"), std::string::npos);
    EXPECT_FALSE(tryParse({"--listen", ""}).ok());
}

TEST(BenchArgs, ParsesAutoscaleBounds)
{
    // 0:0 means "bench default" and only arises by omission.
    EXPECT_EQ(tryParse({}).args.autoscaleMin, 0u);
    EXPECT_EQ(tryParse({}).args.autoscaleMax, 0u);
    const auto res = tryParse({"--autoscale", "2:6"});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.args.autoscaleMin, 2u);
    EXPECT_EQ(res.args.autoscaleMax, 6u);
    // MIN == MAX pins the fleet size but keeps the billing path.
    EXPECT_TRUE(tryParse({"--autoscale", "4:4"}).ok());
}

TEST(BenchArgs, RejectsBadAutoscaleBounds)
{
    const auto inverted = tryParse({"--autoscale", "6:2"});
    EXPECT_FALSE(inverted.ok());
    EXPECT_NE(inverted.error.find("--autoscale"), std::string::npos);
    EXPECT_FALSE(tryParse({"--autoscale", "0:4"}).ok());
    EXPECT_FALSE(tryParse({"--autoscale", "4"}).ok());
    EXPECT_FALSE(tryParse({"--autoscale", "2:6:8"}).ok());
    EXPECT_FALSE(tryParse({"--autoscale", "-2:6"}).ok());
    EXPECT_FALSE(tryParse({"--autoscale", "two:six"}).ok());
    EXPECT_FALSE(tryParse({"--autoscale", ":"}).ok());
    EXPECT_FALSE(tryParse({"--autoscale"}).ok());
}

TEST(BenchArgs, ParsesCostPerNodeHour)
{
    EXPECT_DOUBLE_EQ(tryParse({}).args.costPerNodeHour, 0.0);
    const auto res = tryParse({"--cost-per-node-hour", "1.25"});
    ASSERT_TRUE(res.ok());
    EXPECT_DOUBLE_EQ(res.args.costPerNodeHour, 1.25);
    // A free tier is a valid override.
    EXPECT_TRUE(tryParse({"--cost-per-node-hour", "0"}).ok());
}

TEST(BenchArgs, RejectsBadCostPerNodeHour)
{
    const auto negative = tryParse({"--cost-per-node-hour", "-1"});
    EXPECT_FALSE(negative.ok());
    EXPECT_NE(negative.error.find("--cost-per-node-hour"),
              std::string::npos);
    EXPECT_FALSE(tryParse({"--cost-per-node-hour", "cheap"}).ok());
    EXPECT_FALSE(tryParse({"--cost-per-node-hour", "1.5x"}).ok());
    EXPECT_FALSE(tryParse({"--cost-per-node-hour"}).ok());
}

TEST(BenchArgs, ParsesNodeClasses)
{
    EXPECT_TRUE(tryParse({}).args.nodeClasses.empty());
    const auto res = tryParse(
        {"--node-class", "gen2", "--node-class", "gen1"});
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.args.nodeClasses.size(), 2u);
    EXPECT_EQ(res.args.nodeClasses[0], "gen2");
    EXPECT_EQ(res.args.nodeClasses[1], "gen1");
}

TEST(BenchArgs, RejectsUnknownAndDuplicateNodeClasses)
{
    const auto unknown = tryParse({"--node-class", "quantum9"});
    EXPECT_FALSE(unknown.ok());
    EXPECT_NE(unknown.error.find("quantum9"), std::string::npos);

    const auto dup =
        tryParse({"--node-class", "gen1", "--node-class", "gen1"});
    EXPECT_FALSE(dup.ok());
    EXPECT_NE(dup.error.find("gen1"), std::string::npos);

    EXPECT_FALSE(tryParse({"--node-class", ""}).ok());
    EXPECT_FALSE(tryParse({"--node-class"}).ok());
}

TEST(BenchArgs, RejectsNonFiniteNumbers)
{
    EXPECT_FALSE(tryParse({"--duration-s", "inf"}).ok());
    EXPECT_FALSE(tryParse({"--duration-s", "nan"}).ok());
    EXPECT_FALSE(tryParse({"--cost-per-node-hour", "nan"}).ok());
    EXPECT_FALSE(tryParse({"--cost-per-node-hour", "inf"}).ok());
    const auto res = tryParse({"--duration-s", "1e999"});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--duration-s"), std::string::npos);
}
