/** @file Unit tests for the strict flag parser (common/flags.hh). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flags.hh"

using twig::common::FlagParser;

namespace {

FlagParser::Result
parse(const FlagParser &parser, std::vector<std::string> argv)
{
    argv.insert(argv.begin(), "prog");
    std::vector<char *> raw;
    for (auto &arg : argv)
        raw.push_back(arg.data());
    return parser.parse(static_cast<int>(raw.size()), raw.data());
}

} // namespace

TEST(FlagParser, RecordsWhichFlagsWereGiven)
{
    std::size_t steps = 0;
    bool paper = false;
    FlagParser p;
    p.addCount("--steps", &steps, "steps");
    p.addBool("--paper", &paper, "paper");
    const auto res = parse(p, {"--steps", "0"});
    ASSERT_TRUE(res.ok());
    // An explicit default value is still "given".
    EXPECT_TRUE(res.has("--steps"));
    EXPECT_FALSE(res.has("--paper"));
    EXPECT_EQ(res.given, std::vector<std::string>{"--steps"});
}

TEST(FlagParser, CountBounds)
{
    std::size_t jobs = 1;
    std::uint16_t port = 0;
    FlagParser p;
    p.addCount("--jobs", &jobs, "jobs", 1);
    p.addCount("--port", &port, "port");
    EXPECT_EQ(parse(p, {"--jobs", "0"}).error, "--jobs must be at least 1");
    EXPECT_EQ(parse(p, {"--port", "65536"}).error,
              "--port must be at most 65535");
    ASSERT_TRUE(parse(p, {"--jobs", "3", "--port", "65535"}).ok());
    EXPECT_EQ(jobs, 3u);
    EXPECT_EQ(port, 65535u);
}

TEST(FlagParser, DoublesMustBeFiniteAndInRange)
{
    double share = 100.0;
    double load = 0.5;
    FlagParser p;
    p.addDouble("--share", &share, "share",
                {.min = 0.0, .max = 100.0, .openMin = true});
    p.addDouble("--load", &load, "load");
    for (const char *bad : {"nan", "inf", "-inf", "1e999"})
        EXPECT_FALSE(parse(p, {"--load", bad}).ok()) << bad;
    EXPECT_EQ(parse(p, {"--load", "nan"}).error,
              "--load wants a finite number, got 'nan'");
    EXPECT_EQ(parse(p, {"--share", "0"}).error,
              "--share wants a number in (0, 100], got '0'");
    EXPECT_FALSE(parse(p, {"--share", "100.5"}).ok());
    ASSERT_TRUE(parse(p, {"--share", "100", "--load", "-2"}).ok());
    EXPECT_DOUBLE_EQ(share, 100.0);
    EXPECT_DOUBLE_EQ(load, -2.0);
}

TEST(FlagParser, MinMaxPairs)
{
    std::size_t lo = 0, hi = 0;
    FlagParser p;
    p.addMinMax("--autoscale", &lo, &hi, "bounds");
    ASSERT_TRUE(parse(p, {"--autoscale", "2:6"}).ok());
    EXPECT_EQ(lo, 2u);
    EXPECT_EQ(hi, 6u);
    for (const char *bad : {"0:4", "6:2", "4", "2:6:8", "-2:6", ":"})
        EXPECT_FALSE(parse(p, {"--autoscale", bad}).ok()) << bad;
}

TEST(FlagParser, ChecksPrefixTheFlagName)
{
    std::vector<std::string> names;
    FlagParser p;
    p.addStringList("--name", &names, "names",
                    [&names](const std::string &v) -> std::string {
                        for (const auto &seen : names) {
                            if (seen == v)
                                return "repeats '" + v + "'";
                        }
                        return {};
                    });
    EXPECT_EQ(parse(p, {"--name", "a", "--name", "a"}).error,
              "--name repeats 'a'");
    names.clear();
    ASSERT_TRUE(parse(p, {"--name", "a", "--name", "b"}).ok());
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}
