/** @file Tests for harness::SimProfile share reporting and strict
 * parsing of the profiling flags (tools' --sim-profile /
 * --profile-max-share; scripts/scenario_smoke.sh asserts the budget's
 * exit status end to end). */

#include <gtest/gtest.h>

#include "common/flags.hh"
#include "common/sim_counters.hh"
#include "harness/sim_profile.hh"

using namespace twig;
using common::simprof::Phase;

namespace {

/** Zero all counters, then credit @p cycles to @p phase. */
void
credit(Phase phase, std::uint64_t cycles)
{
    common::simprof::counter(phase).cycles.fetch_add(cycles);
    common::simprof::counter(phase).calls.fetch_add(1);
}

/** Build a snapshot with a known distribution: dispatch 60%,
 * draws 30%, quantile 10%. */
harness::SimProfile
knownDistribution()
{
    common::simprof::resetAll();
    credit(Phase::Dispatch, 600);
    credit(Phase::Draws, 300);
    credit(Phase::Quantile, 100);
    return harness::SimProfile::snapshot();
}

/** Run the parser over an argv-style array. */
common::FlagParser::Result
parseArgs(std::vector<const char *> argv, bool *sim_profile,
          double *max_share)
{
    common::FlagParser parser;
    parser.addBool("--sim-profile", sim_profile, "breakdown");
    parser.addDouble("--profile-max-share", max_share, "budget");
    argv.insert(argv.begin(), "prog");
    return parser.parse(static_cast<int>(argv.size()),
                        const_cast<char **>(argv.data()));
}

} // namespace

TEST(SimProfileShares, SharePctMatchesDistribution)
{
    const auto prof = knownDistribution();
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Dispatch), 60.0);
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Draws), 30.0);
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Quantile), 10.0);
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Arrivals), 0.0);
    common::simprof::resetAll();
}

TEST(SimProfileShares, EmptyProfileHasZeroShares)
{
    common::simprof::resetAll();
    const auto prof = harness::SimProfile::snapshot();
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Dispatch), 0.0);
    EXPECT_TRUE(prof.phasesAbove(0.0).empty());
}

TEST(SimProfileShares, PhasesAboveIsStrictAndOrdered)
{
    const auto prof = knownDistribution();
    // Strictly above: a threshold equal to a phase's share does not
    // flag it.
    EXPECT_TRUE(prof.phasesAbove(60.0).empty());

    const auto over25 = prof.phasesAbove(25.0);
    ASSERT_EQ(over25.size(), 2u);
    EXPECT_EQ(over25[0], Phase::Dispatch);
    EXPECT_EQ(over25[1], Phase::Draws);

    EXPECT_EQ(prof.phasesAbove(5.0).size(), 3u);
    EXPECT_EQ(prof.phasesAbove(100.0).size(), 0u);
    common::simprof::resetAll();
}

TEST(ProfileFlags, ParsesBudgetValue)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--sim-profile", "--profile-max-share",
                                "42.5"},
                               &sim_profile, &max_share);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(sim_profile);
    EXPECT_DOUBLE_EQ(max_share, 42.5);
}

TEST(ProfileFlags, RejectsNonNumericBudget)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--profile-max-share", "lots"},
                               &sim_profile, &max_share);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--profile-max-share"), std::string::npos);
    EXPECT_DOUBLE_EQ(max_share, 100.0); // untouched on error
}

TEST(ProfileFlags, RejectsMissingBudgetValue)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--profile-max-share"}, &sim_profile,
                               &max_share);
    EXPECT_FALSE(res.ok());
}

TEST(ProfileFlags, RejectsTrailingGarbageInNumber)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--profile-max-share", "40%"},
                               &sim_profile, &max_share);
    EXPECT_FALSE(res.ok());
}
