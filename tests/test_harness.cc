/** @file Unit tests for the experiment harness. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/static_manager.hh"
#include "common/hash.hh"
#include "harness/metrics.hh"
#include "harness/profiling.hh"
#include "harness/runner.hh"
#include "harness/sim_profile.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;
using namespace twig::harness;

TEST(Metrics, AccumulatorComputesGuaranteeAndTardiness)
{
    MetricsAccumulator acc({"svc"}, {10.0});
    acc.add({5.0}, 100.0, 1.0);  // met, tardiness 0.5
    acc.add({20.0}, 100.0, 1.0); // violated, tardiness 2.0
    acc.add({10.0}, 50.0, 1.0);  // met (== target), tardiness 1.0
    const auto m = acc.finish();
    ASSERT_EQ(m.services.size(), 1u);
    EXPECT_NEAR(m.services[0].qosGuaranteePct, 200.0 / 3.0, 1e-9);
    EXPECT_NEAR(m.services[0].meanTardiness, 3.5 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(m.services[0].maxTardiness, 2.0);
    EXPECT_NEAR(m.services[0].meanP99Ms, 35.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(m.energyJoules, 250.0);
    EXPECT_NEAR(m.meanPowerW, 250.0 / 3.0, 1e-9);
    EXPECT_EQ(m.windowSteps, 3u);
}

TEST(Metrics, MultiServiceAverage)
{
    MetricsAccumulator acc({"a", "b"}, {10.0, 100.0});
    acc.add({5.0, 200.0}, 10.0, 1.0); // a met, b violated
    const auto m = acc.finish();
    EXPECT_DOUBLE_EQ(m.services[0].qosGuaranteePct, 100.0);
    EXPECT_DOUBLE_EQ(m.services[1].qosGuaranteePct, 0.0);
    EXPECT_DOUBLE_EQ(m.avgQosGuaranteePct(), 50.0);
}

TEST(Metrics, Validation)
{
    EXPECT_THROW(MetricsAccumulator({"a"}, {1.0, 2.0}),
                 twig::common::FatalError);
    EXPECT_THROW(MetricsAccumulator({}, {}), twig::common::FatalError);
    MetricsAccumulator acc({"a"}, {1.0});
    EXPECT_THROW(acc.add({1.0, 2.0}, 1.0, 1.0),
                 twig::common::FatalError);
}

TEST(Runner, StaticManagerMeetsQosAtModerateLoad)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 21);
    const auto p = services::masstree();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.5));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);

    RunOptions opt;
    opt.steps = 30;
    opt.summaryWindow = 20;
    const auto result = runner.run(opt);
    EXPECT_EQ(result.metrics.windowSteps, 20u);
    EXPECT_GT(result.metrics.services[0].qosGuaranteePct, 90.0);
    EXPECT_GT(result.metrics.energyJoules, 0.0);
}

TEST(TraceRecord, PerServiceValuesSurviveSpillCopyAndMove)
{
    TraceRecord::PerService<double> v;
    EXPECT_TRUE(v.empty());
    std::vector<double> want;
    for (int i = 0; i < 9; ++i) {
        // The first two stay inline, then the values move to the heap
        // and regrow (4 -> 8 -> 16 slots); pushing one of its own
        // elements must survive the regrow that frees it.
        v.push_back(i == 4 ? v[1] : 0.5 * i);
        want.push_back(i == 4 ? want[1] : 0.5 * i);
        ASSERT_EQ(v.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j)
            ASSERT_EQ(v[j], want[j]) << "after " << i << ", element " << j;

        TraceRecord::PerService<double> copy = v;
        TraceRecord::PerService<double> assigned;
        assigned.push_back(-1.0);
        assigned = copy;
        const TraceRecord::PerService<double> moved = std::move(copy);
        EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move)
        const std::vector<double> fromCopy(assigned.begin(), assigned.end());
        const std::vector<double> fromMove(moved.begin(), moved.end());
        EXPECT_EQ(fromCopy, want);
        EXPECT_EQ(fromMove, want);
        EXPECT_NE(assigned.data(), v.data());
    }
}

TEST(Runner, TraceRecordsEveryStep)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 22);
    const auto p = services::xapian();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.2));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);

    RunOptions opt;
    opt.steps = 12;
    opt.summaryWindow = 12;
    opt.recordTrace = true;
    const auto result = runner.run(opt);
    ASSERT_EQ(result.trace.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(result.trace[i].step, i);
        ASSERT_EQ(result.trace[i].cores.size(), 1u);
        EXPECT_EQ(result.trace[i].cores[0], machine.numCores);
        EXPECT_GT(result.trace[i].socketPowerW, 0.0);
    }
}

TEST(Runner, TraceContentsFollowStepOrder)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 24);
    const auto p = services::masstree();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.4));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);

    RunOptions opt;
    opt.steps = 9;
    opt.summaryWindow = 9;
    opt.recordTrace = true;
    const auto result = runner.run(opt);

    ASSERT_EQ(result.trace.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i) {
        const auto &rec = result.trace[i];
        EXPECT_EQ(rec.step, i);
        ASSERT_EQ(rec.p99Ms.size(), 1u);
        ASSERT_EQ(rec.offeredRps.size(), 1u);
        EXPECT_GE(rec.p99Ms[0], 0.0);
        EXPECT_GT(rec.offeredRps[0], 0.0);
        EXPECT_GT(rec.socketPowerW, 0.0);
        // The static manager requests everything, every interval.
        ASSERT_EQ(rec.cores.size(), 1u);
        ASSERT_EQ(rec.dvfs.size(), 1u);
        EXPECT_EQ(rec.cores[0], machine.numCores);
        EXPECT_EQ(rec.dvfs[0], machine.dvfs.maxIndex());
    }
}

TEST(Runner, SummaryWindowLargerThanRunIsWholeRun)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 24);
    const auto p = services::imgdnn();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.2));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);
    RunOptions opt;
    opt.steps = 5;
    opt.summaryWindow = 100;
    const auto result = runner.run(opt);
    EXPECT_EQ(result.metrics.windowSteps, 5u);
}

TEST(Runner, Validation)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 25);
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);
    RunOptions opt;
    opt.steps = 0;
    EXPECT_THROW(runner.run(opt), twig::common::FatalError);
    opt.steps = 5;
    opt.summaryWindow = 0;
    EXPECT_THROW(runner.run(opt), twig::common::FatalError);
    opt.summaryWindow = 5;
    // Server hosts no services.
    EXPECT_THROW(runner.run(opt), twig::common::FatalError);
}

TEST(Profiling, CampaignCoversTheGrid)
{
    sim::MachineConfig machine;
    PowerProfilingOptions opt;
    opt.loadLevels = {0.2, 0.5};
    opt.coreCounts = {4, 12};
    opt.dvfsStates = {0, 8};
    opt.intervalsPerConfig = 2;
    const auto samples = profileServicePower(services::masstree(),
                                             machine, opt, 31);
    // Saturated configurations are dropped (4 cores at 1.2 GHz cannot
    // sustain 50% of masstree's max load), so the grid is an upper
    // bound.
    EXPECT_LE(samples.size(), 2u * 2u * 2u);
    EXPECT_GE(samples.size(), 4u);
    for (const auto &s : samples) {
        EXPECT_GT(s.dynamicPowerW, 0.0);
        EXPECT_GE(s.numCores, 4.0);
        EXPECT_LE(s.numCores, 12.0);
    }
}

TEST(Profiling, PowerGrowsWithCoresAndDvfs)
{
    sim::MachineConfig machine;
    PowerProfilingOptions opt;
    opt.loadLevels = {0.5};
    opt.coreCounts = {4, 16};
    opt.dvfsStates = {0, 8};
    opt.intervalsPerConfig = 3;
    const auto samples = profileServicePower(services::moses(),
                                             machine, opt, 32);
    auto find = [&](double cores,
                    double ghz) -> const core::PowerSample * {
        for (const auto &s : samples) {
            if (s.numCores == cores && std::abs(s.dvfsGhz - ghz) < 1e-9)
                return &s;
        }
        return nullptr;
    };
    const auto *lo = find(16, 1.2);
    const auto *hi = find(16, 2.0);
    ASSERT_NE(lo, nullptr);
    ASSERT_NE(hi, nullptr);
    EXPECT_LT(lo->dynamicPowerW, hi->dynamicPowerW);
}

TEST(Profiling, MakeTwigSpecProducesUsableModel)
{
    sim::MachineConfig machine;
    const auto spec = makeTwigSpec(services::masstree(), machine, 33);
    EXPECT_EQ(spec.name, "masstree");
    EXPECT_DOUBLE_EQ(spec.qosTargetMs, 36.0);
    const double p = spec.powerModel.predict(0.5, 10.0, 1.8);
    EXPECT_GT(p, 5.0);
    EXPECT_LT(p, 120.0);
}

namespace {

/** FNV-1a over every field of every sample, in campaign order. */
std::uint64_t
campaignDigest(const std::vector<core::PowerSample> &samples)
{
    std::uint64_t h = common::kFnvOffsetBasis;
    for (const auto &s : samples) {
        for (double v :
             {s.loadFraction, s.numCores, s.dvfsGhz, s.dynamicPowerW})
            h = common::fnv1aValue(std::bit_cast<std::uint64_t>(v), h);
    }
    return h;
}

sim::MachineConfig
machineWithCores(std::size_t cores)
{
    sim::MachineConfig m;
    m.numCores = cores;
    return m;
}

} // namespace

TEST(Profiling, CampaignAndFitArePinnedBitForBit)
{
    // The Eq. 2 campaign and its random-search fit at seed 123, pinned
    // bit for bit on both machine shapes the fleets use: any change to
    // what the campaign measures or how the fit scores moves one of
    // these.
    struct Case
    {
        const char *service;
        std::size_t cores;
        std::size_t samples;
        std::uint64_t digest;
        std::uint64_t kappa, sigma, omega;
    };
    const Case cases[] = {
        {"masstree", 18, 70, 0xeeac1f3d73558ca8ULL,
         0x40530cad8570509fULL, 0x3fb6a28bc13ba5d8ULL, 0x40015fd243cc2c20ULL},
        {"masstree", 6, 8, 0x8d930eea8314a822ULL,
         0x3f9bf15cfc2db99cULL, 0x3fb67f07a9143baaULL, 0x4009e78326b1542eULL},
        {"img-dnn", 18, 70, 0x3dbf0d39f6380a91ULL,
         0x4051ff97f164980aULL, 0x3f9b52ed7134ff11ULL, 0x40028d1c966be219ULL},
        {"img-dnn", 6, 8, 0xc4b548e15492ee2cULL,
         0x40130d52e8f81116ULL, 0x3fd2a841142bbc05ULL, 0x40082ced8277841dULL},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.service) + " on " +
                     std::to_string(c.cores) + " cores");
        const auto profile = services::byName(c.service);
        const auto machine = machineWithCores(c.cores);
        const auto samples =
            profileServicePower(profile, machine, {}, 123);
        EXPECT_EQ(samples.size(), c.samples);
        EXPECT_EQ(campaignDigest(samples), c.digest);
        const auto spec = makeTwigSpec(profile, machine, 123);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(spec.powerModel.kappa()),
                  c.kappa);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(spec.powerModel.sigma()),
                  c.sigma);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(spec.powerModel.omega()),
                  c.omega);
    }
}

TEST(Profiling, SaturatedConfigurationsStopAtTheirFirstOverloadedInterval)
{
    // One interference evaluation per simulated interval. A kept
    // configuration runs all of its intervals; a saturated one stops
    // at its first overloaded interval instead of running them all.
    const PowerProfilingOptions opt;
    const std::size_t configs = opt.loadLevels.size() *
        opt.coreCounts.size() * opt.dvfsStates.size();
    ASSERT_EQ(configs, 135u);

    SimProfile::enable();
    const SimProfile before = SimProfile::snapshot();
    const auto samples = profileServicePower(
        services::masstree(), machineWithCores(18), opt, 123);
    const std::uint64_t intervals =
        SimProfile::snapshot()
            .since(before)
            .phase(common::simprof::Phase::Interference)
            .calls;
    SimProfile::disable();

    const std::size_t saturated = configs - samples.size();
    EXPECT_EQ(samples.size(), 70u);
    EXPECT_EQ(intervals, 360u);
    EXPECT_LT(intervals, opt.intervalsPerConfig * configs);
    EXPECT_GE(intervals, opt.intervalsPerConfig * samples.size() +
                             saturated);
}

TEST(Profiling, MakeBaselineSpecCopiesFields)
{
    const auto spec = makeBaselineSpec(services::xapian());
    EXPECT_EQ(spec.name, "xapian");
    EXPECT_DOUBLE_EQ(spec.qosTargetMs, 136.0);
    EXPECT_DOUBLE_EQ(spec.maxLoadRps, 1000.0);
}
