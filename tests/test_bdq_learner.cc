/** @file Unit tests for the BDQ learner (Algorithm 1 driver). */

#include <gtest/gtest.h>

#include <bit>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/kernel_clones.hh"
#include "common/rng.hh"
#include "core/twig_manager.hh"
#include "rl/bdq_learner.hh"
#include "sim/pmc.hh"

using namespace twig::rl;
using twig::common::Rng;

namespace {

BdqLearnerConfig
smallLearner(std::size_t agents = 1)
{
    BdqLearnerConfig cfg;
    cfg.net.numAgents = agents;
    cfg.net.stateDimPerAgent = 3;
    cfg.net.trunkHidden = {24, 16};
    cfg.net.agentHeadHidden = 12;
    cfg.net.branchHidden = 12;
    cfg.net.branchActions = {4, 3};
    cfg.net.dropoutRate = 0.0f;
    cfg.net.adam.learningRate = 0.005f;
    cfg.minibatch = 16;
    cfg.replay.capacity = 2048;
    cfg.epsilonMidStep = 200;
    cfg.epsilonFinalStep = 400;
    cfg.betaAnnealSteps = 400;
    cfg.minReplayBeforeTraining = 16;
    cfg.targetUpdateInterval = 50;
    return cfg;
}

Transition
banditTransition(const std::vector<std::size_t> &a, double reward)
{
    Transition t;
    t.state = {0.5f, 0.5f, 0.5f};
    t.actions = {a};
    t.rewards = {reward};
    t.nextState = {0.5f, 0.5f, 0.5f};
    return t;
}

} // namespace

TEST(BdqLearner, EpsilonFollowsSchedule)
{
    Rng rng(1);
    BdqLearner learner(smallLearner(), rng);
    EXPECT_DOUBLE_EQ(learner.epsilon(), 1.0);
    for (int i = 0; i < 200; ++i) {
        learner.observe(banditTransition({0, 0}, 0.0));
    }
    EXPECT_NEAR(learner.epsilon(), 0.1, 1e-9);
    EXPECT_EQ(learner.step(), 200u);
}

TEST(BdqLearner, SelectActionsWithinBounds)
{
    Rng rng(2);
    BdqLearner learner(smallLearner(2), rng);
    std::vector<float> state(6, 0.2f);
    for (int i = 0; i < 50; ++i) {
        const auto actions = learner.selectActions(state);
        ASSERT_EQ(actions.size(), 2u);
        for (const auto &a : actions) {
            ASSERT_EQ(a.size(), 2u);
            EXPECT_LT(a[0], 4u);
            EXPECT_LT(a[1], 3u);
        }
    }
}

TEST(BdqLearner, TrainingStartsAfterMinReplay)
{
    Rng rng(3);
    auto cfg = smallLearner();
    cfg.minReplayBeforeTraining = 10;
    BdqLearner learner(cfg, rng);
    for (int i = 0; i < 9; ++i)
        EXPECT_FALSE(learner.observe(banditTransition({0, 0}, 0.0)));
    EXPECT_TRUE(learner.observe(banditTransition({0, 0}, 0.0)));
}

TEST(BdqLearner, TrainEveryGatesGradientSteps)
{
    Rng rng(4);
    auto cfg = smallLearner();
    cfg.minReplayBeforeTraining = 1;
    cfg.trainEvery = 3;
    BdqLearner learner(cfg, rng);
    int trained = 0;
    for (int i = 0; i < 12; ++i)
        trained += learner.observe(banditTransition({0, 0}, 0.0))
            ? 1 : 0;
    EXPECT_EQ(trained, 4);
}

TEST(BdqLearner, LearnsBanditOptimum)
{
    // Contextual bandit: reward depends only on the chosen actions;
    // best combo is (branch0 = 2, branch1 = 1).
    Rng rng(5);
    auto cfg = smallLearner();
    cfg.epsilonMidStep = 300;
    cfg.epsilonFinalStep = 600;
    cfg.epsilonFinal = 0.05;
    BdqLearner learner(cfg, rng);

    const std::vector<float> state = {0.5f, 0.5f, 0.5f};
    for (int i = 0; i < 900; ++i) {
        const auto actions = learner.selectActions(state);
        const double r =
            (actions[0][0] == 2 ? 1.0 : 0.0) +
            (actions[0][1] == 1 ? 1.0 : 0.0);
        learner.observe(banditTransition(actions[0], r));
    }
    const auto greedy = learner.greedyActions(state);
    EXPECT_EQ(greedy[0][0], 2u);
    EXPECT_EQ(greedy[0][1], 1u);
}

TEST(BdqLearner, TrainStatsAreFinite)
{
    Rng rng(6);
    BdqLearner learner(smallLearner(), rng);
    for (int i = 0; i < 32; ++i)
        learner.observe(banditTransition({1, 1}, 0.5));
    const auto stats = learner.trainStep();
    EXPECT_TRUE(std::isfinite(stats.loss));
    EXPECT_TRUE(std::isfinite(stats.meanAbsTdError));
    EXPECT_GE(stats.meanAbsTdError, 0.0);
}

TEST(BdqLearner, TransferResetsEpsilonWindow)
{
    Rng rng(7);
    BdqLearner learner(smallLearner(), rng);
    for (int i = 0; i < 500; ++i)
        learner.observe(banditTransition({0, 0}, 0.0));
    const double eps_before = learner.epsilon();
    EXPECT_LT(eps_before, 0.1);
    learner.beginTransfer(50, 0.3);
    EXPECT_NEAR(learner.epsilon(), 0.3, 1e-9);
    for (int i = 0; i < 50; ++i)
        learner.observe(banditTransition({0, 0}, 0.0));
    EXPECT_NEAR(learner.epsilon(), learner.config().epsilonFinal, 1e-9);
}

TEST(BdqLearner, RejectsMalformedTransitions)
{
    Rng rng(8);
    BdqLearner learner(smallLearner(), rng);
    Transition bad;
    bad.state = {0.1f};          // wrong width
    bad.actions = {{0, 0}};
    bad.rewards = {0.0};
    bad.nextState = {0.1f, 0.1f, 0.1f};
    EXPECT_THROW(learner.observe(bad), twig::common::FatalError);

    Transition bad2 = banditTransition({0, 0}, 0.0);
    bad2.rewards = {0.0, 1.0}; // wrong agent count
    EXPECT_THROW(learner.observe(bad2), twig::common::FatalError);
}

TEST(BdqLearner, InvalidConfigThrows)
{
    Rng rng(9);
    auto cfg = smallLearner();
    cfg.minibatch = 0;
    EXPECT_THROW(BdqLearner(cfg, rng), twig::common::FatalError);
    cfg = smallLearner();
    cfg.discount = 1.0;
    EXPECT_THROW(BdqLearner(cfg, rng), twig::common::FatalError);
}

TEST(BdqLearner, DoneFlagSkipsBootstrap)
{
    // With gamma near 1 and huge next-state Q values this would blow up
    // if done were ignored; just exercise the code path for coverage
    // and sanity.
    Rng rng(10);
    BdqLearner learner(smallLearner(), rng);
    for (int i = 0; i < 40; ++i) {
        auto t = banditTransition({0, 0}, 1.0);
        t.done = true;
        learner.observe(std::move(t));
    }
    const auto stats = learner.trainStep();
    EXPECT_TRUE(std::isfinite(stats.loss));
}

namespace {

/** The fast preset's learner as TwigManager sizes it for two services
 * on the 18-core machine. */
BdqLearnerConfig
fastLearner()
{
    BdqLearnerConfig cfg = twig::core::TwigConfig::fast(2000).learner;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = twig::sim::kNumPmcs;
    cfg.net.branchActions = {18, 9};
    return cfg;
}

/**
 * Feeds a learner a continuing task drawn from its own Rng (each state
 * is the previous next state); observe() trains once the replay is
 * full enough. lossChain() is an FNV-1a chain over the bits of every
 * TrainStats observe() reported.
 */
class Feeder
{
  public:
    Feeder(BdqLearner &learner, std::uint64_t seed)
        : learner_(learner), env_(seed)
    {
        for (std::size_t i = 0; i < learner.config().net.inputDim(); ++i)
            t_.state.push_back(static_cast<float>(env_.uniform()));
    }

    void
    run(std::size_t steps)
    {
        const auto &net = learner_.config().net;
        for (std::size_t s = 0; s < steps; ++s) {
            t_.nextState.clear();
            for (std::size_t i = 0; i < net.inputDim(); ++i)
                t_.nextState.push_back(static_cast<float>(env_.uniform()));
            t_.actions.assign(net.numAgents, {});
            t_.rewards.assign(net.numAgents, 0.0);
            for (std::size_t k = 0; k < net.numAgents; ++k) {
                for (std::size_t n : net.branchActions)
                    t_.actions[k].push_back(env_.uniformInt(n));
                t_.rewards[k] = env_.uniform(-2.0, 1.0);
            }
            if (const auto stats = learner_.observe(t_)) {
                h_ = twig::common::fnv1aValue(
                    std::bit_cast<std::uint64_t>(stats->loss), h_);
                h_ = twig::common::fnv1aValue(
                    std::bit_cast<std::uint64_t>(stats->meanAbsTdError),
                    h_);
            }
            t_.state = t_.nextState;
        }
    }

    std::uint64_t lossChain() const { return h_; }

  private:
    BdqLearner &learner_;
    Rng env_;
    Transition t_;
    std::uint64_t h_ = twig::common::kFnvOffsetBasis;
};

/** FNV-1a over the learner's saved parameters. */
std::uint64_t
paramFingerprint(const BdqLearner &learner)
{
    std::ostringstream os;
    learner.save(os);
    const std::string bytes = os.str();
    return twig::common::fnv1a(bytes.data(), bytes.size());
}

/**
 * Whether the GEMM runs a version that fuses its multiply-adds: the
 * x86-64-v3 and v4 ones do, the default (SSE2) one -- the only one in
 * a build without kernel versions, such as a TSan build -- does not,
 * so a pinned training run has one set of bits for each.
 */
bool
gemmFusesMultiplyAdd()
{
#if TWIG_HAVE_KERNEL_CLONES
    return __builtin_cpu_supports("x86-64-v3");
#else
    return false;
#endif
}

/** A pinned training run's parameter and loss fingerprints. */
struct Pins
{
    std::uint64_t params, losses;
};

} // namespace

/**
 * 300 observed transitions of the fast preset (237 of them train, three
 * gradient steps each; two target refreshes) land on parameters and
 * losses pinned bit for bit. The values were taken from the build
 * before the training step's activations moved to a per-thread
 * workspace and its ReLU passes became lane code, with and without
 * fused multiply-adds; any change to the order or rounding of the
 * step's arithmetic moves them.
 */
TEST(BdqLearner, FastPresetTrainingIsPinnedBitForBit)
{
    const Pins want = gemmFusesMultiplyAdd()
        ? Pins{0x0ae356e5bd978133ull, 0xbc2aa551ea184985ull}
        : Pins{0x36ef98ab01404cbcull, 0xdf7283e15af3433full};
    Rng rng(1234);
    BdqLearner learner(fastLearner(), rng);
    Feeder feeder(learner, 99);
    feeder.run(300);
    EXPECT_EQ(paramFingerprint(learner), want.params);
    EXPECT_EQ(feeder.lossChain(), want.losses);
}

/** As above for a dropout net (the paper preset's 0.5 rate) on
 * smaller layers, whose train passes draw dropout masks. */
TEST(BdqLearner, DropoutTrainingIsPinnedBitForBit)
{
    BdqLearnerConfig cfg = smallLearner(2);
    cfg.net.dropoutRate = 0.5f;
    cfg.gradientStepsPerTrain = 2;
    const Pins want = gemmFusesMultiplyAdd()
        ? Pins{0x028dde371d7ede98ull, 0x57a6f3b256ce7b64ull}
        : Pins{0x3ec67f61f7dc32c3ull, 0x39b5101647fb3f9aull};
    Rng rng(4321);
    BdqLearner learner(cfg, rng);
    Feeder feeder(learner, 98);
    feeder.run(120);
    EXPECT_EQ(paramFingerprint(learner), want.params);
    EXPECT_EQ(feeder.lossChain(), want.losses);
}

/**
 * Learners on one thread share its training workspace; interleaving
 * their steps must reproduce each one run alone, bit for bit, also
 * for networks of different shapes.
 */
TEST(BdqLearner, InterleavedLearnersReproduceEachRunAlone)
{
    BdqLearnerConfig narrow = fastLearner();
    narrow.net.branchActions = {6, 9}; // a 6-core node

    Rng ra(1), rb(2);
    BdqLearner aloneA(fastLearner(), ra), aloneB(narrow, rb);
    Feeder fa(aloneA, 11), fb(aloneB, 12);
    fa.run(200);
    fb.run(200);

    Rng ra2(1), rb2(2);
    BdqLearner a(fastLearner(), ra2), b(narrow, rb2);
    Feeder ga(a, 11), gb(b, 12);
    for (std::size_t s = 0; s < 200; ++s) {
        ga.run(1);
        gb.run(1);
    }
    EXPECT_EQ(ga.lossChain(), fa.lossChain());
    EXPECT_EQ(gb.lossChain(), fb.lossChain());
    EXPECT_EQ(paramFingerprint(a), paramFingerprint(aloneA));
    EXPECT_EQ(paramFingerprint(b), paramFingerprint(aloneB));
}

namespace {

/** One long-lived thread that runs submitted tasks in order, like a
 * pool worker: its thread_local state outlives each task. */
class Worker
{
  public:
    Worker() : thread_([this] { loop(); }) {}

    ~Worker()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    std::future<void>
    submit(std::function<void()> fn)
    {
        std::packaged_task<void()> task(std::move(fn));
        auto result = task.get_future();
        {
            std::lock_guard<std::mutex> lock(mu_);
            tasks_.push_back(std::move(task));
        }
        cv_.notify_all();
        return result;
    }

  private:
    void
    loop()
    {
        for (;;) {
            std::packaged_task<void()> task;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [this] { return done_ || !tasks_.empty(); });
                if (tasks_.empty())
                    return;
                task = std::move(tasks_.front());
                tasks_.pop_front();
            }
            task();
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::packaged_task<void()>> tasks_;
    bool done_ = false;
    std::thread thread_;
};

} // namespace

/**
 * A pool hands learners to whichever thread is free, so one learner's
 * steps land on different threads and another learner of another
 * shape may have used the thread's workspace in between. Two learners
 * (18- and 6-action branches) step on two long-lived threads in the
 * orders that allows -- each on each thread in turn, both on one
 * thread, then both at once each way round -- and must reproduce each
 * one run alone, bit for bit.
 */
TEST(BdqLearner, LearnersMovingBetweenThreadsReproduceEachRunAlone)
{
    BdqLearnerConfig narrow = fastLearner();
    narrow.net.branchActions = {6, 9};
    constexpr std::size_t kRounds = 60;

    Rng ra(3), rb(4);
    BdqLearner aloneA(fastLearner(), ra), aloneB(narrow, rb);
    Feeder fa(aloneA, 13), fb(aloneB, 14);
    fa.run(5 * kRounds);
    fb.run(4 * kRounds);

    Rng ra2(3), rb2(4);
    BdqLearner a(fastLearner(), ra2), b(narrow, rb2);
    Feeder ga(a, 13), gb(b, 14);
    const auto stepA = [&ga] { ga.run(1); };
    const auto stepB = [&gb] { gb.run(1); };
    Worker t1, t2;
    for (std::size_t r = 0; r < kRounds; ++r) {
        t1.submit(stepA).get();
        t2.submit(stepA).get();
        t2.submit(stepB).get();
        t1.submit(stepB).get();
        t1.submit(stepA).get();
        auto x = t1.submit(stepA);
        auto y = t2.submit(stepB);
        x.get();
        y.get();
        x = t2.submit(stepA);
        y = t1.submit(stepB);
        x.get();
        y.get();
    }
    EXPECT_EQ(ga.lossChain(), fa.lossChain());
    EXPECT_EQ(gb.lossChain(), fb.lossChain());
    EXPECT_EQ(paramFingerprint(a), paramFingerprint(aloneA));
    EXPECT_EQ(paramFingerprint(b), paramFingerprint(aloneB));
}
