/** @file Unit tests for the sum tree and prioritised replay buffer. */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "rl/replay.hh"

using namespace twig::rl;
using twig::common::Rng;

namespace {

Transition
makeTransition(float tag)
{
    Transition t;
    t.state = {tag, tag};
    t.actions = {{0, 0}};
    t.rewards = {static_cast<double>(tag)};
    t.nextState = {tag + 1, tag + 1};
    return t;
}

} // namespace

TEST(SumTree, SetGetTotal)
{
    SumTree tree(5);
    tree.set(0, 1.0);
    tree.set(3, 2.5);
    EXPECT_DOUBLE_EQ(tree.get(0), 1.0);
    EXPECT_DOUBLE_EQ(tree.get(3), 2.5);
    EXPECT_DOUBLE_EQ(tree.get(1), 0.0);
    EXPECT_DOUBLE_EQ(tree.total(), 3.5);
}

TEST(SumTree, OverwriteUpdatesTotal)
{
    SumTree tree(4);
    tree.set(2, 5.0);
    tree.set(2, 1.0);
    EXPECT_DOUBLE_EQ(tree.total(), 1.0);
}

TEST(SumTree, FindSelectsByPrefixSum)
{
    SumTree tree(4);
    tree.set(0, 1.0);
    tree.set(1, 2.0);
    tree.set(2, 3.0);
    tree.set(3, 4.0);
    EXPECT_EQ(tree.find(0.5), 0u);
    EXPECT_EQ(tree.find(1.5), 1u);
    EXPECT_EQ(tree.find(2.999), 1u);
    EXPECT_EQ(tree.find(3.0), 2u);
    EXPECT_EQ(tree.find(9.99), 3u);
}

TEST(SumTree, FindSkipsZeroPriorityLeaves)
{
    SumTree tree(4);
    tree.set(1, 1.0);
    tree.set(3, 1.0);
    EXPECT_EQ(tree.find(0.5), 1u);
    EXPECT_EQ(tree.find(1.5), 3u);
}

TEST(SumTree, Validation)
{
    SumTree tree(3);
    EXPECT_THROW(tree.set(3, 1.0), twig::common::FatalError);
    EXPECT_THROW(tree.set(0, -1.0), twig::common::FatalError);
    EXPECT_THROW(tree.get(5), twig::common::FatalError);
    EXPECT_THROW(SumTree(0), twig::common::FatalError);
}

TEST(Replay, AddAndSize)
{
    ReplayConfig cfg;
    cfg.capacity = 8;
    PrioritizedReplay buf(cfg);
    EXPECT_TRUE(buf.empty());
    buf.add(makeTransition(1));
    buf.add(makeTransition(2));
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_FLOAT_EQ(buf.state(0)[0], 1.0f);
    EXPECT_FLOAT_EQ(buf.state(1)[0], 2.0f);
}

TEST(Replay, CircularOverwrite)
{
    ReplayConfig cfg;
    cfg.capacity = 3;
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 5; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    EXPECT_EQ(buf.size(), 3u);
    // Slots 0 and 1 hold the newest items (3, 4); slot 2 holds 2.
    EXPECT_FLOAT_EQ(buf.state(0)[0], 3.0f);
    EXPECT_FLOAT_EQ(buf.state(1)[0], 4.0f);
    EXPECT_FLOAT_EQ(buf.state(2)[0], 2.0f);
}

TEST(Replay, StoresEveryFieldExactlyAcrossWrapAround)
{
    // A continuing task chains each state to the previous next state
    // (stored once); every fifth transition breaks the chain, and one
    // differs from the previous next state only in the sign of a zero,
    // which must not be taken for the same state.
    ReplayConfig cfg;
    cfg.capacity = 5;
    PrioritizedReplay buf(cfg);
    std::vector<Transition> added;
    std::vector<float> prev = {0.5f, -0.0f, 2.0f};
    for (int i = 0; i < 23; ++i) {
        Transition t;
        t.state = prev;
        if (i % 5 == 4)
            t.state[0] += 100.0f;
        if (i == 7)
            t.state[1] = 0.0f;
        t.nextState = {static_cast<float>(i), -0.0f,
                       static_cast<float>(i) * 0.25f};
        t.actions = {{static_cast<std::size_t>(i % 3), 1},
                     {2, static_cast<std::size_t>(i % 4)}};
        t.rewards = {static_cast<double>(i), -static_cast<double>(i)};
        t.done = i % 6 == 0;
        buf.add(t);
        added.push_back(t);
        prev = t.nextState;

        ASSERT_EQ(buf.size(), std::min<std::size_t>(added.size(), 5));
        ASSERT_EQ(buf.stateDim(), 3u);
        for (std::size_t slot = 0; slot < buf.size(); ++slot) {
            // The newest transition added to this slot.
            std::size_t j = added.size() - 1;
            while (j % 5 != slot)
                --j;
            const Transition &want = added[j];
            EXPECT_EQ(std::memcmp(buf.state(slot), want.state.data(),
                                  3 * sizeof(float)),
                      0)
                << "after " << i << ", slot " << slot;
            EXPECT_EQ(std::memcmp(buf.nextState(slot),
                                  want.nextState.data(), 3 * sizeof(float)),
                      0)
                << "after " << i << ", slot " << slot;
            for (std::size_t k = 0; k < 2; ++k) {
                for (std::size_t d = 0; d < 2; ++d)
                    EXPECT_EQ(buf.action(slot, k, d), want.actions[k][d]);
                EXPECT_EQ(buf.reward(slot, k), want.rewards[k]);
            }
            EXPECT_EQ(buf.done(slot), want.done);
        }
    }
}

TEST(Replay, FillsPastAReservationSizeAndWrapsExactly)
{
    // 70000 slots, above the 65536 transitions a replay once reserved
    // on its first add: the buffers grow as they fill, past that size,
    // and then wrap. Sampling and prioritised updates along the way
    // must pick the same transitions with the same weights as before
    // the reservation went (the pinned FNV-1a below).
    ReplayConfig cfg;
    cfg.capacity = 70000;
    PrioritizedReplay buf(cfg);
    Rng rng(21);
    std::uint64_t h = twig::common::kFnvOffsetBasis;
    for (int i = 0; i < 100000; ++i) {
        buf.add(makeTransition(static_cast<float>(i)));
        if (i % 5000 != 4999)
            continue;
        const auto s = buf.sample(32, 0.4, rng);
        h = twig::common::fnv1a(s.indices.data(),
                                s.indices.size() * sizeof(std::size_t), h);
        h = twig::common::fnv1a(s.weights.data(),
                                s.weights.size() * sizeof(double), h);
        std::vector<double> td;
        for (const std::size_t idx : s.indices)
            td.push_back(0.01 * static_cast<double>(idx % 97));
        buf.updatePriorities(s.indices, td);
    }
    ASSERT_EQ(buf.size(), 70000u);
    // Slot j holds the newest transition added at an index = j mod
    // 70000: the wrap overwrote slots 0..29999.
    for (const std::size_t slot : {0, 1, 29999, 30000, 65536, 69999}) {
        const float tag =
            static_cast<float>(slot < 30000 ? slot + 70000 : slot);
        EXPECT_EQ(buf.state(slot)[0], tag) << "slot " << slot;
        EXPECT_EQ(buf.nextState(slot)[1], tag + 1) << "slot " << slot;
        EXPECT_EQ(buf.reward(slot, 0), static_cast<double>(tag));
    }
    EXPECT_EQ(h, 0x127df21dbc92a3d5ULL) << std::hex << h;
}

TEST(Replay, RejectsTransitionsOfAnotherShape)
{
    PrioritizedReplay buf(ReplayConfig{});
    buf.add(makeTransition(1));
    Transition wider = makeTransition(2);
    wider.state.push_back(0.0f);
    EXPECT_THROW(buf.add(wider), twig::common::FatalError);
    Transition more_branches = makeTransition(3);
    more_branches.actions[0].push_back(0);
    EXPECT_THROW(buf.add(more_branches), twig::common::FatalError);
}

TEST(Replay, StoresActionIndicesInSixteenBits)
{
    PrioritizedReplay buf(ReplayConfig{});
    Transition t = makeTransition(1);
    t.actions[0][0] = 65535;
    buf.add(t);
    EXPECT_EQ(buf.action(0, 0, 0), 65535u);
    t.actions[0][0] = 65536;
    EXPECT_THROW(buf.add(t), twig::common::FatalError);
}

TEST(Replay, SampleReturnsValidIndicesAndWeights)
{
    ReplayConfig cfg;
    cfg.capacity = 64;
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 20; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    Rng rng(3);
    const auto s = buf.sample(16, 0.5, rng);
    ASSERT_EQ(s.indices.size(), 16u);
    ASSERT_EQ(s.weights.size(), 16u);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_LT(s.indices[i], 20u);
        EXPECT_GT(s.weights[i], 0.0);
        EXPECT_LE(s.weights[i], 1.0 + 1e-12);
    }
}

TEST(Replay, HighPriorityItemsSampledMoreOften)
{
    ReplayConfig cfg;
    cfg.capacity = 16;
    cfg.alpha = 1.0;
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 10; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    // Give index 7 a huge TD error, everything else tiny.
    std::vector<std::size_t> idx;
    std::vector<double> td;
    for (std::size_t i = 0; i < 10; ++i) {
        idx.push_back(i);
        td.push_back(i == 7 ? 50.0 : 0.01);
    }
    buf.updatePriorities(idx, td);

    Rng rng(4);
    std::map<std::size_t, int> counts;
    for (int round = 0; round < 200; ++round) {
        const auto s = buf.sample(8, 0.4, rng);
        for (auto i : s.indices)
            ++counts[i];
    }
    int other_max = 0;
    for (const auto &[i, c] : counts)
        if (i != 7)
            other_max = std::max(other_max, c);
    EXPECT_GT(counts[7], 10 * other_max);
}

TEST(Replay, UniformWhenAlphaZero)
{
    ReplayConfig cfg;
    cfg.capacity = 16;
    cfg.alpha = 0.0; // priority^0 = 1: uniform sampling
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 8; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    buf.updatePriorities({0}, {1000.0});

    Rng rng(5);
    std::map<std::size_t, int> counts;
    for (int round = 0; round < 500; ++round)
        for (auto i : buf.sample(8, 1.0, rng).indices)
            ++counts[i];
    // All eight indices drawn with similar frequency.
    for (const auto &[i, c] : counts)
        EXPECT_NEAR(c, 500, 200) << "index " << i;
}

TEST(Replay, WeightsCompensatePriority)
{
    ReplayConfig cfg;
    cfg.capacity = 8;
    cfg.alpha = 1.0;
    PrioritizedReplay buf(cfg);
    buf.add(makeTransition(0));
    buf.add(makeTransition(1));
    buf.updatePriorities({0, 1}, {10.0, 1.0});

    Rng rng(6);
    const auto s = buf.sample(64, 1.0, rng);
    double w_high = 0.0, w_low = 0.0;
    for (std::size_t i = 0; i < s.indices.size(); ++i) {
        (s.indices[i] == 0 ? w_high : w_low) = s.weights[i];
    }
    // Full importance correction: frequently-sampled item gets the
    // smaller weight.
    EXPECT_LT(w_high, w_low);
}

TEST(Replay, SampleFromEmptyThrows)
{
    PrioritizedReplay buf({});
    Rng rng(7);
    EXPECT_THROW(buf.sample(4, 0.4, rng), twig::common::FatalError);
}

TEST(Replay, UpdateValidation)
{
    PrioritizedReplay buf({});
    buf.add(makeTransition(0));
    EXPECT_THROW(buf.updatePriorities({0, 1}, {1.0}),
                 twig::common::FatalError);
}
