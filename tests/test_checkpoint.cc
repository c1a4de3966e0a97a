/** @file Unit tests for the BDQ checkpoint format (rl/checkpoint.hh):
 * round trips, diagnostics, and exhaustive single-byte-flip and
 * truncation corruption of one small trained checkpoint. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "rl/bdq_learner.hh"
#include "rl/checkpoint.hh"

using namespace twig;
using twig::common::FatalError;
using twig::common::Rng;

namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

rl::BdqLearnerConfig
smallLearner()
{
    rl::BdqLearnerConfig cfg;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = 3;
    cfg.net.trunkHidden = {16, 12};
    cfg.net.agentHeadHidden = 8;
    cfg.net.branchHidden = 8;
    cfg.net.branchActions = {4, 3};
    cfg.net.dropoutRate = 0.0f;
    cfg.minibatch = 8;
    cfg.replay.capacity = 256;
    cfg.epsilonMidStep = 20;
    cfg.epsilonFinalStep = 40;
    cfg.betaAnnealSteps = 40;
    cfg.minReplayBeforeTraining = 8;
    cfg.targetUpdateInterval = 10;
    return cfg;
}

rl::Transition
someTransition(double reward)
{
    rl::Transition t;
    t.state = std::vector<float>(6, 0.4f);
    t.actions = {{1, 2}, {3, 0}};
    t.rewards = {reward, -reward};
    t.nextState = std::vector<float>(6, 0.6f);
    return t;
}

/** The checkpoint of a small learner trained away from its
 * initialisation. */
std::string
trainedCheckpoint()
{
    Rng rng(3);
    rl::BdqLearner learner(smallLearner(), rng);
    for (int i = 0; i < 30; ++i)
        learner.observe(someTransition(0.1 * i));
    std::ostringstream out;
    rl::saveCheckpoint(learner, out, "trained");
    return out.str();
}

/** The learner's raw online-network parameters. */
std::string
paramBytes(const rl::BdqLearner &learner)
{
    std::ostringstream out;
    learner.save(out);
    return out.str();
}

/** Greedy actions of @p learner on a few fixed probe states. */
std::vector<std::vector<nn::BranchActions>>
probeActions(rl::BdqLearner &learner)
{
    std::vector<std::vector<nn::BranchActions>> out;
    for (int i = 0; i < 4; ++i)
        out.push_back(learner.greedyActions(
            std::vector<float>(6, 0.3f * static_cast<float>(i) - 0.4f)));
    return out;
}

/** Load @p bytes into @p learner; true when the loader refused them
 * (FatalError), with the diagnosis in @p msg. */
bool
rejected(rl::BdqLearner &learner, const std::string &bytes,
         std::string &msg)
{
    std::istringstream in(bytes);
    try {
        rl::loadCheckpoint(learner, in, "mutant");
    } catch (const FatalError &err) {
        msg = err.what();
        return true;
    }
    return false;
}

} // namespace

TEST(BdqCheckpoint, RoundTripReproducesPolicy)
{
    const std::string path = tmpPath("bdq_roundtrip.ckpt");
    Rng rng_a(3);
    rl::BdqLearner a(smallLearner(), rng_a);
    // Push the weights away from their initialisation so the
    // round-trip covers a trained network, not just init state.
    for (int i = 0; i < 30; ++i)
        a.observe(someTransition(0.1 * i));
    rl::saveCheckpoint(a, path);

    Rng rng_b(4);
    rl::BdqLearner b(smallLearner(), rng_b);
    rl::loadCheckpoint(b, path);
    for (int i = 0; i < 5; ++i) {
        const std::vector<float> state(6, 0.1f * static_cast<float>(i));
        EXPECT_EQ(a.greedyActions(state), b.greedyActions(state));
    }
}

TEST(BdqCheckpoint, RejectsArchitectureMismatch)
{
    const std::string path = tmpPath("bdq_shape.ckpt");
    Rng rng_a(3);
    rl::BdqLearner a(smallLearner(), rng_a);
    rl::saveCheckpoint(a, path);

    auto wrong = smallLearner();
    wrong.net.branchActions = {4, 2};
    Rng rng_b(3);
    rl::BdqLearner b(wrong, rng_b);
    EXPECT_THROW(rl::loadCheckpoint(b, path), FatalError);
}

TEST(BdqCheckpoint, RejectsMissingFile)
{
    Rng rng(1);
    rl::BdqLearner learner(smallLearner(), rng);
    EXPECT_THROW(rl::loadCheckpoint(learner, tmpPath("no_such.ckpt")),
                 FatalError);
}

TEST(BdqCheckpoint, RejectsTruncationAndTrailingGarbage)
{
    const std::string path = tmpPath("bdq_corrupt.ckpt");
    Rng rng(1);
    rl::BdqLearner a(smallLearner(), rng);
    rl::saveCheckpoint(a, path);
    const std::string good = readFileBytes(path);

    Rng rng_b(2);
    rl::BdqLearner b(smallLearner(), rng_b);
    writeFileBytes(path, good.substr(0, good.size() - 8));
    EXPECT_THROW(rl::loadCheckpoint(b, path), FatalError);
    writeFileBytes(path, good + "junk");
    EXPECT_THROW(rl::loadCheckpoint(b, path), FatalError);
}

TEST(BdqCheckpoint, RejectsVersion1File)
{
    // Version 1 had a u32 network-kind field after the version and no
    // checksum. Such a file is refused by its version, whatever it
    // holds.
    const std::string path = tmpPath("v1.ckpt");
    Rng rng_a(1);
    rl::BdqLearner a(smallLearner(), rng_a);
    rl::saveCheckpoint(a, path);
    const std::string v2 = readFileBytes(path);
    const std::uint32_t version = 1;
    const std::uint32_t kind_bdq = 2;
    std::string v1 = v2.substr(0, 8);
    v1.append(reinterpret_cast<const char *>(&version), 4);
    v1.append(reinterpret_cast<const char *>(&kind_bdq), 4);
    v1.append(v2.substr(12, v2.size() - 12 - 8));
    writeFileBytes(path, v1);

    Rng rng_b(2);
    rl::BdqLearner b(smallLearner(), rng_b);
    try {
        rl::loadCheckpoint(b, path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("unsupported checkpoint version 1"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }
}

TEST(CheckpointErrors, BadMagicReportsPathAndBytes)
{
    const std::string path = tmpPath("bad_magic.ckpt");
    Rng rng(1);
    rl::BdqLearner a(smallLearner(), rng);
    rl::saveCheckpoint(a, path);
    std::string bytes = readFileBytes(path);
    bytes[0] = 'X'; // "XWIGCKPT"
    writeFileBytes(path, bytes);

    Rng rng_b(2);
    rl::BdqLearner b(smallLearner(), rng_b);
    try {
        rl::loadCheckpoint(b, path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        // Expected-vs-actual magic, with the actual bytes in hex
        // ('X' = 0x58) and the expected name spelled out.
        EXPECT_NE(msg.find("TWIGCKPT"), std::string::npos) << msg;
        EXPECT_NE(msg.find("58"), std::string::npos) << msg;
    }
}

TEST(CheckpointErrors, TruncatedMagicIsDiagnosedAsTruncation)
{
    const std::string path = tmpPath("tiny.ckpt");
    writeFileBytes(path, "TWI");
    Rng rng(1);
    rl::BdqLearner learner(smallLearner(), rng);
    try {
        rl::loadCheckpoint(learner, path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }
}

TEST(BdqCheckpoint, StreamRoundTripMatchesFileRoundTrip)
{
    Rng rng_a(3);
    rl::BdqLearner a(smallLearner(), rng_a);
    for (int i = 0; i < 30; ++i)
        a.observe(someTransition(0.05 * i));

    std::ostringstream out;
    rl::saveCheckpoint(a, out, "stream checkpoint");

    Rng rng_b(9);
    rl::BdqLearner b(smallLearner(), rng_b);
    std::istringstream in(out.str());
    rl::loadCheckpoint(b, in, "stream checkpoint");
    for (int i = 0; i < 5; ++i) {
        const std::vector<float> state(6, 0.2f * static_cast<float>(i));
        EXPECT_EQ(a.greedyActions(state), b.greedyActions(state));
    }

    // One format: the stream bytes are the file bytes.
    const std::string path = tmpPath("bdq_stream.ckpt");
    rl::saveCheckpoint(a, path);
    EXPECT_EQ(readFileBytes(path), out.str());
}

TEST(BdqCheckpoint, StreamLoadErrorsCarryTheContext)
{
    Rng rng_a(3);
    rl::BdqLearner a(smallLearner(), rng_a);
    std::ostringstream out;
    rl::saveCheckpoint(a, out, "ctx");
    std::string bytes = out.str();
    bytes.resize(bytes.size() - 12); // chop the parameter tail

    Rng rng_b(3);
    rl::BdqLearner b(smallLearner(), rng_b);
    std::istringstream in(bytes);
    try {
        rl::loadCheckpoint(b, in, "node-1 frame");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("node-1 frame"),
                  std::string::npos)
            << err.what();
    }
}

TEST(BdqCheckpoint, EverySingleByteFlipIsRejected)
{
    const std::string good = trainedCheckpoint();
    Rng rng(9);
    rl::BdqLearner learner(smallLearner(), rng);
    const std::string params = paramBytes(learner);
    const auto actions = probeActions(learner);
    // Parameters and checksum occupy the tail of the file; the
    // header before them is validated field by field.
    const std::size_t params_begin =
        good.size() - sizeof(std::uint64_t) - params.size();

    std::string msg;
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0xff);
        ASSERT_TRUE(rejected(learner, bad, msg)) << "flip at byte " << i;
        if (i >= params_begin) {
            EXPECT_NE(msg.find("checksum mismatch"), std::string::npos)
                << "flip at byte " << i << ": " << msg;
        }
        ASSERT_EQ(paramBytes(learner), params) << "flip at byte " << i;
        ASSERT_EQ(probeActions(learner), actions) << "flip at byte " << i;
    }
    // The unflipped bytes still load (the flips were the only fault).
    EXPECT_FALSE(rejected(learner, good, msg)) << msg;
    EXPECT_NE(paramBytes(learner), params);
}

TEST(BdqCheckpoint, EveryTruncationIsRejected)
{
    const std::string good = trainedCheckpoint();
    Rng rng(9);
    rl::BdqLearner learner(smallLearner(), rng);
    const std::string params = paramBytes(learner);
    const auto actions = probeActions(learner);

    std::string msg;
    for (std::size_t len = 0; len < good.size(); ++len) {
        ASSERT_TRUE(rejected(learner, good.substr(0, len), msg))
            << "truncated to " << len << " bytes";
        EXPECT_NE(msg.find("truncated"), std::string::npos)
            << "truncated to " << len << " bytes: " << msg;
        ASSERT_EQ(paramBytes(learner), params) << "length " << len;
        ASSERT_EQ(probeActions(learner), actions) << "length " << len;
    }
    EXPECT_FALSE(rejected(learner, good, msg)) << msg;
}
