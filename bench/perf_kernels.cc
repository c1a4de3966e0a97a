/**
 * @file
 * Microbenchmark for the NN kernels behind Twig's control loop.
 *
 * Times the BDQ-shaped GEMMs (the paper net at batch 64: trunk, head,
 * branch and advantage-output layers; the fast preset's narrow
 * advantage and value layers, whose n % 16 column tails dominate) for
 * the tiled kernels in nn/matrix.cc against the seed's naive triple
 * loops (nn::reference::*, kept verbatim in matrix_ref.cc), the Adam
 * kernel against the seed's scalar loop on warmed state (moments of
 * zero-gradient parameters decayed into the subnormals), plus one full
 * BdqLearner::trainStep().
 *
 * A second table times the 17 GEMM shapes of one fast-preset training
 * step (forward, dW and dX) in GMAC/s against the same reference
 * loops, and a fast-preset trainStep() row follows the paper-net one.
 * A third times the 5 ReLU-epilogue shapes (the fast preset's three,
 * the paper net's head and branch) bias-only, with ReLU and mask, and
 * with the evaluation passes' maskless ReLU; then the fast-preset
 * trainStep() is split into its forwards, backward and Adam step, and
 * its dX GEMMs are timed with and without packing B^T.
 *
 * Also checks bit-identity: the Adam kernel against
 * nn::reference::adamStep over the warm-up, each column-tail GEMM
 * against the same product on B zero-padded to whole 16-column tiles,
 * the strided (unpacked) A^T products against the row-major product
 * of an explicitly transposed copy, and the ReLU epilogue and
 * ReLU::backward against the seed's scalar `v > 0 ? v : 0` formula.
 *
 * Emits a human-readable table and machine-readable JSON
 * (BENCH_kernels.json, or --out PATH).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "core/twig_manager.hh"
#include "nn/adam.hh"
#include "nn/layers.hh"
#include "nn/matrix.hh"
#include "rl/bdq_learner.hh"
#include "sim/pmc.hh"

using namespace twig;
using nn::Matrix;

namespace {

/** One GEMM problem, in output terms: [m x k] * [k x n] -> [m x n]. */
struct Shape
{
    const char *name;
    std::size_t m, n, k;
};

// The layers of the paper-sized BDQ forward pass at minibatch 64, then
// the fast preset's (minibatch 32, two agents, 32-wide heads) narrow
// layers, where the n % 16 column tail is most of the work.
const Shape kShapes[] = {
    {"trunk1", 64, 512, 11},  // state -> first trunk layer
    {"trunk2", 64, 256, 512}, // trunk hidden
    {"head", 64, 128, 256},   // agent embedding head
    {"branch", 64, 128, 128}, // branch hidden (stacked embeds)
    {"advout", 64, 18, 128},  // advantage output (18 core actions)
    {"f_adv9", 64, 9, 32},    // fast: advantage output, 9 DVFS states
    {"f_adv18", 64, 18, 32},  // fast: advantage output, 18 cores
    {"f_value", 32, 1, 32},   // fast: state-value output
    {"f_agrad", 32, 9, 64},   // fast: DVFS advantage weight gradient
};

// The 17 GEMMs of one fast-preset training step (TwigConfig::fast, two
// services: minibatch 32, 2 x 11 state features, trunk 64, heads 32,
// branches of 18 and 9 actions; the branch modules run on the K*B = 64
// stacked rows). "fwd" is a Linear forward (C = x W + b), "dW" its
// weight-gradient accumulation (C += x^T dy, k = the batch rows), "dX"
// its input gradient (C = dy W^T); the first layer has no dX.
const Shape kFastStep[] = {
    {"fwd", 32, 64, 22}, {"fwd", 32, 32, 64}, {"fwd", 32, 1, 32},
    {"fwd", 64, 32, 32}, {"fwd", 64, 18, 32}, {"fwd", 64, 9, 32},
    {"dW", 22, 64, 32},  {"dW", 64, 32, 32},  {"dW", 32, 1, 32},
    {"dW", 32, 32, 64},  {"dW", 32, 18, 64},  {"dW", 32, 9, 64},
    {"dX", 32, 64, 32},  {"dX", 32, 32, 1},   {"dX", 64, 32, 32},
    {"dX", 64, 32, 18},  {"dX", 64, 32, 9},
};

double
nowUs()
{
    using namespace std::chrono;
    return static_cast<double>(
               duration_cast<nanoseconds>(
                   steady_clock::now().time_since_epoch())
                   .count()) /
        1000.0;
}

void
fillRandom(Matrix &m, common::Rng &rng)
{
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
}

/** Mean microseconds per call: best-of-3 trials of a calibrated batch. */
template <typename F>
double
timeUs(F &&f)
{
    f(); // warmup (sizes scratch, faults pages, resolves ifuncs)
    // Calibrate the repetition count to ~10 ms per trial.
    const double t0 = nowUs();
    f();
    const double once = std::max(nowUs() - t0, 0.01);
    const int reps = std::clamp(static_cast<int>(10000.0 / once), 3, 20000);

    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
        const double start = nowUs();
        for (int r = 0; r < reps; ++r)
            f();
        best = std::min(best, (nowUs() - start) / reps);
    }
    return best;
}

/**
 * Mean microseconds per call of each of @p fns: the best of 7 trials
 * of a calibrated batch (~5 ms), the trials of all of them
 * interleaved, so a slow stretch of a shared host hits every
 * measurement alike rather than one of them -- for figures that are
 * subtracted from each other.
 */
std::vector<double>
timeInterleavedUs(const std::vector<std::function<void()>> &fns)
{
    std::vector<int> reps;
    for (const auto &f : fns) {
        f();
        const double t0 = nowUs();
        f();
        const double once = std::max(nowUs() - t0, 0.01);
        reps.push_back(std::clamp(static_cast<int>(5000.0 / once), 3, 20000));
    }
    std::vector<double> best(fns.size(), 1e300);
    for (int trial = 0; trial < 7; ++trial) {
        for (std::size_t i = 0; i < fns.size(); ++i) {
            const double start = nowUs();
            for (int r = 0; r < reps[i]; ++r)
                fns[i]();
            best[i] = std::min(best[i], (nowUs() - start) / reps[i]);
        }
    }
    return best;
}

struct Row
{
    std::string shape;
    std::string op;
    std::size_t m, n, k;
    double tiledUs;
    double referenceUs;
    double speedup() const { return referenceUs / tiledUs; }
};

volatile float g_sink; // defeat dead-code elimination

Row
benchOp(const Shape &s, const char *op, common::Rng &rng)
{
    Matrix out;
    Row row{s.name, op, s.m, s.n, s.k, 0.0, 0.0};
    if (std::strcmp(op, "matmul") == 0) {
        Matrix a(s.m, s.k), b(s.k, s.n);
        fillRandom(a, rng);
        fillRandom(b, rng);
        row.tiledUs = timeUs([&] { nn::matmul(a, b, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmul(a, b, out); });
    } else if (std::strcmp(op, "transposeB") == 0) {
        Matrix a(s.m, s.k), b(s.n, s.k); // out = a * b^T
        fillRandom(a, rng);
        fillRandom(b, rng);
        row.tiledUs = timeUs([&] { nn::matmulTransposeB(a, b, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmulTransposeB(a, b, out); });
    } else {
        Matrix a(s.k, s.m), b(s.k, s.n); // out = a^T * b
        fillRandom(a, rng);
        fillRandom(b, rng);
        row.tiledUs = timeUs([&] { nn::matmulTransposeA(a, b, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmulTransposeA(a, b, out); });
    }
    g_sink = out(0, 0);
    return row;
}

/** One training-step GEMM, timed as the learner calls it. */
Row
benchStepGemm(const Shape &s, common::Rng &rng)
{
    Matrix out;
    Row row{s.name, "", s.m, s.n, s.k, 0.0, 0.0};
    const std::string op = s.name;
    if (op == "fwd") {
        Matrix x(s.m, s.k), w(s.k, s.n);
        fillRandom(x, rng);
        fillRandom(w, rng);
        const std::vector<float> bias(s.n, 0.5f);
        row.tiledUs = timeUs([&] { nn::matmulBias(x, w, bias, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmul(x, w, out); });
    } else if (op == "dW") {
        Matrix x(s.k, s.m), dy(s.k, s.n);
        fillRandom(x, rng);
        fillRandom(dy, rng);
        Matrix grad(s.m, s.n, 0.0f);
        row.tiledUs =
            timeUs([&] { nn::matmulTransposeAAccum(x, dy, grad); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmulTransposeA(x, dy, out); });
        out = grad;
    } else {
        Matrix dy(s.m, s.k), w(s.n, s.k);
        fillRandom(dy, rng);
        fillRandom(w, rng);
        row.tiledUs = timeUs([&] { nn::matmulTransposeB(dy, w, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmulTransposeB(dy, w, out); });
    }
    g_sink = out(0, 0);
    return row;
}

// The GEMMs that carry the bias+ReLU epilogue: the fast preset's trunk,
// agent-embedding and branch-hidden layers, then the paper net's head
// and branch layers.
const Shape kReluShapes[] = {
    {"f_trunk", 32, 64, 22},  {"f_embed", 32, 32, 64},
    {"f_hidden", 64, 32, 32}, {"head", 64, 128, 256},
    {"branch", 64, 128, 128},
};

/** Billions of multiply-adds per second of an m x n x k GEMM. */
double
gmacs(const Row &r, double us)
{
    return static_cast<double>(r.m * r.n * r.k) / us * 1e-3;
}

/**
 * Whether matmulTransposeA and matmulTransposeAAccum, which read A^T
 * through strides, match bit for bit the row-major product of an
 * explicitly transposed copy of A (plus the prior contents, for the
 * accumulating form).
 */
bool
stridedMatchesPacked(const Shape &s, common::Rng &rng)
{
    Matrix a(s.k, s.m), b(s.k, s.n), at(s.m, s.k), prior(s.m, s.n);
    fillRandom(a, rng);
    fillRandom(b, rng);
    fillRandom(prior, rng);
    for (std::size_t p = 0; p < s.k; ++p)
        for (std::size_t i = 0; i < s.m; ++i)
            at(i, p) = a(p, i);
    Matrix want, got, accum = prior;
    nn::matmul(at, b, want);
    nn::matmulTransposeA(a, b, got);
    nn::matmulTransposeAAccum(a, b, accum);
    bool ok = std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(float)) == 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const float sum = prior.data()[i] + want.data()[i];
        ok = ok && std::memcmp(&sum, accum.data() + i, sizeof sum) == 0;
    }
    return ok;
}

/**
 * Whether every GEMM entry point computes each column of an
 * n % 16 != 0 problem bit for bit as it does when B is zero-padded to
 * whole 16-column tiles (no tail): the padded column tail must sum the
 * same products in the same order as a full tile.
 */
bool
tailMatchesPadded(const Shape &s, common::Rng &rng)
{
    const std::size_t np = (s.n + 15) / 16 * 16;
    const auto firstCols = [&](const Matrix &padded, const Matrix &got) {
        for (std::size_t i = 0; i < got.rows(); ++i) {
            if (std::memcmp(padded.rowPtr(i), got.rowPtr(i),
                            got.cols() * sizeof(float)) != 0)
                return false;
        }
        return true;
    };
    Matrix a(s.m, s.k), b(s.k, s.n), bp(s.k, np, 0.0f);
    Matrix at(s.k, s.m), bt(s.n, s.k), btp(np, s.k, 0.0f);
    fillRandom(a, rng);
    fillRandom(b, rng);
    for (std::size_t p = 0; p < s.k; ++p) {
        for (std::size_t j = 0; j < s.n; ++j)
            bp(p, j) = btp(j, p) = bt(j, p) = b(p, j);
        for (std::size_t i = 0; i < s.m; ++i)
            at(p, i) = a(i, p);
    }
    Matrix got, padded;
    nn::matmul(a, b, got);
    nn::matmul(a, bp, padded);
    bool ok = firstCols(padded, got);
    nn::matmulTransposeB(a, bt, got);
    nn::matmulTransposeB(a, btp, padded);
    ok = ok && firstCols(padded, got);
    nn::matmulTransposeA(at, b, got);
    nn::matmulTransposeA(at, bp, padded);
    return ok && firstCols(padded, got);
}

/** One ReLU-epilogue shape: the same GEMM with each epilogue. */
struct ReluRow
{
    Shape shape;
    double biasUs = 0.0;     ///< matmulBias
    double reluUs = 0.0;     ///< matmulBiasRelu, mask written (train)
    double reluEvalUs = 0.0; ///< matmulBiasRelu, no mask (evaluation)
};

ReluRow
benchRelu(const Shape &s, common::Rng &rng)
{
    Matrix x(s.m, s.k), w(s.k, s.n), out(s.m, s.n);
    fillRandom(x, rng);
    fillRandom(w, rng);
    std::vector<float> bias(s.n);
    for (auto &b : bias)
        b = static_cast<float>(rng.uniform() - 0.5);
    std::vector<unsigned char> mask;
    ReluRow row{s};
    row.biasUs = timeUs([&] { nn::matmulBias(x, w, bias, out); });
    row.reluUs =
        timeUs([&] { nn::matmulBiasRelu(x, w, bias, out, mask); });
    row.reluEvalUs =
        timeUs([&] { nn::matmulBiasRelu(x, w, bias, out, nullptr); });
    g_sink = out(0, 0);
    return row;
}

/**
 * Whether the bias+ReLU epilogue (with and without its mask) and
 * ReLU::backward (out of place and in place) match the seed's scalar
 * formulas bit for bit on @p s, with exact-zero, NaN, infinite and
 * subnormal pre-activations and gradients mixed in, and every mask
 * byte exactly 0 or 1.
 */
bool
reluMatchesScalar(const Shape &s, common::Rng &rng)
{
    const float specials[] = {0.0f, -0.0f, std::nanf(""), INFINITY,
                              -INFINITY, 1e-40f, -1e-40f};
    Matrix x(s.m, s.k), w(s.k, s.n);
    fillRandom(x, rng);
    fillRandom(w, rng);
    for (std::size_t p = 0; p < s.k; ++p)
        x(0, p) = 0.0f; // row 0: pre-activation = bias
    std::vector<float> bias(s.n);
    for (std::size_t j = 0; j < s.n; ++j)
        bias[j] = j % 3 == 0 ? specials[(j / 3) % 7]
                             : static_cast<float>(rng.uniform() - 0.5);
    Matrix pre, got, evalOut(s.m, s.n);
    std::vector<unsigned char> mask;
    nn::matmulBias(x, w, bias, pre);
    nn::matmulBiasRelu(x, w, bias, got, mask);
    nn::matmulBiasRelu(x, w, bias, evalOut, nullptr);
    bool ok = std::memcmp(got.data(), evalOut.data(),
                          got.size() * sizeof(float)) == 0;
    Matrix dy(s.m, s.n), want(s.m, s.n), dx;
    fillRandom(dy, rng);
    for (std::size_t i = 0; i < pre.size(); ++i) {
        const float v = pre.data()[i];
        const float relu = v > 0.0f ? v : 0.0f;
        ok = ok && std::memcmp(&relu, got.data() + i, sizeof relu) == 0 &&
            mask[i] == (v > 0.0f ? 1 : 0);
        if (i % 5 == 0)
            dy.data()[i] = specials[(i / 5) % 7];
        want.data()[i] = v > 0.0f ? dy.data()[i] : 0.0f;
    }
    nn::ReLU relu;
    relu.forward(pre, got);
    relu.backward(dy, dx);
    ok = ok && std::memcmp(dx.data(), want.data(),
                           want.size() * sizeof(float)) == 0;
    relu.backward(dy, dy);
    return ok && std::memcmp(dy.data(), want.data(),
                             want.size() * sizeof(float)) == 0;
}

/** The warmed Adam measurement. */
struct AdamRow
{
    std::size_t params = 0;
    double zeroGradPct = 0.0;    ///< gradients exactly 0, timed phase
    double subnormalMPct = 0.0;  ///< first moments subnormal after warm-up
    double kernelNs = 0.0;       ///< per parameter per step
    double referenceNs = 0.0;
    bool bitwiseEqual = false;   ///< kernel == reference over the warm-up
    double speedup() const { return referenceNs / kernelNs; }
};

/**
 * nn::adamStep vs the seed's scalar loop on one 16K-parameter tensor
 * whose state has been warmed for 1000 steps. Half the parameters stop
 * receiving gradient early in the warm-up (dead units), and 10% of the
 * rest get an exact zero each step, so by the timed phase the dead
 * units' first moments are subnormal -- the state a fresh learner
 * (and the trainStep row) never reaches.
 */
AdamRow
benchAdam(std::uint64_t seed)
{
    constexpr std::size_t kParams = 16384;
    constexpr std::size_t kWarmSteps = 1000;
    constexpr std::size_t kGradSets = 8;
    common::Rng rng(seed);
    std::vector<std::size_t> dies_at(kParams);
    for (auto &d : dies_at)
        d = rng.uniform() < 0.5 ? rng.uniformInt(200)
                                : std::size_t{1} << 40;
    const auto gradient = [&](std::size_t i, std::size_t step) {
        if (step >= dies_at[i] || rng.uniform() < 0.1)
            return 0.0f;
        return static_cast<float>(rng.normal(0.0, 0.01));
    };

    std::vector<float> w(kParams), m(kParams, 0.0f), v(kParams, 0.0f);
    for (auto &x : w)
        x = static_cast<float>(rng.uniform(-0.1, 0.1));
    std::vector<float> w_ref = w, m_ref = m, v_ref = v, g(kParams);
    const nn::AdamConfig cfg;
    AdamRow row;
    row.params = kParams;
    row.bitwiseEqual = true;
    for (std::size_t t = 1; t <= kWarmSteps; ++t) {
        for (std::size_t i = 0; i < kParams; ++i)
            g[i] = gradient(i, t);
        nn::adamStep(cfg, t, kParams, g.data(), w.data(), m.data(),
                     v.data());
        nn::reference::adamStep(cfg, t, kParams, g.data(), w_ref.data(),
                                m_ref.data(), v_ref.data());
        row.bitwiseEqual = row.bitwiseEqual &&
            std::memcmp(w.data(), w_ref.data(), kParams * 4) == 0 &&
            std::memcmp(m.data(), m_ref.data(), kParams * 4) == 0 &&
            std::memcmp(v.data(), v_ref.data(), kParams * 4) == 0;
    }
    std::size_t subnormal = 0;
    for (float x : m)
        subnormal += std::fpclassify(x) == FP_SUBNORMAL ? 1 : 0;
    row.subnormalMPct = 100.0 * static_cast<double>(subnormal) / kParams;

    // Timed phase: cycle through a few fixed gradient sets drawn the
    // same way (drawing inside the timed loop would dominate it).
    std::vector<std::vector<float>> sets(kGradSets,
                                         std::vector<float>(kParams));
    std::size_t zeros = 0;
    for (auto &set : sets) {
        for (std::size_t i = 0; i < kParams; ++i) {
            set[i] = gradient(i, kWarmSteps);
            zeros += set[i] == 0.0f ? 1 : 0;
        }
    }
    row.zeroGradPct =
        100.0 * static_cast<double>(zeros) / (kGradSets * kParams);
    std::size_t t = kWarmSteps, t_ref = kWarmSteps;
    const double per_param = 1000.0 / kParams;
    row.kernelNs = per_param * timeUs([&] {
        ++t;
        nn::adamStep(cfg, t, kParams, sets[t % kGradSets].data(), w.data(),
                     m.data(), v.data());
    });
    row.referenceNs = per_param * timeUs([&] {
        ++t_ref;
        nn::reference::adamStep(cfg, t_ref, kParams,
                                sets[t_ref % kGradSets].data(),
                                w_ref.data(), m_ref.data(), v_ref.data());
    });
    g_sink = w[0] + w_ref[0];
    return row;
}

/** Paper-sized learner (§IV) at minibatch 64. */
rl::BdqLearnerConfig
paperLearner()
{
    rl::BdqLearnerConfig cfg;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = 6;
    cfg.net.trunkHidden = {512, 256};
    cfg.net.agentHeadHidden = 128;
    cfg.net.branchHidden = 128;
    cfg.net.branchActions = {18, 10}; // cores, DVFS states
    cfg.net.dropoutRate = 0.0f;
    cfg.minibatch = 64;
    return cfg;
}

/** The fast preset's learner as TwigManager sizes it for two services
 * on the 18-core machine (the kFastStep shapes). */
rl::BdqLearnerConfig
fastLearner()
{
    rl::BdqLearnerConfig cfg = core::TwigConfig::fast(2000).learner;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = sim::kNumPmcs;
    cfg.net.branchActions = {18, 9};
    return cfg;
}

/** A learner of @p cfg with 256 transitions in its replay. */
std::unique_ptr<rl::BdqLearner>
filledLearner(rl::BdqLearnerConfig cfg, std::uint64_t seed)
{
    cfg.replay.capacity = 4096;
    cfg.minReplayBeforeTraining = 64;
    const std::size_t cores = cfg.net.branchActions[0];
    const std::size_t dvfs = cfg.net.branchActions[1];

    common::Rng rng(seed);
    auto learner = std::make_unique<rl::BdqLearner>(cfg, rng);
    common::Rng env(seed + 1);
    for (int i = 0; i < 256; ++i) {
        rl::Transition t;
        for (std::size_t d = 0; d < cfg.net.inputDim(); ++d)
            t.state.push_back(static_cast<float>(env.uniform()));
        t.nextState = t.state;
        for (std::size_t k = 0; k < cfg.net.numAgents; ++k) {
            t.actions.push_back(
                {env.uniformInt(cores), env.uniformInt(dvfs)});
            t.rewards.push_back(env.uniform());
        }
        learner->observe(t);
    }
    return learner;
}

/** One trainStep() of @p cfg's learner, replay pre-filled. */
double
benchTrainStep(const rl::BdqLearnerConfig &cfg, std::uint64_t seed)
{
    auto learner = filledLearner(cfg, seed);
    return timeUs([&] { learner->trainStep(); });
}

/**
 * The parts of one fast-preset trainStep(), each timed through the
 * online network's public calls as the step makes them: two
 * evaluation forwards (online and target net on the next states), the
 * train forward, backward and Adam. "other" is the rest of the step
 * (replay sampling, TD targets, priorities): the whole step less the
 * parts.
 */
struct StepSplit
{
    double stepUs = 0.0;
    double evalForwardUs = 0.0; ///< one of the two
    double trainForwardUs = 0.0;
    double backwardUs = 0.0;
    double adamUs = 0.0;
    double otherUs() const
    {
        return stepUs - 2.0 * evalForwardUs - trainForwardUs - backwardUs -
            adamUs;
    }
};

StepSplit
benchStepSplit(const rl::BdqLearnerConfig &cfg, std::uint64_t seed)
{
    auto learner = filledLearner(cfg, seed);
    nn::MultiAgentBdq &net = learner->onlineNetwork();
    common::Rng rng(seed + 2);
    Matrix x(cfg.minibatch, cfg.net.inputDim());
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform());
    // One Huber-clipped TD gradient per agent, branch and row, on the
    // replayed action, as the step builds dq.
    std::vector<std::vector<Matrix>> dq(cfg.net.numAgents);
    for (auto &per_agent : dq) {
        for (std::size_t n : cfg.net.branchActions) {
            per_agent.emplace_back(cfg.minibatch, n, 0.0f);
            for (std::size_t i = 0; i < cfg.minibatch; ++i)
                per_agent.back()(i, rng.uniformInt(n)) =
                    static_cast<float>(rng.uniform() - 0.5) * 0.01f;
        }
    }
    // The timed loops repeat a call thousands of times. Each flips the
    // sign of dq, so the accumulated gradient and the weights oscillate
    // instead of drifting into overflow; Adam runs after a fresh
    // backward each time, as in the step (Adam steps on the zeroed
    // gradient alone would decay the moments into the subnormals).
    const auto flip = [&dq] {
        for (auto &per_agent : dq)
            for (auto &m : per_agent)
                m.scaleInPlace(-1.0f);
    };
    // Backward and Adam are timed behind the train forward that they
    // need and then less it, as the step runs them.
    nn::BdqOutput out;
    const std::vector<double> us = timeInterleavedUs({
        [&] { learner->trainStep(); },
        [&] { net.forward(x, out, false); },
        [&] { net.forward(x, out, true); },
        [&] {
            net.forward(x, out, true);
            flip();
            net.backward(dq);
        },
        [&] {
            net.forward(x, out, true);
            flip();
            net.backward(dq);
            net.adamStep();
        },
    });
    StepSplit split;
    split.stepUs = us[0];
    split.evalForwardUs = us[1];
    split.trainForwardUs = us[2];
    split.backwardUs = us[3] - us[2];
    split.adamUs = us[4] - us[3];
    return split;
}

/** The fast-preset step's dX GEMMs (dy W^T), summed: as the step runs
 * them, packing W^T per call, and on a W^T packed beforehand. */
struct PackRow
{
    double packedPerCallUs = 0.0;
    double preTransposedUs = 0.0;
};

PackRow
benchDxPack(common::Rng &rng)
{
    PackRow row;
    for (const auto &s : kFastStep) {
        if (std::strcmp(s.name, "dX") != 0)
            continue;
        Matrix dy(s.m, s.k), w(s.n, s.k), wt(s.k, s.n), out;
        fillRandom(dy, rng);
        fillRandom(w, rng);
        for (std::size_t j = 0; j < s.n; ++j)
            for (std::size_t p = 0; p < s.k; ++p)
                wt(p, j) = w(j, p);
        row.packedPerCallUs +=
            timeUs([&] { nn::matmulTransposeB(dy, w, out); });
        row.preTransposedUs += timeUs([&] { nn::matmul(dy, wt, out); });
        g_sink = out(0, 0);
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv, {"--out"});
    std::string out_path = "BENCH_kernels.json";
    if (auto it = args.extra.find("--out"); it != args.extra.end())
        out_path = it->second;

    bench::banner("Kernel microbenchmark: tiled GEMM vs seed naive "
                  "loops (BDQ shapes, batch 64)");
    common::Rng rng(args.seed);

    std::vector<Row> rows;
    std::printf("%-8s %-11s %18s %13s %13s %9s\n", "shape", "op",
                "m x n x k", "tiled(us)", "naive(us)", "speedup");
    for (const auto &s : kShapes) {
        for (const char *op : {"matmul", "transposeB", "transposeA"}) {
            rows.push_back(benchOp(s, op, rng));
            const Row &r = rows.back();
            std::printf("%-8s %-11s %6zu x %4zu x %4zu %13.1f %13.1f "
                        "%8.2fx\n",
                        r.shape.c_str(), r.op.c_str(), r.m, r.n, r.k,
                        r.tiledUs, r.referenceUs, r.speedup());
        }
    }

    bool tail_equal = true;
    for (const auto &s : kShapes) {
        if (s.n % 16 != 0)
            tail_equal = tail_equal && tailMatchesPadded(s, rng);
    }
    std::printf("\ncolumn-tail GEMMs bit-identical to zero-padded full "
                "tiles: %s\n",
                tail_equal ? "yes" : "NO");

    bool strided_equal = true;
    for (const auto &s : kShapes)
        strided_equal = strided_equal && stridedMatchesPacked(s, rng);
    for (const auto &s : kFastStep)
        strided_equal = strided_equal && stridedMatchesPacked(s, rng);
    std::printf("strided A^T GEMMs bit-identical to the product of a "
                "transposed copy: %s\n",
                strided_equal ? "yes" : "NO");

    std::printf("\nfast-preset training step: its 17 GEMM shapes\n");
    std::printf("%-5s %18s %11s %9s %13s %9s %9s\n", "op", "m x n x k",
                "tiled(us)", "GMAC/s", "naive(us)", "GMAC/s", "speedup");
    std::vector<Row> step_rows;
    for (const auto &s : kFastStep) {
        step_rows.push_back(benchStepGemm(s, rng));
        const Row &r = step_rows.back();
        std::printf("%-5s %6zu x %4zu x %4zu %11.2f %9.2f %13.2f %9.2f "
                    "%8.2fx\n",
                    r.shape.c_str(), r.m, r.n, r.k, r.tiledUs,
                    gmacs(r, r.tiledUs), r.referenceUs,
                    gmacs(r, r.referenceUs), r.speedup());
    }

    std::printf("\nReLU epilogue: the same GEMM bias-only, with ReLU "
                "and mask (train), with ReLU only (evaluation)\n");
    std::printf("%-9s %18s %10s %10s %10s %10s\n", "shape", "m x n x k",
                "bias(us)", "relu(us)", "eval(us)", "relu/bias");
    std::vector<ReluRow> relu_rows;
    for (const auto &s : kReluShapes) {
        relu_rows.push_back(benchRelu(s, rng));
        const ReluRow &r = relu_rows.back();
        std::printf("%-9s %6zu x %4zu x %4zu %10.2f %10.2f %10.2f "
                    "%9.2fx\n",
                    s.name, s.m, s.n, s.k, r.biasUs, r.reluUs,
                    r.reluEvalUs, r.reluUs / r.biasUs);
    }
    bool relu_equal = true;
    for (const auto &s : kReluShapes)
        relu_equal = relu_equal && reluMatchesScalar(s, rng);
    for (const Shape s : {Shape{"tails", 13, 21, 5}, Shape{"one", 1, 1, 1},
                          Shape{"rows7", 7, 33, 9}})
        relu_equal = relu_equal && reluMatchesScalar(s, rng);
    std::printf("ReLU epilogue and ReLU::backward bit-identical to the "
                "scalar formula: %s\n",
                relu_equal ? "yes" : "NO");

    const AdamRow adam = benchAdam(args.seed);
    std::printf("\nAdam, %zu params warmed 1000 steps (%.0f%% zero "
                "gradients, %.0f%% of m subnormal): kernel %.2f ns/param, "
                "seed loop %.2f ns/param, %.2fx; bit-identical: %s\n",
                adam.params, adam.zeroGradPct, adam.subnormalMPct,
                adam.kernelNs, adam.referenceNs, adam.speedup(),
                adam.bitwiseEqual ? "yes" : "NO");

    const double train_us = benchTrainStep(paperLearner(), args.seed);
    std::printf("\nBdqLearner::trainStep (paper net, batch 64): "
                "%.1f us\n",
                train_us);
    const double fast_train_us = benchTrainStep(fastLearner(), args.seed);
    std::printf("BdqLearner::trainStep (fast preset, batch 32): "
                "%.1f us\n",
                fast_train_us);
    const StepSplit split = benchStepSplit(fastLearner(), args.seed);
    std::printf("  split: 2 x eval forward %.1f us, train forward %.1f "
                "us, backward %.1f us, Adam %.1f us (%.0f%%), other "
                "%.1f us, of %.1f us\n",
                split.evalForwardUs, split.trainForwardUs,
                split.backwardUs, split.adamUs,
                100.0 * split.adamUs / split.stepUs, split.otherUs(),
                split.stepUs);
    const PackRow pack = benchDxPack(rng);
    std::printf("  dX GEMMs: %.2f us packing W^T per call, %.2f us on a "
                "pre-transposed W\n",
                pack.packedPerCallUs, pack.preTransposedUs);

    double log_sum = 0.0;
    double min_speedup = 1e300;
    for (const Row &r : rows) {
        log_sum += std::log(r.speedup());
        min_speedup = std::min(min_speedup, r.speedup());
    }
    const double geomean =
        std::exp(log_sum / static_cast<double>(rows.size()));
    std::printf("speedup over the seed kernels: geomean %.2fx, "
                "min %.2fx\n",
                geomean, min_speedup);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"unit\": \"us\",\n  \"batch\": 64,\n"
                    "  \"kernels\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f,
                     "    {\"shape\": \"%s\", \"op\": \"%s\", "
                     "\"m\": %zu, \"n\": %zu, \"k\": %zu, "
                     "\"tiled_us\": %.3f, \"reference_us\": %.3f, "
                     "\"speedup\": %.3f}%s\n",
                     r.shape.c_str(), r.op.c_str(), r.m, r.n, r.k,
                     r.tiledUs, r.referenceUs, r.speedup(),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"fast_step_gemms\": [\n");
    for (std::size_t i = 0; i < step_rows.size(); ++i) {
        const Row &r = step_rows[i];
        std::fprintf(f,
                     "    {\"op\": \"%s\", \"m\": %zu, \"n\": %zu, "
                     "\"k\": %zu, \"tiled_us\": %.3f, "
                     "\"reference_us\": %.3f, \"tiled_gmacs\": %.3f, "
                     "\"reference_gmacs\": %.3f}%s\n",
                     r.shape.c_str(), r.m, r.n, r.k, r.tiledUs,
                     r.referenceUs, gmacs(r, r.tiledUs),
                     gmacs(r, r.referenceUs),
                     i + 1 < step_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"relu_epilogue\": [\n");
    for (std::size_t i = 0; i < relu_rows.size(); ++i) {
        const ReluRow &r = relu_rows[i];
        std::fprintf(f,
                     "    {\"shape\": \"%s\", \"m\": %zu, \"n\": %zu, "
                     "\"k\": %zu, \"bias_us\": %.3f, \"relu_us\": %.3f, "
                     "\"relu_eval_us\": %.3f}%s\n",
                     r.shape.name, r.shape.m, r.shape.n, r.shape.k,
                     r.biasUs, r.reluUs, r.reluEvalUs,
                     i + 1 < relu_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"fast_train_step_split_us\": {\"step\": %.3f, "
                 "\"eval_forward\": %.3f, \"train_forward\": %.3f, "
                 "\"backward\": %.3f, \"adam\": %.3f, \"other\": %.3f},\n"
                 "  \"fast_dx_gemms_us\": {\"pack_per_call\": %.3f, "
                 "\"pre_transposed\": %.3f},\n",
                 split.stepUs, split.evalForwardUs, split.trainForwardUs,
                 split.backwardUs, split.adamUs, split.otherUs(),
                 pack.packedPerCallUs, pack.preTransposedUs);
    std::fprintf(f,
                 "  \"adam\": {\"params\": %zu, "
                 "\"warm_steps\": 1000, \"zero_grad_pct\": %.1f, "
                 "\"subnormal_m_pct\": %.1f, \"kernel_ns_per_param\": "
                 "%.3f, \"reference_ns_per_param\": %.3f, "
                 "\"speedup\": %.3f},\n"
                 "  \"adam_bitwise_equal\": %s,\n"
                 "  \"gemm_tail_bitwise_equal\": %s,\n"
                 "  \"gemm_strided_bitwise_equal\": %s,\n"
                 "  \"relu_epilogue_bitwise_equal\": %s,\n"
                 "  \"train_step_us\": %.3f,\n"
                 "  \"fast_train_step_us\": %.3f,\n"
                 "  \"geomean_speedup\": %.3f,\n"
                 "  \"min_speedup\": %.3f\n}\n",
                 adam.params, adam.zeroGradPct, adam.subnormalMPct,
                 adam.kernelNs, adam.referenceNs, adam.speedup(),
                 adam.bitwiseEqual ? "true" : "false",
                 tail_equal ? "true" : "false",
                 strided_equal ? "true" : "false",
                 relu_equal ? "true" : "false", train_us, fast_train_us,
                 geomean,
                 min_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
