/**
 * @file
 * Bitwise tests of the Adam kernel (nn::adamStep) against the seed's
 * scalar loop (nn::reference::adamStep): parameters and both moments
 * must match bit for bit (memcmp, not FLOAT_EQ) on adversarial state --
 * signed zeros, subnormal g, m, v and w, values at the kernel's lane
 * class thresholds, long stretches of zero gradient -- and the kernel
 * must hand the caller back the floating-point environment it got.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "common/rng.hh"
#include "nn/adam.hh"
#include "rl/bdq_learner.hh"

using namespace twig;
using nn::AdamConfig;

namespace {

float
fromBits(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

std::uint32_t
toBits(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    return bits;
}

/**
 * A value drawn to stress the kernel: signed zeros, subnormals (down to
 * the smallest), normals at the fast path's class thresholds (2^-126,
 * 2^-125, 2^-100, 2^-50) and ordinary values of magnitude @p scale.
 */
float
adversarial(common::Rng &rng, double scale)
{
    const std::uint32_t sign = rng.uniformInt(2) != 0 ? 0x80000000u : 0u;
    switch (rng.uniformInt(8)) {
    case 0:
        return fromBits(sign);
    case 1: // any subnormal
        return fromBits(sign | static_cast<std::uint32_t>(
                                   1 + rng.uniformInt(0x7fffff)));
    case 2: // the smallest subnormals, where RN(0.9 m) == m
        return fromBits(sign | static_cast<std::uint32_t>(
                                   1 + rng.uniformInt(16)));
    case 3: { // around a threshold exponent
        static const int kExponents[] = {-127, -126, -125, -124, -101,
                                         -100, -99,  -51,  -50,  -49};
        const int e = kExponents[rng.uniformInt(10)];
        const std::uint32_t mant =
            rng.uniformInt(2) != 0
                ? 0u
                : static_cast<std::uint32_t>(rng.uniformInt(0x800000));
        return fromBits(sign |
                        (static_cast<std::uint32_t>(e + 127) << 23) | mant);
    }
    default:
        return static_cast<float>(rng.uniform(-scale, scale));
    }
}

/** Parameters and moments of one tensor. */
struct AdamState
{
    std::vector<float> w, m, v;
};

::testing::AssertionResult
bitEqual(const AdamState &got, const AdamState &want)
{
    const struct
    {
        const char *name;
        const std::vector<float> &got, &want;
    } arrays[] = {{"w", got.w, want.w}, {"m", got.m, want.m},
                  {"v", got.v, want.v}};
    for (const auto &a : arrays) {
        if (std::memcmp(a.got.data(), a.want.data(),
                        a.got.size() * sizeof(float)) == 0)
            continue;
        std::size_t i = 0;
        while (toBits(a.got[i]) == toBits(a.want[i]))
            ++i;
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "%s[%zu]: kernel 0x%08x (%a), reference 0x%08x (%a)",
                      a.name, i, toBits(a.got[i]), a.got[i],
                      toBits(a.want[i]), a.want[i]);
        return ::testing::AssertionFailure() << msg;
    }
    return ::testing::AssertionSuccess();
}

/**
 * Run kernel and reference side by side for @p steps steps from the
 * same adversarial state and gradients, comparing bit patterns after
 * every step. Returns the number of (step, parameter) pairs whose
 * reference first moment was subnormal with a zero gradient -- the
 * case the fast path exists for -- so callers can check they were hit.
 */
std::size_t
runDifferential(const AdamConfig &cfg, std::size_t n, std::size_t t0,
                std::size_t steps, std::uint64_t seed)
{
    common::Rng rng(seed);
    AdamState fast;
    for (std::size_t i = 0; i < n; ++i) {
        fast.w.push_back(adversarial(rng, 1.0));
        fast.m.push_back(adversarial(rng, 1e-2));
        fast.v.push_back(std::fabs(adversarial(rng, 1e-4)));
    }
    AdamState ref = fast;
    // Units toggle between live and dead (gradient exactly +-0) in
    // long stretches, so moments decay into and through the subnormals.
    std::vector<bool> dead(n);
    for (std::size_t i = 0; i < n; ++i)
        dead[i] = rng.uniform() < 0.5;

    std::vector<float> g(n);
    std::size_t subnormal_decays = 0;
    for (std::size_t s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.uniform() < 0.01)
                dead[i] = !dead[i];
            if (dead[i]) {
                g[i] = rng.uniformInt(8) == 0 ? -0.0f : 0.0f;
            } else {
                g[i] = rng.uniformInt(4) == 0 ? adversarial(rng, 1.0)
                                              : static_cast<float>(
                                                    rng.normal(0.0, 0.1));
            }
            const std::uint32_t mbits = toBits(ref.m[i]) & 0x7fffffffu;
            if (g[i] == 0.0f && mbits != 0 && mbits < 0x00800000u)
                ++subnormal_decays;
            // Now and then re-seed one slot with an adversarial value
            // (identically in both copies) so rare classes recur.
            if (rng.uniform() < 0.002) {
                const float x = adversarial(rng, 1e-3);
                switch (rng.uniformInt(3)) {
                case 0:
                    fast.w[i] = ref.w[i] = x;
                    break;
                case 1:
                    fast.m[i] = ref.m[i] = x;
                    break;
                default:
                    fast.v[i] = ref.v[i] = std::fabs(x);
                    break;
                }
            }
        }
        nn::adamStep(cfg, t0 + s, n, g.data(), fast.w.data(),
                     fast.m.data(), fast.v.data());
        nn::reference::adamStep(cfg, t0 + s, n, g.data(), ref.w.data(),
                                ref.m.data(), ref.v.data());
        const auto eq = bitEqual(fast, ref);
        EXPECT_TRUE(eq) << "step " << t0 + s << ", n " << n << ", lr "
                        << cfg.learningRate;
        if (!eq)
            break;
    }
    return subnormal_decays;
}

} // namespace

TEST(AdamKernel, BitIdenticalToReferenceOnAdversarialState)
{
    std::size_t subnormal_decays = 0;
    for (const float lr : {1e-6f, 0.005f, 0.5f}) {
        AdamConfig cfg;
        cfg.learningRate = lr;
        // Lengths below, at and past the 8-lane width, none a multiple
        // of 8 except 64.
        for (const std::size_t n : {1, 3, 7, 9, 17, 64, 203}) {
            subnormal_decays +=
                runDifferential(cfg, n, 1, 1000, 17 * n + 1);
            // Late steps: the bias corrections round to 1.
            subnormal_decays +=
                runDifferential(cfg, n, 1000000, 200, 31 * n + 5);
        }
    }
    // The state must actually have reached the subnormal regime the
    // fast path's decay lanes exist for.
    EXPECT_GT(subnormal_decays, 10000u);
}

TEST(AdamKernel, BitIdenticalForOtherBetas)
{
    // beta1 = 0.5 makes RN(beta1 m) a tie for every odd subnormal m,
    // which the decay lanes must round to even; the others stress the
    // thresholds from both sides of the default.
    for (const float beta1 : {0.5f, 0.75f, 0.99f}) {
        AdamConfig cfg;
        cfg.beta1 = beta1;
        cfg.beta2 = beta1 == 0.5f ? 0.5f : 0.9999f;
        runDifferential(cfg, 203, 1, 300, 7);
    }
}

TEST(AdamKernel, DecayRoundingMatchesOnEverySmallSubnormal)
{
    // g = +-0 with every subnormal m of magnitude below 2^16 ulps (and
    // a sample of the rest): the exact-emulation path against the
    // scalar loop, one step each, with a weight that takes the decay
    // lane (|w| = 1) and one that does not (|w| = 2^-107).
    common::Rng rng(3);
    for (const float beta1 : {0.9f, 0.5f}) {
        AdamConfig cfg;
        cfg.beta1 = beta1;
        AdamState fast;
        std::vector<float> g;
        for (std::uint32_t k = 0; k < (1u << 16) + 4096; ++k) {
            const std::uint32_t mag =
                k < (1u << 16)
                    ? k
                    : static_cast<std::uint32_t>(rng.uniformInt(1u << 24));
            const std::uint32_t sign = (k & 1) ? 0x80000000u : 0u;
            fast.m.push_back(fromBits(sign | mag));
            g.push_back((k & 2) ? -0.0f : 0.0f);
            fast.v.push_back((k & 4) ? 0.0f : 1e-6f);
            fast.w.push_back((k & 8) ? fromBits(0x0a000000u | (k & 1) << 31)
                                     : ((k & 1) ? -1.0f : 1.0f));
        }
        AdamState ref = fast;
        nn::adamStep(cfg, 3, g.size(), g.data(), fast.w.data(),
                     fast.m.data(), fast.v.data());
        nn::reference::adamStep(cfg, 3, g.size(), g.data(), ref.w.data(),
                                ref.m.data(), ref.v.data());
        EXPECT_TRUE(bitEqual(fast, ref)) << "beta1 " << beta1;
    }
}

TEST(AdamKernel, BitIdenticalAtTheLaneClassBoundaries)
{
    // Every combination of values on both sides of the fast path's
    // class thresholds, one step, laid out so each 8-lane block mixes
    // classes: zero or tiny gradients, first moments around 2^-126 and
    // 2^-125, second moments from 0 to 10^4 (a large v makes the update
    // of a tiny m underflow), weights from +-0 through the decay-lane
    // bound to 1.
    const float kG[] = {0.0f, -0.0f, 0x1p-50f, 0x1p-51f, 1e-3f, -0.5f};
    const float kM[] = {0.0f,       -0.0f,        0x1p-149f,
                        -0x5p-149f, 0x1.8p-127f,  0x1p-126f,
                        -0x1.fp-126f, 0x1p-125f, -0x1p-124f,
                        1e-3f};
    const float kV[] = {0.0f, 0x1p-126f, 0x1p-125f, 1e-8f, 1.0f, 1e4f};
    const float kW[] = {0.0f,     -0.0f,      0x1p-140f, 0x1p-101f,
                        0x1p-100f, -0x1p-85f, 0x1p-60f,  1e-20f,
                        -1.0f};
    for (const float lr : {1e-6f, 0.005f, 0.5f}) {
        for (const std::size_t t : {1u, 1000000u}) {
            AdamConfig cfg;
            cfg.learningRate = lr;
            AdamState fast;
            std::vector<float> g;
            for (const float gv : kG)
                for (const float mv : kM)
                    for (const float vv : kV)
                        for (const float wv : kW) {
                            g.push_back(gv);
                            fast.m.push_back(mv);
                            fast.v.push_back(vv);
                            fast.w.push_back(wv);
                        }
            AdamState ref = fast;
            nn::adamStep(cfg, t, g.size(), g.data(), fast.w.data(),
                         fast.m.data(), fast.v.data());
            nn::reference::adamStep(cfg, t, g.size(), g.data(),
                                    ref.w.data(), ref.m.data(),
                                    ref.v.data());
            EXPECT_TRUE(bitEqual(fast, ref)) << "lr " << lr << ", t " << t;
        }
    }
}

#if defined(__SSE__)

namespace {

/** A learner small enough to train in a test. */
rl::BdqLearner
smallLearner(common::Rng &rng)
{
    rl::BdqLearnerConfig cfg;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = 3;
    cfg.net.trunkHidden = {24};
    cfg.net.agentHeadHidden = 12;
    cfg.net.branchHidden = 12;
    cfg.net.branchActions = {4, 3};
    cfg.net.dropoutRate = 0.0f;
    cfg.minibatch = 16;
    cfg.minReplayBeforeTraining = 16;
    rl::BdqLearner learner(cfg, rng);
    common::Rng env(5);
    for (int i = 0; i < 32; ++i) {
        rl::Transition t;
        for (int d = 0; d < 6; ++d)
            t.state.push_back(static_cast<float>(env.uniform()));
        t.nextState = t.state;
        t.actions = {{env.uniformInt(4), env.uniformInt(3)},
                     {env.uniformInt(4), env.uniformInt(3)}};
        t.rewards = {env.uniform(), env.uniform()};
        learner.observe(t);
    }
    return learner;
}

/** Restores the MXCSR a test found, whatever the test did to it. */
class MxcsrGuard
{
  public:
    MxcsrGuard() : saved_(_mm_getcsr()) {}
    ~MxcsrGuard() { _mm_setcsr(saved_); }

  private:
    unsigned saved_;
};

constexpr unsigned kMxcsrDefault = 0x1f80; // all masked, RN, no flush
constexpr unsigned kMxcsrAllFlags = 0x3f;  // sticky exception flags
constexpr unsigned kMxcsrFtzDaz = 0x8040;

} // namespace

TEST(AdamKernel, LeavesMxcsrUnchanged)
{
    MxcsrGuard guard;
    common::Rng rng(11);
    AdamState s;
    std::vector<float> g;
    for (int i = 0; i < 333; ++i) {
        g.push_back(i % 3 == 0 ? 0.0f : adversarial(rng, 1.0));
        s.w.push_back(adversarial(rng, 1.0));
        s.m.push_back(adversarial(rng, 1e-3));
        s.v.push_back(std::fabs(adversarial(rng, 1e-4)));
    }
    // With every sticky exception flag raised up front, any exit path
    // that leaves the kernel's own FTZ/DAZ mode behind (or drops the
    // caller's flags) shows up as a changed register.
    const unsigned before = kMxcsrDefault | kMxcsrAllFlags;
    _mm_setcsr(before);
    for (std::size_t t = 1; t <= 20; ++t)
        nn::adamStep(AdamConfig{}, t, g.size(), g.data(), s.w.data(),
                     s.m.data(), s.v.data());
    const unsigned after = _mm_getcsr();
    EXPECT_EQ(after, before);
}

TEST(AdamKernel, TrainStepLeavesMxcsrUnchanged)
{
    MxcsrGuard guard;
    common::Rng rng(13);
    rl::BdqLearner learner = smallLearner(rng);
    const unsigned before = kMxcsrDefault | kMxcsrAllFlags;
    _mm_setcsr(before);
    for (int i = 0; i < 10; ++i)
        learner.trainStep();
    const unsigned after = _mm_getcsr();
    EXPECT_EQ(after, before);
}

TEST(AdamKernel, FollowsTheCallersFlushAndRoundingModes)
{
    // A caller already flushing subnormals, or rounding other than to
    // nearest, gets exactly what the scalar loop computes in its mode.
    MxcsrGuard guard;
    for (const unsigned mode : {kMxcsrFtzDaz, 0x2000u, 0x4000u, 0x6000u}) {
        common::Rng rng(mode);
        AdamState fast;
        std::vector<float> g;
        for (int i = 0; i < 77; ++i) {
            g.push_back(i % 2 == 0 ? 0.0f : adversarial(rng, 1.0));
            fast.w.push_back(adversarial(rng, 1.0));
            fast.m.push_back(adversarial(rng, 1e-3));
            fast.v.push_back(std::fabs(adversarial(rng, 1e-4)));
        }
        AdamState ref = fast;
        _mm_setcsr(kMxcsrDefault | mode);
        for (std::size_t t = 1; t <= 50; ++t) {
            nn::adamStep(AdamConfig{}, t, g.size(), g.data(),
                         fast.w.data(), fast.m.data(), fast.v.data());
            nn::reference::adamStep(AdamConfig{}, t, g.size(), g.data(),
                                    ref.w.data(), ref.m.data(),
                                    ref.v.data());
        }
        const unsigned after = _mm_getcsr() & ~kMxcsrAllFlags;
        _mm_setcsr(kMxcsrDefault);
        EXPECT_EQ(after, kMxcsrDefault | mode);
        EXPECT_TRUE(bitEqual(fast, ref)) << "MXCSR mode 0x" << std::hex
                                         << mode;
    }
}

#endif // __SSE__
