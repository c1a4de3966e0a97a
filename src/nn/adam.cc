/**
 * @file
 * The Adam update kernel: bit-exact with the scalar loop, fast on
 * subnormal state.
 *
 * Why it needs a kernel: in a trained BDQ many gradients are exactly
 * zero (dead ReLU units, the one-action rows of the Q gradient), so
 * their first moments decay by beta1 each step into the subnormal
 * range -- and stay there, because RN(0.9 * k * 2^-149) never reaches
 * zero for small k. Every float operation with a subnormal operand or
 * result takes a microcode assist, which made the scalar loop about
 * 100 cycles per parameter and the largest single cost of a training
 * step.
 *
 * The fast path runs 8 lanes with MXCSR FTZ|DAZ set (subnormals read
 * and written as zero, no assists) and restores the caller's MXCSR on
 * exit. Each lane falls into one of three classes, chosen from the
 * bit patterns of its inputs (float compares would already see DAZ):
 *
 *  - Normal: g is 0 or |g| >= 2^-50; m is 0 or |m| >= 2^-125 (or any
 *    non-NaN m when g is nonzero: the b1 m term is then far below half
 *    an ulp of (1 - b1) g, flushed or not); v is +0 or >= 2^-125; w is
 *    0 or |w| >= 2^-100. With beta in [0.5, 1) no intermediate up to
 *    sqrt(vhat) + eps can be subnormal, and the three results that
 *    still can -- lr * mhat, the update u and w - u -- are post-checked:
 *    under FTZ an underflow is an exact zero from nonzero operands.
 *    These lanes store the vector result.
 *  - Decay: g = +-0 and |m| < 2^-125. On that range a float is exactly
 *    (bits & 0x7fffffff) * 2^-149, the product with b1 is exact in
 *    double, and adding 1.5 * 2^52 rounds it to the 2^-149 grid with
 *    ties to even: that is RN(b1 m), to which the +-0 gradient term is
 *    added by the IEEE signed-zero rules. v comes from the vector path
 *    (it is +0 or normal in this class). The weight is left unchanged,
 *    which the lane only claims when |w| exceeds a bound, computed per
 *    call from lr, eps and 1 - b1^t, above which the update is provably
 *    below half an ulp of w.
 *  - Other (NaN, tiny nonzero g, v or w, a post-check that fired):
 *    the scalar formula reruns under the caller's MXCSR.
 *
 * A call whose configuration or environment falls outside those proofs
 * (beta outside [0.5, 1), subnormal lr or eps, a caller already running
 * with FTZ/DAZ, a non-default rounding mode, unmasked FP exceptions)
 * runs the scalar loop throughout, as does every build without the ISA
 * clones (TSan, non-x86).
 *
 * This file is compiled with -ffp-contract=off: the update is defined
 * as separately rounded products and sums, and a clone contracted to
 * FMA would change the bits.
 */

#include "nn/adam.hh"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/kernel_clones.hh"

namespace twig::nn {

namespace {

/** The per-call scalars of the update. */
struct AdamScalars
{
    AdamConfig cfg;
    float b1t; ///< 1 - beta1^t
    float b2t; ///< 1 - beta2^t
};

AdamScalars
scalarsFor(const AdamConfig &cfg, std::size_t t)
{
    return {cfg, 1.0f - std::pow(cfg.beta1, static_cast<float>(t)),
            1.0f - std::pow(cfg.beta2, static_cast<float>(t))};
}

/** The update of one parameter: reference::adamStep's loop body,
 * operation for operation. */
inline void
adamOne(const AdamScalars &s, float g, float &m, float &v, float &w)
{
    const AdamConfig &cfg = s.cfg;
    m = cfg.beta1 * m + (1.0f - cfg.beta1) * g;
    v = cfg.beta2 * v + (1.0f - cfg.beta2) * g * g;
    const float mhat = m / s.b1t;
    const float vhat = v / s.b2t;
    w -= cfg.learningRate * mhat / (std::sqrt(vhat) + cfg.epsilon);
}

void
adamScalar(const AdamScalars &s, std::size_t n, const float *grad,
           float *param, float *m, float *v)
{
    for (std::size_t i = 0; i < n; ++i)
        adamOne(s, grad[i], m[i], v[i], param[i]);
}

#if TWIG_HAVE_KERNEL_CLONES

typedef float f32x8 __attribute__((vector_size(32)));
typedef std::uint32_t u32x8 __attribute__((vector_size(32)));
typedef std::int32_t i32x8 __attribute__((vector_size(32)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef std::uint64_t u64x4 __attribute__((vector_size(32)));

constexpr std::uint32_t kMxcsrFlush = 0x8040;    ///< FTZ | DAZ
constexpr std::uint32_t kMxcsrRounding = 0x6000; ///< rounding control
constexpr std::uint32_t kMxcsrMasks = 0x1f80;    ///< exception masks

constexpr std::uint32_t kSign = 0x80000000u;
constexpr std::uint32_t kAbs = 0x7fffffffu;
constexpr std::uint32_t kInf = 0x7f800000u;
constexpr std::uint32_t kMinM = 0x01000000u; ///< 2^-125
constexpr std::uint32_t kMinG = 0x26800000u; ///< 2^-50
constexpr std::uint32_t kMinW = 0x0d800000u; ///< 2^-100

/** MXCSR access that no load, store or call moves across. */
inline std::uint32_t
getMxcsr()
{
    std::uint32_t csr;
    asm volatile("stmxcsr %0" : "=m"(csr) : : "memory");
    return csr;
}

inline void
setMxcsr(std::uint32_t csr)
{
    asm volatile("ldmxcsr %0" : : "m"(csr) : "memory");
}

/** Constants of the 8-lane pass, fixed for one call. */
struct LaneConsts
{
    float b1, c1, b2, c2, lr, eps, b1t, b2t;
    std::uint32_t decayMinW; ///< bits of the |w| bound of decay lanes
};

/**
 * Whether the lane classes' proofs hold for this call, and if so its
 * constants. @p csr is the caller's MXCSR.
 */
bool
fastPathApplies(const AdamScalars &s, std::uint32_t csr, LaneConsts &c)
{
    const AdamConfig &cfg = s.cfg;
    if ((csr & (kMxcsrFlush | kMxcsrRounding)) != 0 ||
        (csr & kMxcsrMasks) != kMxcsrMasks)
        return false;
    c = {cfg.beta1, 1.0f - cfg.beta1, cfg.beta2, 1.0f - cfg.beta2,
         cfg.learningRate, cfg.epsilon, s.b1t, s.b2t, kInf};
    const auto zeroOrNormal = [](float x) {
        return std::isfinite(x) && std::fpclassify(x) != FP_SUBNORMAL;
    };
    if (!(c.b1 >= 0.5f && c.b1 < 1.0f && c.b2 >= 0.5f && c.b2 < 1.0f &&
          c.c1 >= 0x1p-20f && c.c2 >= 0x1p-20f))
        return false;
    if (!zeroOrNormal(c.lr) || !zeroOrNormal(c.eps) || c.eps < 0.0f)
        return false;
    if (!(c.b1t >= c.c1 && c.b1t <= 1.0f && c.b2t >= c.c2 &&
          c.b2t <= 1.0f))
        return false;
    if (c.eps > 0.0f) {
        // Largest |update| a decay lane can produce. |m'| <= |m| <
        // 2^-125 and the denominator is >= eps; each later rounding
        // adds at most a relative 2^-24 or, for a subnormal result, an
        // absolute 2^-150.
        const double slack = 1.0 + 0x1p-20;
        const double mhat = 0x1p-125 / c.b1t * slack + 0x1p-149;
        const double p = std::fabs(double{c.lr}) * mhat * slack + 0x1p-149;
        const double u = p / c.eps * slack + 0x1p-149;
        // Half an ulp of w exceeds |w| 2^-25, so |w| >= 2^25 u keeps
        // w - u == w; one more factor of two is margin.
        const double bound = 0x1p26 * u;
        if (bound < std::numeric_limits<float>::max()) {
            const float f = static_cast<float>(bound);
            std::memcpy(&c.decayMinW, &f, sizeof f);
        }
    }
    return true;
}

__attribute__((always_inline)) inline bool
anyLane(u32x8 mask)
{
    const u64x4 q = reinterpret_cast<u64x4>(mask);
    return (q[0] | q[1] | q[2] | q[3]) != 0;
}

/**
 * RN(b1 * m) for |m| < 2^-125, as float bit magnitudes: @p k holds
 * |m| / 2^-149 (the magnitude bits), the product is exact in double and
 * adding 1.5 * 2^52 rounds it to an integer with ties to even, which
 * the low word of the sum then holds.
 */
__attribute__((always_inline)) inline u32x8
decayMagnitude(u32x8 k, double b1)
{
    const i32x8 ki = reinterpret_cast<i32x8>(k);
    const i32x4 lo = __builtin_shufflevector(ki, ki, 0, 1, 2, 3);
    const i32x4 hi = __builtin_shufflevector(ki, ki, 4, 5, 6, 7);
    const f64x4 rlo = __builtin_convertvector(lo, f64x4) * b1 + 0x1.8p52;
    const f64x4 rhi = __builtin_convertvector(hi, f64x4) * b1 + 0x1.8p52;
    return __builtin_shufflevector(reinterpret_cast<u32x8>(rlo),
                                   reinterpret_cast<u32x8>(rhi), 0, 2, 4,
                                   6, 8, 10, 12, 14);
}

/**
 * One 8-lane pass under FTZ|DAZ. Stores the normal and decay lanes'
 * results, leaves the other lanes' state untouched and returns their
 * mask.
 */
__attribute__((always_inline)) inline u32x8
adamLanes8(const LaneConsts &c, const float *gp, float *wp, float *mp,
           float *vp)
{
    f32x8 g, m, v, w;
    std::memcpy(&g, gp, sizeof g);
    std::memcpy(&m, mp, sizeof m);
    std::memcpy(&v, vp, sizeof v);
    std::memcpy(&w, wp, sizeof w);
    const u32x8 gb = reinterpret_cast<u32x8>(g);
    const u32x8 mb = reinterpret_cast<u32x8>(m);
    const u32x8 vb = reinterpret_cast<u32x8>(v);
    const u32x8 wb = reinterpret_cast<u32x8>(w);
    const u32x8 ga = gb & kAbs, ma = mb & kAbs, wa = wb & kAbs;

    const u32x8 gZero = reinterpret_cast<u32x8>(ga == 0);
    const u32x8 gBig =
        reinterpret_cast<u32x8>((ga >= kMinG) & (ga <= kInf));
    const u32x8 mOk = reinterpret_cast<u32x8>(
        (ma <= kInf) & ((ma == 0) | (ma >= kMinM) |
                        reinterpret_cast<i32x8>(gBig)));
    const u32x8 vOk = reinterpret_cast<u32x8>(
        (vb == 0) | ((vb >= kMinM) & (vb <= kInf)));
    const u32x8 wOk = reinterpret_cast<u32x8>(
        (wa == 0) | ((wa >= kMinW) & (wa <= kInf)));
    const u32x8 decay = gZero & vOk &
        reinterpret_cast<u32x8>((ma < kMinM) & (wa > c.decayMinW) &
                                (wa <= kInf));

    const f32x8 m1 = c.b1 * m + c.c1 * g;
    const f32x8 v1 = c.b2 * v + c.c2 * g * g;
    const f32x8 mhat = m1 / c.b1t;
    const f32x8 vhat = v1 / c.b2t;
    f32x8 root;
    for (int l = 0; l < 8; ++l)
        root[l] = __builtin_sqrtf(vhat[l]);
    const f32x8 p = c.lr * mhat;
    const f32x8 u = p / (root + c.eps);
    const f32x8 w1 = w - u;
    const u32x8 flushed = reinterpret_cast<u32x8>(
        ((p == 0) & (mhat != 0)) | ((u == 0) & (p != 0)) |
        ((w1 == 0) & (w != u)));
    const u32x8 normal = (gZero | gBig) & mOk & vOk & wOk & ~flushed;

    u32x8 mOut = (normal & reinterpret_cast<u32x8>(m1)) | (~normal & mb);
    if (anyLane(decay)) {
        const u32x8 k = decayMagnitude(ma, c.b1);
        const u32x8 nonzero = reinterpret_cast<u32x8>(k != 0);
        // RN(b1 m) carries m's sign; when it is zero, adding the +-0
        // gradient term gives -0 only if both zeros are negative.
        const u32x8 md = k | (mb & kSign & (nonzero | gb));
        mOut = (mOut & ~decay) | (decay & md);
    }
    const u32x8 done = normal | decay;
    const u32x8 vOut = (done & reinterpret_cast<u32x8>(v1)) | (~done & vb);
    const u32x8 wOut = (normal & reinterpret_cast<u32x8>(w1)) | (~normal & wb);
    std::memcpy(mp, &mOut, sizeof mOut);
    std::memcpy(vp, &vOut, sizeof vOut);
    std::memcpy(wp, &wOut, sizeof wOut);
    return ~done;
}

/** adamLanes8, then the scalar formula for the lanes it left, under
 * the caller's MXCSR @p csr. */
__attribute__((always_inline)) inline void
adamBlock8(const AdamScalars &s, const LaneConsts &c, std::uint32_t csr,
           const float *g, float *w, float *m, float *v)
{
    const u32x8 rest = adamLanes8(c, g, w, m, v);
    if (!anyLane(rest))
        return;
    setMxcsr(csr);
    for (int l = 0; l < 8; ++l) {
        if (rest[l] != 0)
            adamOne(s, g[l], m[l], v[l], w[l]);
    }
    setMxcsr(csr | kMxcsrFlush);
}

/** The fast path over n parameters; restores @p csr, the caller's
 * MXCSR, on exit. */
TWIG_KERNEL_CLONES void
adamFlushed(const AdamScalars &s, const LaneConsts &c, std::uint32_t csr,
            std::size_t n, const float *grad, float *param, float *m,
            float *v)
{
    setMxcsr(csr | kMxcsrFlush);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        adamBlock8(s, c, csr, grad + i, param + i, m + i, v + i);
    if (i < n) {
        // Tail: a zero-padded copy (all-zero lanes are normal lanes
        // whose results are dropped).
        const std::size_t r = n - i;
        float g8[8] = {}, w8[8] = {}, m8[8] = {}, v8[8] = {};
        std::memcpy(g8, grad + i, r * sizeof(float));
        std::memcpy(w8, param + i, r * sizeof(float));
        std::memcpy(m8, m + i, r * sizeof(float));
        std::memcpy(v8, v + i, r * sizeof(float));
        adamBlock8(s, c, csr, g8, w8, m8, v8);
        std::memcpy(param + i, w8, r * sizeof(float));
        std::memcpy(m + i, m8, r * sizeof(float));
        std::memcpy(v + i, v8, r * sizeof(float));
    }
    setMxcsr(csr);
}

#endif // TWIG_HAVE_KERNEL_CLONES

} // namespace

void
adamStep(const AdamConfig &cfg, std::size_t t, std::size_t n,
         const float *grad, float *param, float *m, float *v)
{
    const AdamScalars s = scalarsFor(cfg, t);
#if TWIG_HAVE_KERNEL_CLONES
    const std::uint32_t csr = getMxcsr();
    LaneConsts c;
    if (fastPathApplies(s, csr, c)) {
        adamFlushed(s, c, csr, n, grad, param, m, v);
        return;
    }
#endif
    adamScalar(s, n, grad, param, m, v);
}

} // namespace twig::nn
