/** @file Unit tests for the dense matrix primitives. */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "common/error.hh"
#include "common/rng.hh"
#include "nn/matrix.hh"

using namespace twig::nn;

namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, twig::common::Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.raw()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    return m;
}

void
expectNear(const Matrix &got, const Matrix &want, double tol)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_NEAR(got.raw()[i], want.raw()[i], tol)
            << "element " << i;
}

/**
 * out[i][j] = a[i][0] b[0][j] + ... + a[i][k-1] b[k-1][j], summed in
 * that order from +0 -- the order the tiled kernel accumulates in --
 * with each multiply-add rounded once (@p fused, as the FMA clones of
 * the kernel do) or twice.
 */
Matrix
sequentialProduct(const Matrix &a, const Matrix &b, bool fused)
{
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < a.cols(); ++p) {
                acc = fused ? std::fma(a(i, p), b(p, j), acc)
                            : acc + a(i, p) * b(p, j);
            }
            out(i, j) = acc;
        }
    }
    return out;
}

Matrix
transposed(const Matrix &x)
{
    Matrix t(x.cols(), x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            t(c, r) = x(r, c);
    return t;
}

bool
bitEqual(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

} // namespace

TEST(Matrix, ConstructAndIndex)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
    m(0, 1) = 7.0f;
    EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
}

TEST(Matrix, FillAndScale)
{
    Matrix m(2, 2);
    m.fill(3.0f);
    m.scaleInPlace(0.5f);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_FLOAT_EQ(m.raw()[i], 1.5f);
}

TEST(Matrix, AddInPlace)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 2.0f);
    a.addInPlace(b);
    EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(a(1, 1), 3.0f);
}

TEST(Matrix, AddShapeMismatchPanics)
{
    Matrix a(2, 2), b(2, 3);
    EXPECT_THROW(a.addInPlace(b), twig::common::PanicError);
}

TEST(Matrix, RowPtrPointsIntoStorage)
{
    Matrix m(3, 4);
    m(2, 1) = 9.0f;
    EXPECT_FLOAT_EQ(m.rowPtr(2)[1], 9.0f);
}

TEST(Matmul, KnownProduct)
{
    // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
    Matrix a(2, 2), b(2, 2), out;
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
    b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
    matmul(a, b, out);
    EXPECT_FLOAT_EQ(out(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(out(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(out(1, 1), 50.0f);
}

TEST(Matmul, RectangularShapes)
{
    Matrix a(1, 3, 1.0f), b(3, 2, 2.0f), out;
    matmul(a, b, out);
    EXPECT_EQ(out.rows(), 1u);
    EXPECT_EQ(out.cols(), 2u);
    EXPECT_FLOAT_EQ(out(0, 0), 6.0f);
}

TEST(Matmul, InnerDimensionMismatchPanics)
{
    Matrix a(2, 3), b(2, 2), out;
    EXPECT_THROW(matmul(a, b, out), twig::common::PanicError);
}

TEST(Matmul, TransposeBMatchesExplicit)
{
    // a [2x3] * b^T where b is [4x3].
    Matrix a(2, 3), b(4, 3), expect, bt(3, 4), out;
    float v = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        a.raw()[i] = v += 1.0f;
    for (std::size_t i = 0; i < b.size(); ++i)
        b.raw()[i] = v -= 0.5f;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            bt(c, r) = b(r, c);
    matmul(a, bt, expect);
    matmulTransposeB(a, b, out);
    ASSERT_EQ(out.rows(), 2u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out.raw()[i], expect.raw()[i], 1e-4);
}

TEST(Matmul, TransposeAMatchesExplicit)
{
    // a^T [3x2] * b [3x4] where a is [3x2].
    Matrix a(3, 2), b(3, 4), at(2, 3), expect, out;
    float v = 1.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        a.raw()[i] = v *= 1.1f;
    for (std::size_t i = 0; i < b.size(); ++i)
        b.raw()[i] = v -= 0.2f;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            at(c, r) = a(r, c);
    matmul(at, b, expect);
    matmulTransposeA(a, b, out);
    ASSERT_EQ(out.rows(), 2u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out.raw()[i], expect.raw()[i], 1e-4);
}

TEST(Matmul, OutputIsOverwrittenNotAccumulated)
{
    Matrix a(1, 1), b(1, 1), out(1, 1, 99.0f);
    a(0, 0) = 2.0f;
    b(0, 0) = 3.0f;
    matmul(a, b, out);
    EXPECT_FLOAT_EQ(out(0, 0), 6.0f);
}

TEST(MatrixResize, KeepsCapacityAndSkipsZeroFill)
{
    Matrix m(8, 8, 7.0f);
    const float *storage = m.data();
    // Shrinking must not reallocate: scratch matrices cycle between
    // steady-state shapes without touching the heap.
    m.resize(4, 4);
    EXPECT_EQ(m.data(), storage);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_EQ(m.cols(), 4u);
    // Contents are unspecified, but the old storage was NOT zeroed —
    // that is the contract change callers rely on for speed.
    EXPECT_FLOAT_EQ(m.raw()[0], 7.0f);
    // Growing back within capacity must not reallocate either.
    m.resize(8, 8);
    EXPECT_EQ(m.data(), storage);
    // Explicit zeroing is the caller's job now.
    m.zero();
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_FLOAT_EQ(m.raw()[i], 0.0f);
}

// ---------------------------------------------------------------------------
// Randomized equivalence of the tiled kernels against the naive
// reference implementation, over shapes chosen to hit every edge of
// the register tiling: 1x1, tall-skinny, wide, and dims that are not
// multiples of the 6x16 tile.
// ---------------------------------------------------------------------------

struct Shape
{
    std::size_t m, k, n;
};

class TiledKernelEquivalence : public ::testing::TestWithParam<Shape>
{
};

TEST_P(TiledKernelEquivalence, MatmulMatchesReference)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m * 73856093 + k * 19349663 + n * 83492791);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(k, n, rng);
    Matrix want, got(3, 3, 42.0f); // stale shape/content must not leak
    reference::matmul(a, b, want);
    matmul(a, b, got);
    expectNear(got, want, 1e-3);
}

TEST_P(TiledKernelEquivalence, TransposeBMatchesReference)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m * 2654435761 + k * 40503 + n);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(n, k, rng);
    Matrix want, got;
    reference::matmulTransposeB(a, b, want);
    matmulTransposeB(a, b, got);
    expectNear(got, want, 1e-3);
}

TEST_P(TiledKernelEquivalence, TransposeAMatchesReference)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m * 31 + k * 37 + n * 41);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(m, n, rng);
    Matrix want, got;
    reference::matmulTransposeA(a, b, want);
    matmulTransposeA(a, b, got);
    expectNear(got, want, 1e-3);
}

TEST_P(TiledKernelEquivalence, SparseAMatchesReferenceOnOneHotRows)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m + k + n);
    // One-hot rows: the genuinely sparse input the skip branch is for.
    Matrix a(m, k, 0.0f);
    for (std::size_t i = 0; i < m; ++i)
        a(i, rng.uniformInt(k)) = 1.0f;
    const Matrix b = randomMatrix(k, n, rng);
    Matrix want, got;
    reference::matmul(a, b, want);
    matmulSparseA(a, b, got);
    expectNear(got, want, 1e-4);
}

TEST_P(TiledKernelEquivalence, BitwiseMatchesSequentialSum)
{
    // Every GEMM entry point must produce exactly the sequential sum,
    // bit for bit, in the column tail (n % 16) as in full tiles: all
    // multiply-adds fused, or none.
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m * 7919 + k * 104729 + n * 15485863);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(k, n, rng);
    const Matrix prior = randomMatrix(m, n, rng);
    std::vector<float> bias(n);
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix prod, prodBias, prodRelu, prodTB, prodTA, accum = prior;
    std::vector<unsigned char> mask;
    matmul(a, b, prod);
    matmulBias(a, b, bias, prodBias);
    matmulBiasRelu(a, b, bias, prodRelu, mask);
    matmulTransposeB(a, transposed(b), prodTB);
    // The transposed-A products read their operand through strides,
    // with no packed copy.
    matmulTransposeA(transposed(a), b, prodTA);
    matmulTransposeAAccum(transposed(a), b, accum);

    const auto mismatches = [&](bool fused) {
        const Matrix sum = sequentialProduct(a, b, fused);
        Matrix withBias = sum, relu = sum, accumulated = sum;
        std::vector<unsigned char> wantMask(sum.size());
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const float v = sum(i, j) + bias[j];
                withBias(i, j) = v;
                relu(i, j) = v > 0.0f ? v : 0.0f;
                wantMask[i * n + j] = v > 0.0f ? 1 : 0;
                accumulated(i, j) = prior(i, j) + sum(i, j);
            }
        }
        std::string bad;
        if (!bitEqual(prod, sum))
            bad += " matmul";
        if (!bitEqual(prodBias, withBias))
            bad += " matmulBias";
        if (!bitEqual(prodRelu, relu) || mask != wantMask)
            bad += " matmulBiasRelu";
        if (!bitEqual(prodTB, sum))
            bad += " matmulTransposeB";
        if (!bitEqual(prodTA, sum))
            bad += " matmulTransposeA";
        if (!bitEqual(accum, accumulated))
            bad += " matmulTransposeAAccum";
        return bad;
    };
    const std::string unfused = mismatches(false);
    const std::string fused = mismatches(true);
    EXPECT_TRUE(unfused.empty() || fused.empty())
        << "differ from the unfused sum:" << unfused
        << "; from the fused sum:" << fused;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledKernelEquivalence,
    ::testing::Values(Shape{1, 1, 1},        // degenerate
                      Shape{1, 7, 1},        // single dot product
                      Shape{5, 3, 2},        // below one tile
                      Shape{6, 8, 16},       // exactly one row-tile
                      Shape{7, 11, 17},      // one past the tile edges
                      Shape{64, 1, 64},      // K=1
                      Shape{129, 2, 3},      // tall-skinny
                      Shape{3, 2, 130},      // short-wide
                      Shape{64, 512, 256},   // BDQ trunk shape
                      Shape{37, 61, 43},     // odd everything
                      // Column tails (n % 16 != 0) under row counts
                      // that leave a 1-row remainder block too.
                      Shape{7, 5, 1},
                      Shape{13, 16, 2},
                      Shape{64, 32, 9},      // fast-preset advantage out
                      Shape{64, 32, 18},
                      Shape{37, 12, 33}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return std::to_string(info.param.m) + "x" +
            std::to_string(info.param.k) + "x" +
            std::to_string(info.param.n);
    });

// Every m % 6 remainder strip height (m = 1..13 covers 0..5 after
// zero, one and two full strips), under a column tail (n = 21).
INSTANTIATE_TEST_SUITE_P(
    Remainders, TiledKernelEquivalence,
    ::testing::Values(Shape{1, 11, 21}, Shape{2, 11, 21}, Shape{3, 11, 21},
                      Shape{4, 11, 21}, Shape{5, 11, 21}, Shape{6, 11, 21},
                      Shape{7, 11, 21}, Shape{8, 11, 21}, Shape{9, 11, 21},
                      Shape{10, 11, 21}, Shape{11, 11, 21},
                      Shape{12, 11, 21}, Shape{13, 11, 21}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return "m" + std::to_string(info.param.m);
    });

TEST(TiledKernelEquivalence, FastPresetTrainingShapesAreBitExact)
{
    // The 17 GEMMs of a fast-preset BDQ training step (batch 32, two
    // agents of 11 state features, trunk 64, heads 32, branches of 18
    // and 9 actions), as (m, k, n) of the product C[m x n] = A B:
    // forward Linear passes, the dW = x^T dy accumulations and the
    // dX = dy W^T input gradients.
    struct Gemm
    {
        const char *op;
        std::size_t m, k, n;
    };
    const Gemm gemms[] = {
        {"fwd", 32, 22, 64}, {"fwd", 32, 64, 32}, {"fwd", 32, 32, 1},
        {"fwd", 64, 32, 32}, {"fwd", 64, 32, 18}, {"fwd", 64, 32, 9},
        {"dW", 22, 32, 64},  {"dW", 64, 32, 32},  {"dW", 32, 32, 1},
        {"dW", 32, 64, 32},  {"dW", 32, 64, 18},  {"dW", 32, 64, 9},
        {"dX", 32, 32, 64},  {"dX", 32, 1, 32},   {"dX", 64, 32, 32},
        {"dX", 64, 18, 32},  {"dX", 64, 9, 32},
    };
    twig::common::Rng rng(17);
    std::string unfused, fused;
    for (const Gemm &g : gemms) {
        const Matrix a = randomMatrix(g.m, g.k, rng);
        const Matrix b = randomMatrix(g.k, g.n, rng);
        const Matrix prior = randomMatrix(g.m, g.n, rng);
        std::vector<float> bias(g.n);
        for (auto &v : bias)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const std::string op = g.op;
        Matrix got = prior;
        if (op == "fwd")
            matmulBias(a, b, bias, got);
        else if (op == "dW")
            matmulTransposeAAccum(transposed(a), b, got);
        else
            matmulTransposeB(a, transposed(b), got);
        for (const bool f : {false, true}) {
            Matrix want = sequentialProduct(a, b, f);
            for (std::size_t i = 0; i < g.m; ++i) {
                for (std::size_t j = 0; j < g.n; ++j) {
                    if (op == "fwd")
                        want(i, j) += bias[j];
                    else if (op == "dW")
                        want(i, j) = prior(i, j) + want(i, j);
                }
            }
            if (!bitEqual(got, want)) {
                (f ? fused : unfused) += " " + op + " " +
                    std::to_string(g.m) + "x" + std::to_string(g.k) +
                    "x" + std::to_string(g.n);
            }
        }
    }
    EXPECT_TRUE(unfused.empty() || fused.empty())
        << "differ from the unfused sum:" << unfused
        << "; from the fused sum:" << fused;
}

TEST(FusedKernels, TransposeAAccumAddsIntoOut)
{
    twig::common::Rng rng(99);
    const Matrix a = randomMatrix(13, 9, rng);
    const Matrix b = randomMatrix(13, 21, rng);
    Matrix grad(9, 21, 1.25f); // pre-existing gradient accumulation
    Matrix product;
    reference::matmulTransposeA(a, b, product);
    matmulTransposeAAccum(a, b, grad);
    for (std::size_t i = 0; i < grad.size(); ++i)
        ASSERT_NEAR(grad.raw()[i], 1.25f + product.raw()[i], 1e-3);
}

TEST(FusedKernels, TransposeAAccumRejectsWrongShape)
{
    Matrix a(4, 3), b(4, 5), out(2, 5);
    EXPECT_THROW(matmulTransposeAAccum(a, b, out),
                 twig::common::PanicError);
}

TEST(FusedKernels, MatmulBiasMatchesSeparatePasses)
{
    twig::common::Rng rng(7);
    const Matrix x = randomMatrix(19, 23, rng);
    const Matrix w = randomMatrix(23, 33, rng);
    std::vector<float> bias(33);
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix want;
    reference::matmul(x, w, want);
    for (std::size_t r = 0; r < want.rows(); ++r)
        for (std::size_t c = 0; c < want.cols(); ++c)
            want(r, c) += bias[c];

    Matrix got;
    matmulBias(x, w, bias, got);
    expectNear(got, want, 1e-3);
}

TEST(FusedKernels, MatmulBiasReluClampsAndRecordsMask)
{
    twig::common::Rng rng(11);
    const Matrix x = randomMatrix(18, 10, rng);
    const Matrix w = randomMatrix(10, 27, rng);
    std::vector<float> bias(27);
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix pre;
    matmulBias(x, w, bias, pre);

    Matrix got;
    std::vector<unsigned char> mask;
    matmulBiasRelu(x, w, bias, got, mask);
    ASSERT_EQ(mask.size(), pre.size());
    for (std::size_t i = 0; i < pre.size(); ++i) {
        const float v = pre.raw()[i];
        ASSERT_FLOAT_EQ(got.raw()[i], v > 0.0f ? v : 0.0f);
        ASSERT_EQ(mask[i], v > 0.0f ? 1 : 0);
    }
}

namespace {

/** relu(v) as the seed wrote it, per element. */
float
scalarRelu(float v)
{
    return v > 0.0f ? v : 0.0f;
}

/**
 * A [m x k] * [k x n] problem whose pre-activations include exact
 * zeros (all-zero rows of A under 0 and -0 biases), NaNs (NaN bias
 * columns and a NaN row of A), infinities, subnormals and ordinary
 * values of both signs.
 */
struct EdgeProblem
{
    Matrix a, w;
    std::vector<float> bias;
};

EdgeProblem
edgeProblem(std::size_t m, std::size_t k, std::size_t n,
            twig::common::Rng &rng)
{
    EdgeProblem p{randomMatrix(m, k, rng), randomMatrix(k, n, rng),
                  std::vector<float>(n)};
    const float specials[] = {0.0f,
                              -0.0f,
                              std::nanf(""),
                              INFINITY,
                              -INFINITY,
                              1e-40f,
                              -1e-40f};
    for (std::size_t j = 0; j < n; ++j) {
        p.bias[j] = j % 3 == 0
            ? specials[(j / 3) % std::size(specials)]
            : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (std::size_t i = 0; i < m; i += 4) // exact-zero accumulators
        for (std::size_t p2 = 0; p2 < k; ++p2)
            p.a(i, p2) = 0.0f;
    if (m > 2)
        p.a(2, 0) = std::nanf("");
    return p;
}

} // namespace

/**
 * The bias+ReLU epilogue (lane code) against the seed's scalar
 * formula applied to the bias-only product of the same kernel: equal
 * bit for bit, every mask byte exactly 1 where the pre-activation is
 * > 0 and 0 elsewhere (NaN, -0 and 0 included), and the maskless
 * evaluation form writes the same values. Covers every n % 16 column
 * tail (n = 1..33) and every m % 6 remainder (m = 1..13).
 */
TEST(ReluEpilogue, BitExactAgainstTheScalarFormula)
{
    twig::common::Rng rng(2024);
    for (std::size_t m = 1; m <= 13; ++m) {
        for (std::size_t n = 1; n <= 33; ++n) {
            const std::size_t k = 1 + (m * n) % 7;
            const EdgeProblem p = edgeProblem(m, k, n, rng);
            Matrix pre, got, evalOut(m, n);
            std::vector<unsigned char> mask;
            matmulBias(p.a, p.w, p.bias, pre);
            matmulBiasRelu(p.a, p.w, p.bias, got, mask);
            matmulBiasRelu(p.a, p.w, p.bias, evalOut, nullptr);
            ASSERT_EQ(mask.size(), pre.size());
            for (std::size_t i = 0; i < pre.size(); ++i) {
                const float v = pre.raw()[i];
                const float want = scalarRelu(v);
                ASSERT_EQ(std::memcmp(&want, &got.raw()[i], sizeof want),
                          0)
                    << "m=" << m << " n=" << n << " element " << i
                    << " pre-activation " << v;
                ASSERT_EQ(mask[i], v > 0.0f ? 1 : 0)
                    << "m=" << m << " n=" << n << " element " << i;
            }
            ASSERT_TRUE(bitEqual(evalOut, got)) << "m=" << m << " n=" << n;
        }
    }
}

/** A block of rows written in place leaves every other row alone. */
TEST(ReluEpilogue, RowBlockOutputWritesOnlyItsRows)
{
    twig::common::Rng rng(77);
    const Matrix x = randomMatrix(5, 9, rng);
    const Matrix w = randomMatrix(9, 21, rng);
    std::vector<float> bias(21, 0.25f);
    Matrix whole(15, 21, 7.0f);
    std::vector<unsigned char> mask(15 * 21, 9);
    matmulBiasRelu(x, w, bias, whole.rowBlock(5, 5), mask.data() + 5 * 21);

    Matrix want;
    std::vector<unsigned char> wantMask;
    matmulBiasRelu(x, w, bias, want, wantMask);
    for (std::size_t r = 0; r < 15; ++r) {
        for (std::size_t c = 0; c < 21; ++c) {
            const bool inside = r >= 5 && r < 10;
            const float v = inside ? want(r - 5, c) : 7.0f;
            ASSERT_EQ(std::memcmp(&v, &whole(r, c), sizeof v), 0);
            ASSERT_EQ(mask[r * 21 + c],
                      inside ? wantMask[(r - 5) * 21 + c] : 9);
        }
    }
    EXPECT_THROW(matmulBiasRelu(x, w, bias, whole.rowBlock(0, 4), nullptr),
                 twig::common::PanicError);
}

/** out += a * b^T adds, once, exactly the sum matmulTransposeB
 * stores: 0 + a + b in that order, as two separate adds did. */
TEST(FusedKernels, TransposeBAccumAddsTheSameSums)
{
    twig::common::Rng rng(5);
    for (const auto [m, n, k] :
         {std::array<std::size_t, 3>{13, 21, 9}, {64, 32, 18}, {7, 5, 1}}) {
        const Matrix a1 = randomMatrix(m, k, rng), a2 = randomMatrix(m, k, rng);
        const Matrix b1 = randomMatrix(n, k, rng), b2 = randomMatrix(n, k, rng);
        Matrix p1, p2, want(m, n, 0.0f);
        matmulTransposeB(a1, b1, p1);
        matmulTransposeB(a2, b2, p2);
        want.addInPlace(p1);
        want.addInPlace(p2);
        Matrix got(m, n, 0.0f);
        matmulTransposeBAccum(a1, b1, got);
        matmulTransposeBAccum(a2, b2, got);
        EXPECT_TRUE(bitEqual(got, want)) << m << "x" << n << "x" << k;
    }
    Matrix a(3, 4), b(5, 4), out(3, 6);
    EXPECT_THROW(matmulTransposeBAccum(a, b, out), twig::common::PanicError);
}
