#include "nn/layers.hh"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace twig::nn {

namespace {

void
writeFloats(std::ostream &os, const float *data, std::size_t n)
{
    os.write(reinterpret_cast<const char *>(data),
             static_cast<std::streamsize>(n * sizeof(float)));
}

void
readFloats(std::istream &is, float *data, std::size_t n)
{
    is.read(reinterpret_cast<char *>(data),
            static_cast<std::streamsize>(n * sizeof(float)));
    common::fatalIf(!is, "Linear::load: truncated stream");
}

/**
 * dx = mask ? dy : +0 per element, bit for bit, as lane code: sixteen
 * mask bytes at a time are compared with zero and widened to 4-byte
 * lanes of all ones or all zeros, which clear the bits of dy where
 * the mask is 0. (The ternary compiled to a branch per element.) @p dx
 * may be @p dy.
 */
void
maskGradient(std::size_t n, const unsigned char *mask, const float *dy,
             float *dx)
{
    std::size_t i = 0;
#if defined(__SSE2__)
    for (; i + 16 <= n; i += 16) {
        __m128i m;
        std::memcpy(&m, mask + i, sizeof m);
        const __m128i drop = _mm_cmpeq_epi8(m, _mm_setzero_si128());
        const __m128i lo = _mm_unpacklo_epi8(drop, drop);
        const __m128i hi = _mm_unpackhi_epi8(drop, drop);
        const __m128i lanes[4] = {
            _mm_unpacklo_epi16(lo, lo), _mm_unpackhi_epi16(lo, lo),
            _mm_unpacklo_epi16(hi, hi), _mm_unpackhi_epi16(hi, hi)};
        for (std::size_t q = 0; q < 4; ++q) {
            __m128i g;
            std::memcpy(&g, dy + i + 4 * q, sizeof g);
            g = _mm_andnot_si128(lanes[q], g);
            std::memcpy(dx + i + 4 * q, &g, sizeof g);
        }
    }
#endif
    for (; i < n; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, dy + i, sizeof bits);
        bits &= 0u - static_cast<std::uint32_t>(mask[i] != 0);
        std::memcpy(dx + i, &bits, sizeof bits);
    }
}

} // namespace

Linear::Linear(std::size_t in, std::size_t out, common::Rng &rng)
    : weight_(in, out), bias_(out, 0.0f)
{
    common::fatalIf(in == 0 || out == 0, "Linear: zero-sized layer");
    reinitialize(rng);
}

void
Linear::reinitialize(common::Rng &rng)
{
    // He-uniform initialisation, appropriate for ReLU activations.
    const float limit = std::sqrt(
        6.0f / static_cast<float>(weight_.rows()));
    for (std::size_t i = 0; i < weight_.size(); ++i) {
        weight_.raw()[i] =
            static_cast<float>(rng.uniform(-limit, limit));
    }
    std::fill(bias_.begin(), bias_.end(), 0.0f);
    mWeight_.fill(0.0f);
    vWeight_.fill(0.0f);
    std::fill(mBias_.begin(), mBias_.end(), 0.0f);
    std::fill(vBias_.begin(), vBias_.end(), 0.0f);
}

void
Linear::forward(ConstMatrixView x, Matrix &y, bool train)
{
    common::panicIf(x.cols != weight_.rows(),
                    "Linear::forward: input width mismatch");
    if (train)
        input_ = x;
    matmulBias(x, weight_, bias_, y);
}

void
Linear::forwardRelu(ConstMatrixView x, MatrixView y, unsigned char *mask)
{
    common::panicIf(x.cols != weight_.rows(),
                    "Linear::forwardRelu: input width mismatch");
    if (mask != nullptr)
        input_ = x;
    matmulBiasRelu(x, weight_, bias_, y, mask);
}

void
Linear::backward(ConstMatrixView dy, Matrix &dx)
{
    backwardNoInputGrad(dy);
    matmulTransposeB(dy, weight_, dx);
}

void
Linear::backwardAccumulate(ConstMatrixView dy, MatrixView dx)
{
    backwardNoInputGrad(dy);
    matmulTransposeBAccum(dy, weight_, dx);
}

void
Linear::allocateTrainingState()
{
    if (gradWeight_.size() != 0)
        return;
    const std::size_t in = weight_.rows(), out = weight_.cols();
    gradWeight_ = Matrix(in, out);
    mWeight_ = Matrix(in, out);
    vWeight_ = Matrix(in, out);
    gradBias_.assign(out, 0.0f);
    mBias_.assign(out, 0.0f);
    vBias_.assign(out, 0.0f);
}

void
Linear::backwardNoInputGrad(ConstMatrixView dy)
{
    allocateTrainingState();
    common::panicIf(input_.data == nullptr,
                    "Linear::backward without a train-mode forward");
    common::panicIf(dy.rows != input_.rows,
                    "Linear::backward: batch mismatch");
    common::panicIf(dy.cols != weight_.cols(),
                    "Linear::backward: output width mismatch");
    // gradW += x^T dy, fused into the kernel: no scratch matrix, no
    // second pass over the gradient.
    matmulTransposeAAccum(input_, dy, gradWeight_);
    for (std::size_t r = 0; r < dy.rows; ++r) {
        const float *row = dy.rowPtr(r);
        for (std::size_t c = 0; c < dy.cols; ++c)
            gradBias_[c] += row[c];
    }
}

void
Linear::scaleGrad(float factor)
{
    gradWeight_.scaleInPlace(factor);
    for (auto &g : gradBias_)
        g *= factor;
}

void
Linear::adamStep(const AdamConfig &cfg, std::size_t t)
{
    common::panicIf(t == 0, "adamStep: step counter must start at 1");
    allocateTrainingState();
    nn::adamStep(cfg, t, weight_.size(), gradWeight_.data(),
                 weight_.data(), mWeight_.data(), vWeight_.data());
    nn::adamStep(cfg, t, bias_.size(), gradBias_.data(), bias_.data(),
                 mBias_.data(), vBias_.data());
    zeroGrad();
}

void
Linear::zeroGrad()
{
    gradWeight_.fill(0.0f);
    std::fill(gradBias_.begin(), gradBias_.end(), 0.0f);
}

void
Linear::copyParamsFrom(const Linear &other)
{
    common::panicIf(weight_.rows() != other.weight_.rows() ||
                        weight_.cols() != other.weight_.cols(),
                    "copyParamsFrom: shape mismatch");
    weight_ = other.weight_;
    bias_ = other.bias_;
}

float
Linear::gradNorm() const
{
    double s = 0.0;
    for (float g : gradWeight_.raw())
        s += static_cast<double>(g) * g;
    for (float g : gradBias_)
        s += static_cast<double>(g) * g;
    return static_cast<float>(std::sqrt(s));
}

void
Linear::save(std::ostream &os) const
{
    writeFloats(os, weight_.data(), weight_.size());
    writeFloats(os, bias_.data(), bias_.size());
}

void
Linear::load(std::istream &is)
{
    readFloats(is, weight_.data(), weight_.size());
    readFloats(is, bias_.data(), bias_.size());
}

void
ReLU::forward(const Matrix &x, Matrix &y)
{
    unsigned char *mask = primeMask(x.rows(), x.cols());
    y.resize(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float v = x.raw()[i];
        const bool pos = v > 0.0f;
        mask[i] = pos ? 1 : 0;
        y.raw()[i] = pos ? v : 0.0f;
    }
}

void
ReLU::backward(const Matrix &dy, Matrix &dx) const
{
    common::panicIf(dy.rows() != rows_ || dy.cols() != cols_,
                    "ReLU::backward: shape mismatch with forward");
    dx.resize(rows_, cols_);
    maskGradient(dy.size(), mask_.data(), dy.data(), dx.data());
}

const Matrix &
Dropout::forward(const Matrix &x, Matrix &y, bool train, common::Rng &rng)
{
    rows_ = x.rows();
    cols_ = x.cols();
    wasTrain_ = train && rate_ > 0.0f;
    if (!wasTrain_)
        return x;
    y.resize(x.rows(), x.cols());
    const float keep = 1.0f - rate_;
    if (mask_.size() != x.size())
        mask_.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (rng.uniform() < keep) {
            mask_[i] = 1.0f / keep;
            y.raw()[i] = x.raw()[i] * mask_[i];
        } else {
            mask_[i] = 0.0f;
            y.raw()[i] = 0.0f;
        }
    }
    return y;
}

const Matrix &
Dropout::backward(const Matrix &dy, Matrix &dx) const
{
    common::panicIf(dy.rows() != rows_ || dy.cols() != cols_,
                    "Dropout::backward: shape mismatch with forward");
    if (!wasTrain_)
        return dy;
    dx.resize(rows_, cols_);
    for (std::size_t i = 0; i < dy.size(); ++i)
        dx.raw()[i] = dy.raw()[i] * mask_[i];
    return dx;
}

} // namespace twig::nn
