/**
 * @file
 * Reference kernels: the seed's naive triple-loop GEMMs and its scalar
 * Adam loop, verbatim. They live in their own translation unit,
 * compiled at the project's default optimisation level, so that (a)
 * the randomized equivalence tests check the tiled GEMMs, and the
 * bitwise tests the Adam kernel, against independently compiled code,
 * and (b) bench/perf_kernels measures speedup against exactly what the
 * seed shipped.
 */

#include <cmath>

#include "nn/adam.hh"
#include "nn/matrix.hh"

namespace twig::nn::reference {

void
matmul(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.rows(), "matmul: inner dims differ");
    out.resize(a.rows(), b.cols());
    out.zero();
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    for (std::size_t i = 0; i < m; ++i) {
        float *out_row = out.rowPtr(i);
        const float *a_row = a.rowPtr(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = a_row[p];
            if (av == 0.0f)
                continue;
            const float *b_row = b.rowPtr(p);
            for (std::size_t j = 0; j < n; ++j)
                out_row[j] += av * b_row[j];
        }
    }
}

void
matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.cols(), "matmulTransposeB: dims differ");
    out.resize(a.rows(), b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    for (std::size_t i = 0; i < m; ++i) {
        const float *a_row = a.rowPtr(i);
        float *out_row = out.rowPtr(i);
        for (std::size_t j = 0; j < n; ++j) {
            const float *b_row = b.rowPtr(j);
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += a_row[p] * b_row[p];
            out_row[j] = acc;
        }
    }
}

void
matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.rows() != b.rows(), "matmulTransposeA: dims differ");
    out.resize(a.cols(), b.cols());
    out.zero();
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    for (std::size_t i = 0; i < m; ++i) {
        const float *a_row = a.rowPtr(i);
        const float *b_row = b.rowPtr(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = a_row[p];
            if (av == 0.0f)
                continue;
            float *out_row = out.rowPtr(p);
            for (std::size_t j = 0; j < n; ++j)
                out_row[j] += av * b_row[j];
        }
    }
}

void
adamStep(const AdamConfig &cfg, std::size_t t, std::size_t n,
         const float *grad, float *param, float *mom1, float *mom2)
{
    const float b1t = 1.0f - std::pow(cfg.beta1, static_cast<float>(t));
    const float b2t = 1.0f - std::pow(cfg.beta2, static_cast<float>(t));

    for (std::size_t i = 0; i < n; ++i) {
        const float g = grad[i];
        float &m = mom1[i];
        float &v = mom2[i];
        m = cfg.beta1 * m + (1.0f - cfg.beta1) * g;
        v = cfg.beta2 * v + (1.0f - cfg.beta2) * g * g;
        const float mhat = m / b1t;
        const float vhat = v / b2t;
        param[i] -=
            cfg.learningRate * mhat / (std::sqrt(vhat) + cfg.epsilon);
    }
}

} // namespace twig::nn::reference
