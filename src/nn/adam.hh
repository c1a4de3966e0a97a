/**
 * @file
 * The Adam optimiser update over a flat parameter array.
 *
 * nn::adamStep is the one kernel every Linear layer's optimiser step
 * runs (once for its weights, once for its bias). Its result is
 * bit-identical to nn::reference::adamStep -- the seed's scalar loop,
 * kept verbatim in matrix_ref.cc as the test oracle -- for every
 * finite input, signed zeros and subnormal gradients, moments and
 * parameters included. See adam.cc for how the fast path keeps that
 * contract while running with subnormals flushed.
 */

#ifndef TWIG_NN_ADAM_HH
#define TWIG_NN_ADAM_HH

#include <cstddef>

namespace twig::nn {

/** Hyper-parameters of the Adam optimiser (paper: lr = 0.0025). */
struct AdamConfig
{
    float learningRate = 0.0025f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
};

/**
 * One Adam update of @p n parameters in place:
 *
 *   m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g g,
 *   param -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
 *
 * with every operation a separately rounded float operation, in
 * exactly this order. @p t is the 1-based global step counter (bias
 * correction). The caller's floating-point modes (MXCSR rounding,
 * flush-to-zero, exception masks) are honoured and unchanged on return.
 */
void adamStep(const AdamConfig &cfg, std::size_t t, std::size_t n,
              const float *grad, float *param, float *m, float *v);

namespace reference {
/** The seed's scalar Adam loop, verbatim (see matrix_ref.cc). */
void adamStep(const AdamConfig &cfg, std::size_t t, std::size_t n,
              const float *grad, float *param, float *m, float *v);
} // namespace reference

} // namespace twig::nn

#endif // TWIG_NN_ADAM_HH
