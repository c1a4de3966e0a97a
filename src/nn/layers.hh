/**
 * @file
 * Neural-network layers: Linear (with Adam state), ReLU, Dropout.
 *
 * Layers process batches (Matrix [batch x features]) and cache what they
 * need for the backward pass. Each Linear layer owns its Adam moment
 * buffers so an optimiser step is a single call on the layer.
 */

#ifndef TWIG_NN_LAYERS_HH
#define TWIG_NN_LAYERS_HH

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "common/rng.hh"
#include "nn/adam.hh"
#include "nn/matrix.hh"

namespace twig::nn {

class ReLU;

/**
 * Fully-connected layer y = x W + b with gradient accumulation and an
 * embedded Adam optimiser state.
 */
class Linear
{
  public:
    /**
     * @param in   input feature count
     * @param out  output feature count
     * @param rng  used for He-uniform weight initialisation
     */
    Linear(std::size_t in, std::size_t out, common::Rng &rng);

    std::size_t inFeatures() const { return weight_.rows(); }
    std::size_t outFeatures() const { return weight_.cols(); }

    /** Forward pass (fused GEMM+bias). With @p train it remembers
     * where @p x is for backward(), which reads it: @p x must stay
     * alive and unchanged until then. It is not copied. */
    void forward(ConstMatrixView x, Matrix &y, bool train = true);

    /**
     * Fused forward through this layer and a ReLU: y = relu(x W + b)
     * in one kernel pass, without materialising the pre-activation.
     * @p y must already be [x.rows x outFeatures()]: a Matrix or a
     * block of rows of one. With @p mask (a train pass) it remembers
     * @p x as forward() does and writes mask[i] = 1 where y[i] > 0,
     * else 0 -- the mask a ReLU's backward() reads, so pass
     * ReLU::primeMask(). With a null mask (an evaluation pass) it
     * writes no mask and remembers nothing.
     */
    void forwardRelu(ConstMatrixView x, MatrixView y, unsigned char *mask);

    /**
     * Backward pass: accumulates weight/bias gradients from @p dy and
     * produces the input gradient in @p dx. It must follow this
     * layer's train-mode forward, whose input it reads.
     *
     * Gradients accumulate across multiple backward() calls until
     * adamStep() or zeroGrad() — this is what lets the BDQ share one
     * advantage module across several agents.
     */
    void backward(ConstMatrixView dy, Matrix &dx);

    /** As backward(), but adds the input gradient into @p dx, which
     * must already be [dy.rows x inFeatures()]: for an input that
     * feeds several layers, whose gradients sum. */
    void backwardAccumulate(ConstMatrixView dy, MatrixView dx);

    /** As backward(), but discards dx (first layer of a network). */
    void backwardNoInputGrad(ConstMatrixView dy);

    /** Scale the accumulated gradients (for 1/K and 1/D rescaling). */
    void scaleGrad(float factor);

    /** Apply one Adam update (nn::adamStep) using the accumulated
     * gradients, then zero them. @p t is the global step counter (for
     * bias correction). */
    void adamStep(const AdamConfig &cfg, std::size_t t);

    /** Zero accumulated gradients without updating parameters. */
    void zeroGrad();

    /** Copy parameters (not optimiser state) from another layer. */
    void copyParamsFrom(const Linear &other);

    /** Re-initialise parameters randomly (transfer learning). */
    void reinitialize(common::Rng &rng);

    /** L2 norm of the accumulated gradient (diagnostics / tests). */
    float gradNorm() const;

    /** Number of parameters (weights + biases). */
    std::size_t paramCount() const { return weight_.size() + bias_.size(); }

    const Matrix &weight() const { return weight_; }
    const std::vector<float> &bias() const { return bias_; }
    /** Accumulated gradients (introspection / gradient checking);
     * empty until the first backward() or adamStep(). */
    const Matrix &gradWeight() const { return gradWeight_; }
    const std::vector<float> &gradBias() const { return gradBias_; }
    Matrix &mutableWeight() { return weight_; }
    std::vector<float> &mutableBias() { return bias_; }

    /** Serialise / deserialise parameters (binary, little-endian host). */
    void save(std::ostream &os) const;
    void load(std::istream &is);

  private:
    /** Size the gradients and Adam moments (zeroed) on first use: a
     * layer that never trains -- every layer of a target network --
     * never holds them. */
    void allocateTrainingState();

    Matrix weight_; // [in x out]
    std::vector<float> bias_;
    Matrix gradWeight_;
    std::vector<float> gradBias_;
    /** The last train-mode forward's input (not owned); data is null
     * before the first. */
    ConstMatrixView input_;

    // Adam moments.
    Matrix mWeight_, vWeight_;
    std::vector<float> mBias_, vBias_;
};

/** Rectified linear unit; caches the mask for backward. */
class ReLU
{
  public:
    void forward(const Matrix &x, Matrix &y);
    /** dx = dy where the forward input was positive, else +0, bit for
     * bit; @p dx may be @p dy. */
    void backward(const Matrix &dy, Matrix &dx) const;

    /**
     * For fused producers (Linear::forwardRelu): size the cached mask
     * for a [rows x cols] activation and hand it to the kernel to
     * fill. backward() then behaves as after a normal forward().
     */
    unsigned char *
    primeMask(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        if (mask_.size() != rows * cols)
            mask_.resize(rows * cols);
        return mask_.data();
    }

  private:
    std::vector<unsigned char> mask_;
    std::size_t rows_ = 0, cols_ = 0;
};

/**
 * Inverted dropout. Active only when `train` is true in forward() and
 * the rate is above 0; otherwise it is the identity, and forward and
 * backward return their input itself: nothing is copied.
 */
class Dropout
{
  public:
    explicit Dropout(float rate) : rate_(rate) {}

    float rate() const { return rate_; }

    /** Returns the output: @p y when active, else @p x. */
    const Matrix &forward(const Matrix &x, Matrix &y, bool train,
                          common::Rng &rng);
    /** Returns the input gradient: @p dx when the last forward was
     * active, else @p dy. */
    const Matrix &backward(const Matrix &dy, Matrix &dx) const;

  private:
    float rate_;
    std::vector<float> mask_;
    bool wasTrain_ = false;
    std::size_t rows_ = 0, cols_ = 0;
};

} // namespace twig::nn

#endif // TWIG_NN_LAYERS_HH
