/**
 * @file
 * Dense row-major matrix of floats — the numeric workhorse of the NN
 * library. Deliberately small: just the operations the layers need,
 * all bounds-checked in debug via assertions.
 *
 * The GEMM entry points below all share one register-blocked,
 * cache-tiled inner kernel (see matrix.cc); the transpose variants
 * pack the transposed operand into a per-thread scratch buffer so the
 * same canonical kernel serves all data layouts. Fused epilogues
 * (bias add, bias+ReLU, accumulate) exist so a Linear layer's forward
 * pass is a single kernel call with no intermediate matrix, and an
 * input gradient can be summed into its destination as it is made.
 * Operands are read, and block outputs written, through views, so a
 * layer can work on a block of rows of a larger matrix in place.
 */

#ifndef TWIG_NN_MATRIX_HH
#define TWIG_NN_MATRIX_HH

#include <cstddef>
#include <vector>

#include "common/error.hh"

namespace twig::nn {

/**
 * Non-owning view of a row-major [rows x cols] matrix whose rows are
 * contiguous: a whole Matrix (which converts to one implicitly) or a
 * block of consecutive rows of one (Matrix::rowBlock).
 */
struct ConstMatrixView
{
    const float *data = nullptr;
    std::size_t rows = 0, cols = 0;

    const float *rowPtr(std::size_t r) const { return data + r * cols; }
};

/** Writable counterpart of ConstMatrixView. */
struct MatrixView
{
    float *data = nullptr;
    std::size_t rows = 0, cols = 0;

    float *rowPtr(std::size_t r) const { return data + r * cols; }
    operator ConstMatrixView() const { return {data, rows, cols}; }
};

/**
 * Row-major dense matrix. A batch of vectors is stored as one row per
 * batch element ([batch x features]).
 */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix initialised to @p fill. */
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &
    operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }

    float
    operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float *rowPtr(std::size_t r) { return data_.data() + r * cols_; }
    const float *
    rowPtr(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** Reset every element to @p value. */
    void
    fill(float value)
    {
        std::fill(data_.begin(), data_.end(), value);
    }

    /** Reset every element to zero. */
    void zero() { fill(0.0f); }

    /**
     * Resize; contents are unspecified afterwards. Capacity is kept, so
     * resizing a scratch matrix between steady-state shapes performs no
     * allocation and no redundant zero-write. Callers that need zeroed
     * storage must call zero() explicitly.
     */
    void
    resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        if (data_.size() != rows * cols)
            data_.resize(rows * cols);
    }

    /** this += other (same shape). */
    void
    addInPlace(const Matrix &other)
    {
        common::panicIf(rows_ != other.rows_ || cols_ != other.cols_,
                        "Matrix::addInPlace shape mismatch");
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] += other.data_[i];
    }

    /** this *= scalar. */
    void
    scaleInPlace(float s)
    {
        for (auto &x : data_)
            x *= s;
    }

    const std::vector<float> &raw() const { return data_; }
    std::vector<float> &raw() { return data_; }

    operator ConstMatrixView() const { return {data(), rows_, cols_}; }
    operator MatrixView() { return {data(), rows_, cols_}; }

    /** Rows [row0, row0 + n) as a view. */
    MatrixView
    rowBlock(std::size_t row0, std::size_t n)
    {
        common::panicIf(row0 + n > rows_, "Matrix::rowBlock out of range");
        return {rowPtr(row0), n, cols_};
    }
    ConstMatrixView
    rowBlock(std::size_t row0, std::size_t n) const
    {
        common::panicIf(row0 + n > rows_, "Matrix::rowBlock out of range");
        return {rowPtr(row0), n, cols_};
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** out = a * b ([m x k] * [k x n] -> [m x n]); out is resized. */
void matmul(ConstMatrixView a, ConstMatrixView b, Matrix &out);

/** out = a * b^T ([m x k] * [n x k]^T -> [m x n]); out is resized. */
void matmulTransposeB(ConstMatrixView a, ConstMatrixView b, Matrix &out);

/**
 * out += a * b^T, accumulating into @p out, which must already be
 * [m x n]: the input-gradient primitive for a destination that sums
 * several layers' input gradients (dx += dy W^T). Each element adds
 * the same product sum matmulTransposeB computes, once.
 */
void matmulTransposeBAccum(ConstMatrixView a, ConstMatrixView b,
                           MatrixView out);

/** out = a^T * b ([m x k]^T * [m x n] -> [k x n]); out is resized. */
void matmulTransposeA(ConstMatrixView a, ConstMatrixView b, Matrix &out);

/**
 * out += a^T * b, accumulating into @p out which must already have
 * shape [k x n]. This is the gradient-accumulation primitive
 * (gradW += x^T dy) — fusing the add avoids a scratch matrix and a
 * second pass over the gradient.
 */
void matmulTransposeAAccum(ConstMatrixView a, ConstMatrixView b,
                           MatrixView out);

/**
 * Fused linear forward: out = a * w + bias (bias broadcast over rows);
 * bias.size() must equal w.cols(). One kernel pass, no intermediate.
 */
void matmulBias(ConstMatrixView a, ConstMatrixView w,
                const std::vector<float> &bias, Matrix &out);

/**
 * Fused linear + ReLU forward: out = relu(a * w + bias). @p mask is
 * resized to out.size() and mask[i] is set to 1 where the
 * pre-activation was positive, 0 elsewhere (the backward pass needs
 * exactly this).
 */
void matmulBiasRelu(ConstMatrixView a, ConstMatrixView w,
                    const std::vector<float> &bias, Matrix &out,
                    std::vector<unsigned char> &mask);

/**
 * As above, into @p out, which must already be [a.rows x w.cols] (a
 * Matrix or a row block of one), with the mask written to
 * @p mask[0 .. out.rows * out.cols) — or not at all when @p mask is
 * null, for an evaluation pass that has no backward.
 */
void matmulBiasRelu(ConstMatrixView a, ConstMatrixView w,
                    const std::vector<float> &bias, MatrixView out,
                    unsigned char *mask);

/**
 * out = a * b for a with many *exact* zeros (e.g. one-hot state
 * slices): skips zero entries of @p a row-wise. On dense (post-init)
 * weights the zero test costs more than it saves — use matmul() there;
 * this variant exists only for genuinely sparse inputs.
 */
void matmulSparseA(const Matrix &a, const Matrix &b, Matrix &out);

/**
 * Naive triple-loop reference kernels (the seed implementation,
 * compiled in their own translation unit at the project's default
 * optimisation level). They define the semantics the tiled kernels are
 * tested against and the baseline perf_kernels measures speedup over.
 */
namespace reference {
void matmul(const Matrix &a, const Matrix &b, Matrix &out);
void matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &out);
void matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &out);
} // namespace reference

} // namespace twig::nn

#endif // TWIG_NN_MATRIX_HH
