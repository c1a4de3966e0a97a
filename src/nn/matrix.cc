/**
 * @file
 * Register-blocked, cache-tiled GEMM kernels.
 *
 * One canonical inner kernel computes C (+)= A * B for row-major B
 * and C, walking MR x NR register tiles of C and streaming the full K
 * extent through each tile. Each of a tile's MR accumulator rows is a
 * named vector local (one AVX-512 register, or two AVX2 registers), so
 * the compiler keeps all of them in registers for the whole K loop; an
 * array of accumulators, as this kernel once used, was loaded and
 * stored through the stack on every multiply-add. A is read through a
 * (row stride, column stride) pair, so the A^T products (the dW = x^T
 * dy gradient) run on the untransposed matrix without a packed copy;
 * matmulTransposeB still packs B^T. The fused epilogues (bias,
 * bias+ReLU with or without its mask, accumulate) are applied at
 * tile-store time so a Linear layer's forward pass is a single memory
 * pass; the ReLU one is written as lane code (reluLanes).
 *
 * Tiling parameters (see DESIGN.md "Performance architecture"):
 *  - MR=6 rows of A per tile: each loaded B row is reused six times
 *    from registers, cutting B traffic 6x versus the row-at-a-time
 *    reference kernel. The m % MR remainder rows run as one tile of
 *    that many rows, not as single-row passes over B.
 *  - NR=16 columns: 6x16 accumulators fit the 16 vector registers of
 *    AVX2 (12 accumulators + B + broadcast) and divide evenly into
 *    SSE/AVX/AVX-512 lanes.
 *  - No K blocking: every GEMM in this repository has K <= 512, so the
 *    B panel a tile streams ([K x NR] <= 32 KiB) stays cache-resident;
 *    deeper blocking would add packing cost for nothing.
 *
 * Every C element sums the same products in the same order (p = 0..k-1,
 * from +0) whatever its tile, strip height or column tail, fused to
 * FMA in the AVX2 and AVX-512 versions and unfused in the baseline one,
 * so results do not depend on the shape of the problem around them.
 *
 * The kernel is compiled once per ISA level via GCC function
 * multiversioning where available: the binary stays portable (SSE2
 * baseline) and the loader picks the AVX2/FMA or AVX-512 version at
 * runtime.
 */

#include "nn/matrix.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/kernel_clones.hh"

namespace twig::nn {

namespace {

constexpr std::size_t MR = 6;  ///< register-tile rows
constexpr std::size_t NR = 16; ///< register-tile columns

/** What happens to a C tile row as it leaves the accumulators. */
struct Epilogue
{
    enum Kind
    {
        Store,      ///< C = acc
        Accumulate, ///< C += acc
        Bias,       ///< C = acc + bias[j]
        BiasRelu,   ///< C = relu(acc + bias[j]), mask recorded if set
    };
    Kind kind = Store;
    const float *bias = nullptr;
    unsigned char *reluMask = nullptr; ///< shaped like C, or null
};

/**
 * Copy columns [j0, j0 + nr) of B (nr < NR) into a per-thread
 * [k x NR] panel whose other columns are zero, so the column tail runs
 * the same constant-trip tile loops as full tiles. Grows to the largest
 * k seen by this thread, then allocates no more.
 */
const float *
packColumnTail(const float *b, std::size_t ldb, std::size_t k,
               std::size_t j0, std::size_t nr)
{
    thread_local std::vector<float> panel;
    if (panel.size() < k * NR)
        panel.resize(k * NR);
    float *dst = panel.data();
    for (std::size_t p = 0; p < k; ++p) {
        const float *src = b + p * ldb + j0;
        float *row = dst + p * NR;
        std::size_t q = 0;
        for (; q < nr; ++q)
            row[q] = src[q];
        for (; q < NR; ++q)
            row[q] = 0.0f;
    }
    return dst;
}

/** NR floats as one 16-lane vector: one AVX-512 register. */
typedef float Lanes16 __attribute__((vector_size(NR * sizeof(float))));

typedef float Lanes8 __attribute__((vector_size(NR * sizeof(float) / 2)));

/** NR floats as two 8-lane halves: two AVX2 registers. Without
 * 512-bit registers a Lanes16 local lives in memory, so the AVX2 and
 * default kernels build their tile rows from these. */
struct Halves
{
    Lanes8 lo, hi;
};

static_assert(sizeof(Lanes16) == NR * sizeof(float) &&
              sizeof(Halves) == NR * sizeof(float));

/** Compare results and mask bytes of the ReLU epilogue. Four-lane
 * vectors are native at every x86-64 level; wider generic vectors
 * without registers that wide compile to per-element code. */
typedef float Lanes4 __attribute__((vector_size(4 * sizeof(float))));
typedef std::int32_t Ints4 __attribute__((vector_size(4 * sizeof(float))));
typedef std::int32_t Ints16 __attribute__((vector_size(NR * sizeof(float))));
typedef unsigned char Bytes16 __attribute__((vector_size(NR)));

/** relu(acc + bias) for four lanes into @p out; returns the compare
 * (all ones where acc + bias > 0, else 0). */
__attribute__((always_inline)) inline Ints4
reluQuarter(const float *__restrict acc, const float *__restrict bias,
            float *__restrict out)
{
    Lanes4 v, b;
    std::memcpy(&v, acc, sizeof v);
    std::memcpy(&b, bias, sizeof b);
    v += b;
    const Ints4 pos = v > Lanes4{};
    Ints4 bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits &= pos;
    std::memcpy(out, &bits, sizeof bits);
    return pos;
}

/**
 * The bias+ReLU epilogue of one NR-column tile row: out = relu(acc +
 * bias) and, when @p mask is set, mask = 1 where acc + bias > 0, else
 * 0. Bit for bit `v > 0 ? v : 0.0f` per lane: the compare is all ones
 * exactly where v > 0 (never for -0 or NaN), the AND keeps those
 * lanes and makes the others +0, and the mask bytes are the compare
 * narrowed to 1 or 0. Written as lane code because the scalar form
 * compiled to a compare and a set per element, even in the AVX-512
 * kernel. That kernel's tile row is one 16-lane register and one
 * narrowing store; the others run four 4-lane quarters and narrow
 * the compares with two saturating packs.
 */
template <class Row>
__attribute__((always_inline)) inline void
reluLanes(const float *__restrict acc, const float *__restrict bias,
          float *__restrict out, unsigned char *__restrict mask)
{
    if constexpr (std::is_same_v<Row, Lanes16>) {
        Lanes16 v, b;
        std::memcpy(&v, acc, sizeof v);
        std::memcpy(&b, bias, sizeof b);
        v += b;
        const Ints16 pos = v > Lanes16{};
        Ints16 bits;
        std::memcpy(&bits, &v, sizeof bits);
        bits &= pos;
        std::memcpy(out, &bits, sizeof bits);
        if (mask != nullptr) {
            const Bytes16 m = __builtin_convertvector(pos & 1, Bytes16);
            std::memcpy(mask, &m, sizeof m);
        }
    } else {
        const Ints4 p0 = reluQuarter(acc, bias, out);
        const Ints4 p1 = reluQuarter(acc + 4, bias + 4, out + 4);
        const Ints4 p2 = reluQuarter(acc + 8, bias + 8, out + 8);
        const Ints4 p3 = reluQuarter(acc + 12, bias + 12, out + 12);
        if (mask == nullptr)
            return;
#if defined(__SSE2__)
        const __m128i all = _mm_packs_epi16(
            _mm_packs_epi32(__m128i(p0), __m128i(p1)),
            _mm_packs_epi32(__m128i(p2), __m128i(p3)));
        const __m128i m = _mm_and_si128(all, _mm_set1_epi8(1));
        std::memcpy(mask, &m, sizeof m);
#else
        const Ints4 quarters[4] = {p0, p1, p2, p3};
        for (std::size_t h = 0; h < 4; ++h)
            for (std::size_t l = 0; l < 4; ++l)
                mask[4 * h + l] =
                    static_cast<unsigned char>(quarters[h][l] & 1);
#endif
    }
}

/**
 * Store one full NR-column accumulator row into C through the
 * epilogue. Kept always_inline so it is compiled inside each ISA
 * version of the kernel rather than as a separate default-ISA
 * function; every loop has the constant trip count NR (a runtime
 * bound here demotes the whole tile to narrow vectors — measured 10x
 * slower).
 */
template <class Row>
__attribute__((always_inline)) inline void
storeRow(float *__restrict crow, const float *__restrict acc,
         std::size_t j0, unsigned char *mrow, const Epilogue &ep)
{
    switch (ep.kind) {
    case Epilogue::Accumulate:
        for (std::size_t q = 0; q < NR; ++q)
            crow[q] += acc[q];
        return;
    case Epilogue::Bias:
        for (std::size_t q = 0; q < NR; ++q)
            crow[q] = acc[q] + ep.bias[j0 + q];
        return;
    case Epilogue::BiasRelu:
        reluLanes<Row>(acc, ep.bias + j0, crow, mrow);
        return;
    case Epilogue::Store:
        for (std::size_t q = 0; q < NR; ++q)
            crow[q] = acc[q];
        return;
    }
}

/** As storeRow, for the nr < NR real columns of a column-tail tile.
 * The ReLU runs its full-width lanes on a bias padded with zeros and
 * keeps the first nr results. */
template <class Row>
__attribute__((always_inline)) inline void
storeTail(float *__restrict crow, const float *__restrict acc,
          std::size_t j0, std::size_t nr, unsigned char *mrow,
          const Epilogue &ep)
{
    switch (ep.kind) {
    case Epilogue::Accumulate:
        for (std::size_t q = 0; q < nr; ++q)
            crow[q] += acc[q];
        return;
    case Epilogue::Bias:
        for (std::size_t q = 0; q < nr; ++q)
            crow[q] = acc[q] + ep.bias[j0 + q];
        return;
    case Epilogue::BiasRelu: {
        float bias[NR] = {}, out[NR];
        unsigned char mask[NR];
        std::memcpy(bias, ep.bias + j0, nr * sizeof(float));
        reluLanes<Row>(acc, bias, out, mask);
        std::memcpy(crow, out, nr * sizeof(float));
        if (mrow != nullptr)
            std::memcpy(mrow, mask, nr);
        return;
    }
    case Epilogue::Store:
        for (std::size_t q = 0; q < nr; ++q)
            crow[q] = acc[q];
        return;
    }
}

/** Unaligned load of NR floats into @p v, half by half for Halves (a
 * whole-struct copy goes through the stack). */
__attribute__((always_inline)) inline void
loadRow(Lanes16 &v, const float *p)
{
    std::memcpy(&v, p, sizeof v);
}

__attribute__((always_inline)) inline void
loadRow(Halves &v, const float *p)
{
    std::memcpy(&v.lo, p, sizeof v.lo);
    std::memcpy(&v.hi, p + NR / 2, sizeof v.hi);
}

/** c += s * b, lane by lane: one multiply-add per lane (fused where
 * the ISA has FMA). */
__attribute__((always_inline)) inline void
madd(Lanes16 &c, float s, const Lanes16 &b)
{
    c += s * b;
}

__attribute__((always_inline)) inline void
madd(Halves &c, float s, const Halves &b)
{
    c.lo += s * b.lo;
    c.hi += s * b.hi;
}

/**
 * acc_r = A[R x k] * B[k x NR] for one register tile of R <= MR rows.
 * A's element (r, p) is a[r * rs + p * cs], so a row-major A
 * (rs = lda, cs = 1) and a transposed view of one (rs = 1, cs = lda)
 * run the same loop with no packing. Each accumulator row is its own
 * named local of type Row, so it stays in registers across the whole
 * K extent; every C element sums its products in p order, one
 * multiply-add per product.
 */
template <class Row, std::size_t R>
__attribute__((always_inline)) inline void
tileRows(const float *__restrict a, std::size_t rs, std::size_t cs,
         const float *__restrict b, std::size_t ldb, std::size_t k,
         float (&out)[MR][NR])
{
    static_assert(R >= 1 && R <= MR);
    Row c0 = {}, c1 = {}, c2 = {}, c3 = {}, c4 = {}, c5 = {};
    for (std::size_t p = 0; p < k; ++p) {
        Row bv;
        loadRow(bv, b + p * ldb);
        const float *__restrict ap = a + p * cs;
        madd(c0, ap[0], bv);
        if constexpr (R > 1)
            madd(c1, ap[rs], bv);
        if constexpr (R > 2)
            madd(c2, ap[2 * rs], bv);
        if constexpr (R > 3)
            madd(c3, ap[3 * rs], bv);
        if constexpr (R > 4)
            madd(c4, ap[4 * rs], bv);
        if constexpr (R > 5)
            madd(c5, ap[5 * rs], bv);
    }
    // Row by row: gathering the rows into an array first let GCC move
    // the AVX2 accumulators to the stack inside the loop.
    std::memcpy(out[0], &c0, sizeof c0);
    std::memcpy(out[1], &c1, sizeof c1);
    std::memcpy(out[2], &c2, sizeof c2);
    std::memcpy(out[3], &c3, sizeof c3);
    std::memcpy(out[4], &c4, sizeof c4);
    std::memcpy(out[5], &c5, sizeof c5);
}

/**
 * One R-row strip of C: every NR-column tile of rows [i, i + R), the
 * n % NR column tail from the zero-padded @p tail panel.
 */
template <class Row, std::size_t R>
__attribute__((always_inline)) inline void
tileStrip(std::size_t i, std::size_t n, std::size_t k,
          const float *__restrict a, std::size_t rs, std::size_t cs,
          const float *__restrict b, std::size_t ldb,
          const float *__restrict tail, float *__restrict c,
          std::size_t ldc, const Epilogue &ep)
{
    const float *ap = a + i * rs;
    const std::size_t nFull = n - n % NR;
    // The mask, when there is one, has C's shape.
    const auto maskAt = [&](std::size_t row, std::size_t j) {
        return ep.reluMask != nullptr ? ep.reluMask + row * ldc + j
                                      : nullptr;
    };
    float out[MR][NR];
    for (std::size_t j = 0; j < nFull; j += NR) {
        tileRows<Row, R>(ap, rs, cs, b + j, ldb, k, out);
        for (std::size_t r = 0; r < R; ++r)
            storeRow<Row>(c + (i + r) * ldc + j, out[r], j,
                          maskAt(i + r, j), ep);
    }
    if (nFull != n) {
        tileRows<Row, R>(ap, rs, cs, tail, NR, k, out);
        for (std::size_t r = 0; r < R; ++r)
            storeTail<Row>(c + (i + r) * ldc + nFull, out[r], nFull,
                           n - nFull, maskAt(i + r, nFull), ep);
    }
}

/**
 * The canonical kernel: C (+)= A[m x k] * B[k x n], B and C row-major
 * with leading dimensions ldb/ldc, A read through the (rs, cs) stride
 * pair of tileRows. Every public GEMM below lands here.
 *
 * Rows run in MR-row strips, the m % MR remainder as one strip of that
 * many rows. Every tile, the n % NR column tail included, runs the
 * constant-width loop of tileRows: the tail tiles read a zero-padded
 * copy of B's last columns and store only the real ones. Each C
 * element sums the same products in the same order in every strip and
 * tile shape, so neither the padding nor the strip height changes a
 * bit.
 */
template <class Row>
__attribute__((always_inline)) inline void
gemm(std::size_t m, std::size_t n, std::size_t k,
     const float *__restrict a, std::size_t rs, std::size_t cs,
     const float *__restrict b, std::size_t ldb, float *__restrict c,
     std::size_t ldc, const Epilogue &ep)
{
    const std::size_t nr = n % NR;
    const float *tail =
        nr != 0 ? packColumnTail(b, ldb, k, n - nr, nr) : nullptr;

    std::size_t i = 0;
    for (; i + MR <= m; i += MR)
        tileStrip<Row, MR>(i, n, k, a, rs, cs, b, ldb, tail, c, ldc, ep);
    switch (m - i) {
    case 1:
        tileStrip<Row, 1>(i, n, k, a, rs, cs, b, ldb, tail, c, ldc, ep);
        break;
    case 2:
        tileStrip<Row, 2>(i, n, k, a, rs, cs, b, ldb, tail, c, ldc, ep);
        break;
    case 3:
        tileStrip<Row, 3>(i, n, k, a, rs, cs, b, ldb, tail, c, ldc, ep);
        break;
    case 4:
        tileStrip<Row, 4>(i, n, k, a, rs, cs, b, ldb, tail, c, ldc, ep);
        break;
    case 5:
        tileStrip<Row, 5>(i, n, k, a, rs, cs, b, ldb, tail, c, ldc, ep);
        break;
    default:
        break;
    }
}

/*
 * gemmKernel: one version per ISA level, picked by the loader like the
 * TWIG_KERNEL_CLONES kernels (GCC function multiversioning, so also
 * only where TWIG_HAVE_KERNEL_CLONES), because the AVX-512 version's
 * tile rows are a different type.
 */
#if TWIG_HAVE_KERNEL_CLONES
__attribute__((target("arch=x86-64-v4"))) void
gemmKernel(std::size_t m, std::size_t n, std::size_t k, const float *a,
           std::size_t rs, std::size_t cs, const float *b, std::size_t ldb,
           float *c, std::size_t ldc, const Epilogue ep)
{
    gemm<Lanes16>(m, n, k, a, rs, cs, b, ldb, c, ldc, ep);
}

__attribute__((target("arch=x86-64-v3"))) void
gemmKernel(std::size_t m, std::size_t n, std::size_t k, const float *a,
           std::size_t rs, std::size_t cs, const float *b, std::size_t ldb,
           float *c, std::size_t ldc, const Epilogue ep)
{
    gemm<Halves>(m, n, k, a, rs, cs, b, ldb, c, ldc, ep);
}

__attribute__((target("default")))
#endif
void
gemmKernel(std::size_t m, std::size_t n, std::size_t k, const float *a,
           std::size_t rs, std::size_t cs, const float *b, std::size_t ldb,
           float *c, std::size_t ldc, const Epilogue ep)
{
    gemm<Halves>(m, n, k, a, rs, cs, b, ldb, c, ldc, ep);
}

/**
 * Pack src^T ([rows x cols] -> [cols x rows]) into a per-thread scratch
 * panel. The buffer grows to the largest shape seen by this thread and
 * is then reused: zero allocations at steady state, and safe under the
 * thread pool because each worker owns its own panel.
 */
const float *
packTranspose(ConstMatrixView src)
{
    thread_local std::vector<float> panel;
    const std::size_t rows = src.rows, cols = src.cols;
    if (panel.size() < rows * cols)
        panel.resize(rows * cols);
    float *dst = panel.data();
    for (std::size_t r = 0; r < rows; ++r) {
        const float *srow = src.rowPtr(r);
        for (std::size_t c = 0; c < cols; ++c)
            dst[c * rows + r] = srow[c];
    }
    return dst;
}

} // namespace

void
matmul(ConstMatrixView a, ConstMatrixView b, Matrix &out)
{
    common::panicIf(a.cols != b.rows, "matmul: inner dims differ");
    out.resize(a.rows, b.cols);
    gemmKernel(a.rows, b.cols, a.cols, a.data, a.cols, 1, b.data, b.cols,
               out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeB(ConstMatrixView a, ConstMatrixView b, Matrix &out)
{
    common::panicIf(a.cols != b.cols, "matmulTransposeB: dims differ");
    out.resize(a.rows, b.rows);
    const float *bt = packTranspose(b); // [k x n]
    gemmKernel(a.rows, b.rows, a.cols, a.data, a.cols, 1, bt, b.rows,
               out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeBAccum(ConstMatrixView a, ConstMatrixView b, MatrixView out)
{
    common::panicIf(a.cols != b.cols,
                    "matmulTransposeBAccum: dims differ");
    common::panicIf(out.rows != a.rows || out.cols != b.rows,
                    "matmulTransposeBAccum: out must be [m x n]");
    const float *bt = packTranspose(b); // [k x n]
    Epilogue ep;
    ep.kind = Epilogue::Accumulate;
    gemmKernel(a.rows, b.rows, a.cols, a.data, a.cols, 1, bt, b.rows,
               out.data, out.cols, ep);
}

void
matmulTransposeA(ConstMatrixView a, ConstMatrixView b, Matrix &out)
{
    common::panicIf(a.rows != b.rows, "matmulTransposeA: dims differ");
    out.resize(a.cols, b.cols);
    // A^T(i, p) = a(p, i): row stride 1, column stride a.cols.
    gemmKernel(a.cols, b.cols, a.rows, a.data, 1, a.cols, b.data, b.cols,
               out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeAAccum(ConstMatrixView a, ConstMatrixView b, MatrixView out)
{
    common::panicIf(a.rows != b.rows,
                    "matmulTransposeAAccum: dims differ");
    common::panicIf(out.rows != a.cols || out.cols != b.cols,
                    "matmulTransposeAAccum: out must be [k x n]");
    Epilogue ep;
    ep.kind = Epilogue::Accumulate;
    gemmKernel(a.cols, b.cols, a.rows, a.data, 1, a.cols, b.data, b.cols,
               out.data, out.cols, ep);
}

void
matmulBias(ConstMatrixView a, ConstMatrixView w,
           const std::vector<float> &bias, Matrix &out)
{
    common::panicIf(a.cols != w.rows, "matmulBias: inner dims differ");
    common::panicIf(bias.size() != w.cols,
                    "matmulBias: bias width mismatch");
    out.resize(a.rows, w.cols);
    Epilogue ep;
    ep.kind = Epilogue::Bias;
    ep.bias = bias.data();
    gemmKernel(a.rows, w.cols, a.cols, a.data, a.cols, 1, w.data, w.cols,
               out.data(), out.cols(), ep);
}

void
matmulBiasRelu(ConstMatrixView a, ConstMatrixView w,
               const std::vector<float> &bias, Matrix &out,
               std::vector<unsigned char> &mask)
{
    out.resize(a.rows, w.cols);
    if (mask.size() != out.size())
        mask.resize(out.size());
    matmulBiasRelu(a, w, bias, MatrixView(out), mask.data());
}

void
matmulBiasRelu(ConstMatrixView a, ConstMatrixView w,
               const std::vector<float> &bias, MatrixView out,
               unsigned char *mask)
{
    common::panicIf(a.cols != w.rows,
                    "matmulBiasRelu: inner dims differ");
    common::panicIf(bias.size() != w.cols,
                    "matmulBiasRelu: bias width mismatch");
    common::panicIf(out.rows != a.rows || out.cols != w.cols,
                    "matmulBiasRelu: out must be [m x n]");
    Epilogue ep;
    ep.kind = Epilogue::BiasRelu;
    ep.bias = bias.data();
    ep.reluMask = mask;
    gemmKernel(a.rows, w.cols, a.cols, a.data, a.cols, 1, w.data, w.cols,
               out.data, out.cols, ep);
}

void
matmulSparseA(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.rows(),
                    "matmulSparseA: inner dims differ");
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

} // namespace twig::nn
