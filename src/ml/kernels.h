// Vectorizable numeric kernels shared by the SSR models.
//
// Everything here operates on raw contiguous row-major buffers (callers
// validate shapes; `__restrict` documents no-aliasing so the compiler can
// vectorize the inner loops without runtime overlap checks).
//
// Determinism contract: every kernel accumulates each *output element* in
// one fixed order — ascending k for the GEMM family, ascending index for
// the reductions — regardless of blocking parameters, so results are
// bit-identical to the straightforward loops they replace. This is what
// lets the models above keep the repo's bit-identical culture while the
// kernels get faster.
//
// GemmAccumulate and GemmAtB share one register tile: up to 4 rows x 4
// columns of C (two 2-wide vector accumulators per row) are loaded once,
// accumulate across the whole k (or l) loop, and are stored once. Each
// lane performs the scalar `c += a * b` in ascending k from C's prior
// value and the build emits no fused multiply-add, so the tile changes
// which loads and stores surround the additions, never the additions.
// DenseNet's backward pass uses the same kernel for the upstream gradient:
// next_delta = local * W^T on a zeroed buffer accumulates ascending j from
// zero, the order of the per-sample W * local product it replaced. The
// element-wise updates (Ema here, AdamOptimizer::Step in mlp.cc) vectorize
// with packed multiply, add, divide and sqrt, which IEEE 754 rounds
// exactly as the scalar instructions do, so every lane equals the scalar
// expression bit for bit (src/ml/ builds with -fno-math-errno so sqrt
// needs no errno branch).
#pragma once

#include <cstddef>

namespace staq::ml::kernels {

/// C (m x n, leading dimension ldc) += A (m x k, lda) * B (k x n, ldb).
/// Accumulates into C in ascending-k order per element — bit-identical to
/// the naive i-k-j triple loop. Buffers must not overlap.
void GemmAccumulate(size_t m, size_t k, size_t n, const double* a, size_t lda,
                    const double* b, size_t ldb, double* c, size_t ldc);

/// C = A * B: zeroes C, then GemmAccumulate.
void Gemm(size_t m, size_t k, size_t n, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n, ldc) += A^T * B for A (l x m, lda) and B (l x n, ldb): rank-1
/// updates in ascending-l order, so each C element accumulates ascending l
/// — the order a per-sample gradient loop accumulates in.
void GemmAtB(size_t l, size_t m, size_t n, const double* a, size_t lda,
             const double* b, size_t ldb, double* c, size_t ldc);

/// y (m) = A (m x k, lda) * x. One accumulator per row, ascending-k.
void Gemv(size_t m, size_t k, const double* a, size_t lda, const double* x,
          double* y);

/// y[i] += alpha * x[i] for i in [0, n).
void Axpy(size_t n, double alpha, const double* x, double* y);

/// y[i] = decay * y[i] + (1 - decay) * x[i] for i in [0, n): an
/// exponential moving average step (Mean Teacher's teacher update).
void Ema(size_t n, double decay, const double* x, double* y);

/// x[i] *= alpha for i in [0, n).
void Scale(size_t n, double alpha, double* x);

/// Sum of a[i] * b[i], single accumulator ascending i.
double Dot(size_t n, const double* a, const double* b);

/// Sum of x[i], single accumulator ascending i.
double ReduceSum(size_t n, const double* x);

/// Sum of (a[i] - b[i])^2, single accumulator ascending i.
double SquaredDistance(size_t n, const double* a, const double* b);

/// Sum of |a[i] - b[i]|, single accumulator ascending i.
double ManhattanDistance(size_t n, const double* a, const double* b);

/// Sum of |a[i] - b[i]|^p for integer p >= 2 via repeated multiplication
/// (no per-element std::pow). For even p the |.| is dropped.
double PowDistanceInt(size_t n, const double* a, const double* b, int p);

}  // namespace staq::ml::kernels
