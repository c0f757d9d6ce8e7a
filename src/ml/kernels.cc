#include "ml/kernels.h"

#include <cmath>
#include <cstring>

namespace staq::ml::kernels {

namespace {

// Register-tiled GEMM core shared by GemmAccumulate and GemmAtB (see the
// header for why the tile keeps results bit-identical). Row tails run 3-,
// 2- and 1-row tiles; column tails a 2-wide vector and a scalar column.
// kKc bounds the k block so the B panel a row of tiles sweeps stays in
// cache when k is large (GNN's dense adjacency products); the tile
// round-trips through C between blocks, which leaves the per-element order
// unchanged.
//
// A is read through strides, A(r, kk) = a[r * a_rs + kk * a_cs], so one core
// serves both A (a_rs = lda, a_cs = 1) and A^T (a_rs = 1, a_cs = lda).

using V2 = double __attribute__((vector_size(16)));

constexpr size_t kMr = 4;
constexpr size_t kKc = 128;

inline V2 Load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store2(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

/// C[0, MR) x [0, 2 * NV) += A B over k steps.
template <size_t MR, size_t NV>
inline void VectorTile(size_t k, const double* a, size_t a_rs, size_t a_cs,
                       const double* b, size_t ldb, double* c, size_t ldc) {
  V2 acc[MR][NV];
  for (size_t r = 0; r < MR; ++r) {
    for (size_t v = 0; v < NV; ++v) acc[r][v] = Load2(c + r * ldc + 2 * v);
  }
  for (size_t kk = 0; kk < k; ++kk) {
    V2 bv[NV];
    for (size_t v = 0; v < NV; ++v) bv[v] = Load2(b + kk * ldb + 2 * v);
    const double* ak = a + kk * a_cs;
    for (size_t r = 0; r < MR; ++r) {
      const double av = ak[r * a_rs];
      const V2 avv = {av, av};
      for (size_t v = 0; v < NV; ++v) acc[r][v] += avv * bv[v];
    }
  }
  for (size_t r = 0; r < MR; ++r) {
    for (size_t v = 0; v < NV; ++v) Store2(c + r * ldc + 2 * v, acc[r][v]);
  }
}

/// C[0, MR) x {0} += A B over k steps: the one-column tail (and the whole
/// of an n = 1 product).
template <size_t MR>
inline void ScalarTile(size_t k, const double* a, size_t a_rs, size_t a_cs,
                       const double* b, size_t ldb, double* c, size_t ldc) {
  double acc[MR];
  for (size_t r = 0; r < MR; ++r) acc[r] = c[r * ldc];
  for (size_t kk = 0; kk < k; ++kk) {
    const double bv = b[kk * ldb];
    const double* ak = a + kk * a_cs;
    for (size_t r = 0; r < MR; ++r) acc[r] += ak[r * a_rs] * bv;
  }
  for (size_t r = 0; r < MR; ++r) c[r * ldc] = acc[r];
}

/// One row of tiles: MR rows of C across all n columns.
template <size_t MR>
void TileRow(size_t k, size_t n, const double* a, size_t a_rs, size_t a_cs,
             const double* b, size_t ldb, double* c, size_t ldc) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    VectorTile<MR, 2>(k, a, a_rs, a_cs, b + j, ldb, c + j, ldc);
  }
  if (j + 2 <= n) {
    VectorTile<MR, 1>(k, a, a_rs, a_cs, b + j, ldb, c + j, ldc);
    j += 2;
  }
  if (j < n) ScalarTile<MR>(k, a, a_rs, a_cs, b + j, ldb, c + j, ldc);
}

/// C (m x n, ldc) += A (m x k, strides a_rs/a_cs) * B (k x n, ldb).
void TiledGemm(size_t m, size_t k, size_t n, const double* a, size_t a_rs,
               size_t a_cs, const double* b, size_t ldb, double* c,
               size_t ldc) {
  if (m == 0 || n == 0) return;
  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t kb = k - k0 < kKc ? k - k0 : kKc;
    const double* ab = a + k0 * a_cs;
    const double* bb = b + k0 * ldb;
    size_t i = 0;
    for (; i + kMr <= m; i += kMr) {
      TileRow<kMr>(kb, n, ab + i * a_rs, a_rs, a_cs, bb, ldb, c + i * ldc,
                   ldc);
    }
    const double* ai = ab + i * a_rs;
    double* ci = c + i * ldc;
    switch (m - i) {
      case 3: TileRow<3>(kb, n, ai, a_rs, a_cs, bb, ldb, ci, ldc); break;
      case 2: TileRow<2>(kb, n, ai, a_rs, a_cs, bb, ldb, ci, ldc); break;
      case 1: TileRow<1>(kb, n, ai, a_rs, a_cs, bb, ldb, ci, ldc); break;
      default: break;
    }
  }
}

}  // namespace

void GemmAccumulate(size_t m, size_t k, size_t n, const double* a, size_t lda,
                    const double* b, size_t ldb, double* c, size_t ldc) {
  TiledGemm(m, k, n, a, lda, 1, b, ldb, c, ldc);
}

void Gemm(size_t m, size_t k, size_t n, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0) return;
  if (ldc == n) {
    std::memset(c, 0, m * n * sizeof(double));
  } else {
    for (size_t i = 0; i < m; ++i) std::memset(c + i * ldc, 0, n * sizeof(double));
  }
  GemmAccumulate(m, k, n, a, lda, b, ldb, c, ldc);
}

void GemmAtB(size_t l, size_t m, size_t n, const double* a, size_t lda,
             const double* b, size_t ldb, double* c, size_t ldc) {
  TiledGemm(m, l, n, a, 1, lda, b, ldb, c, ldc);
}

void Gemv(size_t m, size_t k, const double* a, size_t lda, const double* x,
          double* y) {
  size_t i = 0;
  for (; i + kMr <= m; i += kMr) {
    const double* __restrict a0 = a + (i + 0) * lda;
    const double* __restrict a1 = a + (i + 1) * lda;
    const double* __restrict a2 = a + (i + 2) * lda;
    const double* __restrict a3 = a + (i + 3) * lda;
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (size_t j = 0; j < k; ++j) {
      const double xj = x[j];
      acc0 += a0[j] * xj;
      acc1 += a1[j] * xj;
      acc2 += a2[j] * xj;
      acc3 += a3[j] * xj;
    }
    y[i + 0] = acc0;
    y[i + 1] = acc1;
    y[i + 2] = acc2;
    y[i + 3] = acc3;
  }
  for (; i < m; ++i) {
    const double* __restrict ar = a + i * lda;
    double acc = 0.0;
    for (size_t j = 0; j < k; ++j) acc += ar[j] * x[j];
    y[i] = acc;
  }
}

void Axpy(size_t n, double alpha, const double* x, double* y) {
  const double* __restrict xs = x;
  double* __restrict ys = y;
  for (size_t i = 0; i < n; ++i) ys[i] += alpha * xs[i];
}

void Ema(size_t n, double decay, const double* x, double* y) {
  const double* __restrict xs = x;
  double* __restrict ys = y;
  const double rest = 1.0 - decay;
  for (size_t i = 0; i < n; ++i) ys[i] = decay * ys[i] + rest * xs[i];
}

void Scale(size_t n, double alpha, double* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double Dot(size_t n, const double* a, const double* b) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double ReduceSum(size_t n, const double* x) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double SquaredDistance(size_t n, const double* a, const double* b) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double ManhattanDistance(size_t n, const double* a, const double* b) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

double PowDistanceInt(size_t n, const double* a, const double* b, int p) {
  double acc = 0.0;
  if ((p & 1) == 0) {
    // Even power: |d|^p == d^p, skip the abs.
    for (size_t i = 0; i < n; ++i) {
      const double d = a[i] - b[i];
      double term = d * d;
      for (int e = 2; e < p; e += 2) term *= d * d;
      acc += term;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double d = std::abs(a[i] - b[i]);
      double term = d;
      for (int e = 1; e < p; ++e) term *= d;
      acc += term;
    }
  }
  return acc;
}

}  // namespace staq::ml::kernels
