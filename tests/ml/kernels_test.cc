// Bit-identity of the register-tiled kernels and the vectorised optimiser
// updates against plain loops.
//
// The GEMM core holds tiles of C in registers (4-row and 3/2/1-row tails,
// 4-, 2- and 1-column tails, k blocks), but per output element it must
// perform the naive loop's additions in the naive loop's order. The sweep
// compares every element EXPECT_EQ, never within a tolerance, over shapes
// that hit every tile remainder and k-block edge, padded leading
// dimensions and a nonzero starting C; padding must come back untouched.
// AdamOptimizer::Step and kernels::Ema are checked against the scalar
// loops in tests/testing/ml_reference.h, and DenseNet's batched passes
// against the per-sample reference at batch sizes that end in a tile tail.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ml/kernels.h"
#include "ml/mlp.h"
#include "testing/ml_reference.h"
#include "util/rng.h"

namespace staq::ml {
namespace {

constexpr size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 65};
/// Inner dimensions: every tile remainder plus the k-block edges (128).
constexpr size_t kDepths[] = {0,  1,  2,  3,  4,  5,   7,   8,   9,
                              15, 16, 17, 33, 64, 65, 128, 129, 257};

std::vector<double> RandomBuffer(size_t n, util::Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-1, 1);
  return v;
}

/// EXPECT_EQ on every element; stops at the first mismatch so one broken
/// shape reports one line.
void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " element " << i;
    if (got[i] != want[i]) return;
  }
}

std::string Shape(size_t m, size_t k, size_t n, size_t pad) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "m=%zu k=%zu n=%zu pad=%zu", m, k, n, pad);
  return buf;
}

TEST(KernelTest, GemmAccumulateSweepBitIdenticalToNaive) {
  util::Rng rng(17);
  for (size_t m : kSizes) {
    for (size_t k : kDepths) {
      for (size_t n : kSizes) {
        for (size_t pad : {0, 3}) {
          const size_t lda = k + pad, ldb = n + pad, ldc = n + 2 * pad;
          const std::vector<double> a = RandomBuffer(m * lda, &rng);
          const std::vector<double> b = RandomBuffer(k * ldb, &rng);
          std::vector<double> c = RandomBuffer(m * ldc, &rng);
          std::vector<double> naive = c;
          for (size_t i = 0; i < m; ++i) {
            for (size_t kk = 0; kk < k; ++kk) {
              for (size_t j = 0; j < n; ++j) {
                naive[i * ldc + j] += a[i * lda + kk] * b[kk * ldb + j];
              }
            }
          }
          kernels::GemmAccumulate(m, k, n, a.data(), lda, b.data(), ldb,
                                  c.data(), ldc);
          ExpectBitEqual(c, naive, Shape(m, k, n, pad));
        }
      }
    }
  }
}

TEST(KernelTest, GemmAtBSweepBitIdenticalToNaive) {
  util::Rng rng(18);
  for (size_t l : kDepths) {
    for (size_t m : kSizes) {
      for (size_t n : kSizes) {
        for (size_t pad : {0, 3}) {
          const size_t lda = m + pad, ldb = n + pad, ldc = n + 2 * pad;
          const std::vector<double> a = RandomBuffer(l * lda, &rng);
          const std::vector<double> b = RandomBuffer(l * ldb, &rng);
          std::vector<double> c = RandomBuffer(m * ldc, &rng);
          std::vector<double> naive = c;
          for (size_t ll = 0; ll < l; ++ll) {
            for (size_t i = 0; i < m; ++i) {
              for (size_t j = 0; j < n; ++j) {
                naive[i * ldc + j] += a[ll * lda + i] * b[ll * ldb + j];
              }
            }
          }
          kernels::GemmAtB(l, m, n, a.data(), lda, b.data(), ldb, c.data(),
                           ldc);
          ExpectBitEqual(c, naive, Shape(m, l, n, pad));
        }
      }
    }
  }
}

TEST(KernelTest, GemmColumnShapeOfGacTwins) {
  // core/columnar.cc prices trips as Gemm(trips, 5, 1): five GAC parts per
  // trip times the weight column, into a stale output it must overwrite.
  util::Rng rng(19);
  for (size_t trips : {1, 3, 4, 7, 1000, 1003}) {
    const std::vector<double> parts = RandomBuffer(trips * 5, &rng);
    const std::vector<double> weights = RandomBuffer(5, &rng);
    std::vector<double> out(trips, 123.0);
    std::vector<double> naive(trips, 0.0);
    for (size_t t = 0; t < trips; ++t) {
      for (size_t p = 0; p < 5; ++p) naive[t] += parts[t * 5 + p] * weights[p];
    }
    kernels::Gemm(trips, 5, 1, parts.data(), 5, weights.data(), 1, out.data(),
                  1);
    ExpectBitEqual(out, naive, "trips=" + std::to_string(trips));
  }
}

TEST(KernelTest, AdamStepMatchesScalarReference) {
  util::Rng rng(20);
  // 3457 is the parameter count of the SSR nets (20 features, 64/32).
  for (size_t n : {1, 7, 3457}) {
    std::vector<double> fast = RandomBuffer(n, &rng);
    std::vector<double> ref = fast;
    AdamOptimizer opt(n, 1e-3, 1e-4);
    testing::ReferenceAdam ref_opt(n, 1e-3, 1e-4);
    for (int step = 0; step < 20; ++step) {
      std::vector<double> grad = RandomBuffer(n, &rng);
      if (step % 5 == 0) grad[0] = 0.0;  // v_hat = 0 at the first step
      opt.Step(&fast, grad);
      ref_opt.Step(&ref, grad);
      ExpectBitEqual(fast, ref, "n=" + std::to_string(n) + " step " +
                                    std::to_string(step));
    }
  }
}

TEST(KernelTest, EmaMatchesScalarReference) {
  util::Rng rng(21);
  for (size_t n : {1, 7, 3457}) {
    std::vector<double> fast = RandomBuffer(n, &rng);
    std::vector<double> ref = fast;
    for (int step = 0; step < 20; ++step) {
      const std::vector<double> student = RandomBuffer(n, &rng);
      kernels::Ema(n, 0.99, student.data(), fast.data());
      testing::ReferenceEma(0.99, student, &ref);
      ExpectBitEqual(fast, ref, "n=" + std::to_string(n) + " step " +
                                    std::to_string(step));
    }
  }
}

TEST(DenseNetTest, BatchedPassesMatchPerSampleReference) {
  namespace d = testing::ml_reference_detail;
  // Batch 15 is ssr_budget's labeled count (three 4-row tiles and a 3-row
  // tail), 17 ends in a 1-row tail; widths {7, 5} hit the column tails.
  for (const std::vector<size_t>& hidden :
       {std::vector<size_t>{64, 32}, std::vector<size_t>{7, 5}}) {
    for (size_t batch : {15, 17}) {
      const size_t dim = 20;
      util::Rng rng(22);
      DenseNet net(dim, hidden, &rng);
      const std::vector<size_t> dims = d::NetDims(dim, hidden);
      const std::vector<double> x = RandomBuffer(batch * dim, &rng);
      const std::vector<double> dloss = RandomBuffer(batch, &rng);

      DenseNetScratch scratch;
      net.ForwardBatch(x.data(), batch, &scratch);
      std::vector<double> grad(net.num_params(), 0.0);
      net.BackwardBatch(x.data(), batch, dloss, &grad, &scratch);

      std::vector<double> outputs(batch), ref_outputs(batch);
      std::vector<double> ref_grad(net.num_params(), 0.0);
      std::vector<std::vector<double>> acts;
      for (size_t r = 0; r < batch; ++r) {
        outputs[r] = scratch.acts.back()(r, 0);
        ref_outputs[r] =
            d::Forward(net.params(), dims, x.data() + r * dim, &acts);
        d::Backward(net.params(), dims, x.data() + r * dim, acts, dloss[r],
                    &ref_grad);
      }
      const std::string what = "hidden " + std::to_string(hidden[0]) +
                               " batch " + std::to_string(batch);
      ExpectBitEqual(outputs, ref_outputs, what + " outputs");
      ExpectBitEqual(grad, ref_grad, what + " gradient");
    }
  }
}

}  // namespace
}  // namespace staq::ml
