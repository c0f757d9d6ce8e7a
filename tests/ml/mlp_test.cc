#include "ml/mlp.h"

#include <cmath>

#include <gtest/gtest.h>

#include "testing/test_data.h"

namespace staq::ml {
namespace {

TEST(DenseNetTest, ParameterCountMatchesArchitecture) {
  util::Rng rng(1);
  DenseNet net(4, {8, 4}, &rng);
  // 4*8+8 + 8*4+4 + 4*1+1 = 40 + 36 + 5.
  EXPECT_EQ(net.num_params(), 81u);
  EXPECT_EQ(net.input_dim(), 4u);
}

/// Output column of a batched forward pass over `batch` rows of `x`.
std::vector<double> Outputs(const DenseNet& net, const double* x,
                            size_t batch) {
  DenseNetScratch scratch;
  net.ForwardBatch(x, batch, &scratch);
  std::vector<double> out(batch);
  for (size_t r = 0; r < batch; ++r) out[r] = scratch.acts.back()(r, 0);
  return out;
}

// Three input rows for a 3-feature net; batch 1 uses the first.
constexpr double kRows[9] = {0.7, -1.2, 0.3,  //
                             -0.4, 0.9, 1.5,  //
                             1.1, 0.2, -0.8};

TEST(DenseNetTest, ForwardIsDeterministic) {
  util::Rng rng(2);
  DenseNet net(3, {8}, &rng);
  DenseNetScratch scratch;  // reused across passes of both sizes
  for (size_t batch : {1u, 3u}) {
    const std::vector<double> first = Outputs(net, kRows, batch);
    net.ForwardBatch(kRows, batch, &scratch);
    for (size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(scratch.acts.back()(r, 0), first[r]) << "batch " << batch;
      // A row's output does not depend on the rows batched with it.
      EXPECT_EQ(first[r], Outputs(net, kRows + 3 * r, 1)[0]);
    }
  }
}

TEST(DenseNetTest, GradientMatchesFiniteDifference) {
  util::Rng rng(3);
  DenseNet net(3, {5, 4}, &rng);
  for (size_t batch : {1u, 3u}) {
    // dloss = 1 per sample: the gradient of the summed outputs.
    DenseNetScratch scratch;
    net.ForwardBatch(kRows, batch, &scratch);
    std::vector<double> grad(net.num_params(), 0.0);
    net.BackwardBatch(kRows, batch, std::vector<double>(batch, 1.0), &grad,
                      &scratch);

    auto summed = [&] {
      double sum = 0.0;
      for (double v : Outputs(net, kRows, batch)) sum += v;
      return sum;
    };
    const double eps = 1e-6;
    // Spot-check a spread of parameters against central differences.
    for (size_t p = 0; p < net.num_params(); p += 7) {
      const double saved = net.params()[p];
      net.params()[p] = saved + eps;
      const double up = summed();
      net.params()[p] = saved - eps;
      const double down = summed();
      net.params()[p] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad[p], numeric, 1e-5)
          << "batch " << batch << " param " << p << " analytic " << grad[p]
          << " numeric " << numeric;
    }
  }
}

TEST(DenseNetTest, BackwardAccumulates) {
  util::Rng rng(4);
  DenseNet net(3, {4}, &rng);
  for (size_t batch : {1u, 3u}) {
    DenseNetScratch scratch;
    net.ForwardBatch(kRows, batch, &scratch);
    const std::vector<double> dloss(batch, 1.0);
    std::vector<double> grad(net.num_params(), 0.0);
    net.BackwardBatch(kRows, batch, dloss, &grad, &scratch);
    const std::vector<double> once = grad;
    net.BackwardBatch(kRows, batch, dloss, &grad, &scratch);
    for (size_t p = 0; p < grad.size(); ++p) {
      EXPECT_NEAR(grad[p], 2 * once[p], 1e-12) << "batch " << batch;
    }
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimise (w - 3)^2 for each of 4 params.
  std::vector<double> params(4, 0.0);
  AdamOptimizer opt(4, 0.1, 0.0);
  for (int step = 0; step < 500; ++step) {
    std::vector<double> grad(4);
    for (size_t i = 0; i < 4; ++i) grad[i] = 2 * (params[i] - 3.0);
    opt.Step(&params, grad);
  }
  for (double w : params) EXPECT_NEAR(w, 3.0, 1e-3);
}

TEST(AdamTest, WeightDecayShrinksTowardZero) {
  std::vector<double> params{10.0};
  AdamOptimizer opt(1, 0.05, 0.5);
  for (int step = 0; step < 300; ++step) {
    opt.Step(&params, {0.0});  // no gradient, only decay
  }
  EXPECT_LT(std::abs(params[0]), 1.0);
}

MlpConfig FastMlp(uint64_t seed) {
  MlpConfig config;
  config.epochs = 150;
  config.hidden = {32, 16};
  config.seed = seed;
  return config;
}

TEST(MlpRegressorTest, LearnsLinearFunction) {
  auto data = testing::LinearDataset(250, 3, 100, 0.1, 41);
  MlpRegressor model(FastMlp(1));
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_LT(testing::UnlabeledMae(data, model.Predict()), 0.8);
}

TEST(MlpRegressorTest, LearnsNonlinearFunction) {
  // y = x0^2 + sin(3 x1): beyond OLS, a small MLP should fit it.
  util::Rng rng(42);
  Dataset data;
  size_t n = 400;
  data.x = Matrix(n, 2);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.x(i, 0) = rng.Uniform(-2, 2);
    data.x(i, 1) = rng.Uniform(-2, 2);
    data.y[i] = data.x(i, 0) * data.x(i, 0) + std::sin(3 * data.x(i, 1));
  }
  auto sample = rng.SampleWithoutReplacement(n, 250);
  data.labeled.assign(sample.begin(), sample.end());

  MlpConfig config = FastMlp(2);
  config.epochs = 400;
  MlpRegressor model(config);
  ASSERT_TRUE(model.Fit(data).ok());

  double mlp_mae = testing::UnlabeledMae(data, model.Predict());
  EXPECT_LT(mlp_mae, 0.5);
}

TEST(MlpRegressorTest, DeterministicForSameSeed) {
  auto data = testing::LinearDataset(120, 3, 60, 0.2, 43);
  MlpRegressor a(FastMlp(5)), b(FastMlp(5));
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  EXPECT_EQ(a.Predict(), b.Predict());
}

TEST(MlpRegressorTest, RejectsInvalidDataset) {
  MlpRegressor model;
  EXPECT_FALSE(model.Fit(Dataset{}).ok());
}

TEST(MlpRegressorTest, NameIsStable) {
  EXPECT_STREQ(MlpRegressor().name(), "MLP");
}

}  // namespace
}  // namespace staq::ml
