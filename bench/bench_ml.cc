// SSR training throughput: fast kernels vs the reference fits.
//
// Training is the third cost component of Table II, and the ml rebuild
// made it fast: register-tiled GEMM kernels under ml::Matrix, incremental
// cached kNN screening under COREG, and mini-batch forward/backward for the
// neural models. Each model has one fit path in the library. The
// algorithms they replaced live on as the test-side references in
// tests/testing/ml_reference.h, the same ones the unit tests check against:
//   COREG  ReferenceCoregFit        — full-rescan tentative-add screening
//   MLP    ReferenceMlpFit          — one-sample-at-a-time forward/backward
//   MT     ReferenceMeanTeacherFit  — ditto, plus per-sample noise/teacher
// This bench fits those three models both ways on a Table-VI-like dataset
// (3217·scale zones, 20 features, β = 0.05). Each of the four steps (fast
// fit, fast predict, reference fit, reference predict) runs kRunsPerModel
// times in rounds that interleave them, so both sides sample the same host
// load; a step reports its fastest run, its slowest (`_max`) and the
// spread between them. Every round's predictions (and COREG's pseudo-label
// count) must be bit-identical between the two sides before any timing is
// reported. OLS and GNN have no reference and are timed once.
//
// Every model fits and predicts at its default single thread, so both
// sides of each ratio run on the calling thread and the ratio compares
// code, not thread placement.
//
// Gates: the COREG fit speedup over its reference must be >= 40x; the
// binary exits non-zero otherwise, so CI can run it as a perf regression
// test. bench/baselines/policy.rules holds the same floor, a floor on
// COREG's predict speedup (reference serial PredictOne loop / Predict)
// and floors on the MLP and MT fit speedups.
// Output: paper-style table on stdout and BENCH_ml.json in STAQ_BENCH_OUT.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "ml/coreg.h"
#include "ml/gnn.h"
#include "ml/mean_teacher.h"
#include "ml/mlp.h"
#include "ml/ols.h"
#include "testing/ml_reference.h"
#include "testing_dataset.h"
#include "util/stopwatch.h"

namespace staq::bench {
namespace {

/// COREG fit speedup floor (reference fit / fast fit, each the fastest of
/// kRunsPerModel interleaved runs). Set from repeated perfgate-scale runs;
/// see bench/baselines/policy.rules, which holds the same floor.
constexpr double kCoregFitSpeedupGate = 40.0;

/// Timed runs per step for the models with a reference.
constexpr int kRunsPerModel = 5;

/// Fastest and slowest runs of one side's fit and predict.
struct Timing {
  int runs = 0;
  double fit_s = std::numeric_limits<double>::infinity();
  double fit_s_max = 0.0;
  double predict_s = std::numeric_limits<double>::infinity();
  double predict_s_max = 0.0;
  int pseudo_labels = -1;

  void Fold(double fit, double predict) {
    ++runs;
    fit_s = std::min(fit_s, fit);
    fit_s_max = std::max(fit_s_max, fit);
    predict_s = std::min(predict_s, predict);
    predict_s_max = std::max(predict_s_max, predict);
  }
};

int PseudoLabels(const ml::SsrModel& model) {
  const auto* coreg = dynamic_cast<const ml::Coreg*>(&model);
  return coreg != nullptr ? coreg->pseudo_labels_added() : -1;
}

template <typename Reference>
int PseudoLabels(const Reference& reference) {
  if constexpr (requires { reference.pseudo_labels_added; }) {
    return reference.pseudo_labels_added;
  } else {
    return -1;
  }
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // memcmp-style equality: NaNs would differ, and they should.
    if (a[i] != b[i]) return false;
  }
  return true;
}

struct ModelReport {
  std::string name;
  Timing fast;
  bool has_reference = false;
  Timing reference;
  bool bit_identical = true;
};

/// Fits and predicts once with the model's own path; returns the
/// predictions.
std::vector<double> FitAndPredict(ml::SsrModel* model, const ml::Dataset& data,
                                  Timing* timing) {
  util::Stopwatch watch;
  auto status = model->Fit(data);
  const double fit_s = watch.ElapsedSeconds();
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s Fit failed: %s\n", model->name(),
                 status.ToString().c_str());
    std::exit(1);
  }
  watch.Reset();
  std::vector<double> predictions = model->Predict();
  timing->Fold(fit_s, watch.ElapsedSeconds());
  timing->pseudo_labels = PseudoLabels(*model);
  return predictions;
}

/// kRunsPerModel rounds of: fast fit + predict, then reference fit +
/// predict. bit_identical holds when every round's two sides agree.
template <typename ReferenceFit>
ModelReport CompareWithReference(ml::SsrModel* fast, const ml::Dataset& data,
                                 const ReferenceFit& reference_fit) {
  ModelReport r;
  r.name = fast->name();
  r.has_reference = true;
  for (int round = 0; round < kRunsPerModel; ++round) {
    const std::vector<double> fast_predictions =
        FitAndPredict(fast, data, &r.fast);
    util::Stopwatch watch;
    const auto reference = reference_fit();
    const double fit_s = watch.ElapsedSeconds();
    watch.Reset();
    const std::vector<double> reference_predictions = reference.Predict();
    r.reference.Fold(fit_s, watch.ElapsedSeconds());
    r.reference.pseudo_labels = PseudoLabels(reference);
    r.bit_identical = r.bit_identical &&
                      BitIdentical(fast_predictions, reference_predictions) &&
                      r.fast.pseudo_labels == r.reference.pseudo_labels;
  }
  return r;
}

double Spread(double fastest, double slowest) {
  return slowest / fastest - 1.0;
}

}  // namespace

exp::RunResult RunMlBench() {
  PrintHeader("SSR training throughput: fast kernels vs reference fits");

  const size_t zones = std::max<size_t>(
      64, static_cast<size_t>(std::lround(3217.0 * BenchScale())));
  const size_t features = 20;
  const double beta = 0.05;
  ml::Dataset data = MakeZoneLikeDataset(zones, features, beta, BenchSeed());
  std::printf("  zones=%zu  features=%zu  beta=%.2f  labeled=%zu\n", zones,
              features, beta, data.labeled.size());

  std::vector<ModelReport> reports;

  {
    ModelReport r;
    r.name = "OLS";
    ml::OlsRegressor model;
    FitAndPredict(&model, data, &r.fast);
    reports.push_back(std::move(r));
  }
  {
    ml::MlpConfig config;
    ml::MlpRegressor fast(config);
    reports.push_back(CompareWithReference(
        &fast, data, [&] { return testing::ReferenceMlpFit(data, config); }));
  }
  {
    ml::CoregConfig config;
    ml::Coreg fast(config);
    reports.push_back(CompareWithReference(
        &fast, data, [&] { return testing::ReferenceCoregFit(data, config); }));
  }
  {
    ml::MeanTeacherConfig config;
    ml::MeanTeacher fast(config);
    reports.push_back(CompareWithReference(&fast, data, [&] {
      return testing::ReferenceMeanTeacherFit(data, config);
    }));
  }
  {
    ModelReport r;
    r.name = "GNN";
    ml::GnnRegressor model;
    FitAndPredict(&model, data, &r.fast);
    reports.push_back(std::move(r));
  }

  // Equivalence gate first: a speedup for a path that changes results
  // would be meaningless.
  for (const ModelReport& r : reports) {
    if (r.has_reference && !r.bit_identical) {
      std::fprintf(stderr,
                   "FATAL: %s fast path is not bit-identical to its "
                   "reference\n",
                   r.name.c_str());
      return {1, ""};
    }
  }
  std::printf("  all fast paths bit-identical to their references\n\n");

  std::printf("  best of %d interleaved runs per step for models with a "
              "reference; spread = slowest / fastest - 1\n",
              kRunsPerModel);
  std::printf("  %-7s %10s %7s %10s %12s %7s %12s %9s %9s\n", "model",
              "fit_s", "spread", "predict_s", "ref_fit_s", "spread", "zones/s",
              "fit_spd", "pred_spd");
  for (const ModelReport& r : reports) {
    const Timing& f = r.fast;
    const double zps = static_cast<double>(zones) / f.predict_s;
    if (r.has_reference) {
      const Timing& ref = r.reference;
      std::printf("  %-7s %10.4f %6.1f%% %10.5f %12.4f %6.1f%% %12.0f %8.2fx "
                  "%8.2fx\n",
                  r.name.c_str(), f.fit_s, 100.0 * Spread(f.fit_s, f.fit_s_max),
                  f.predict_s, ref.fit_s,
                  100.0 * Spread(ref.fit_s, ref.fit_s_max), zps,
                  ref.fit_s / f.fit_s, ref.predict_s / f.predict_s);
    } else {
      std::printf("  %-7s %10.4f %7s %10.5f %12s %7s %12.0f %9s %9s\n",
                  r.name.c_str(), f.fit_s, "-", f.predict_s, "-", "-", zps, "-",
                  "-");
    }
  }

  double coreg_speedup = 0.0;
  for (const ModelReport& r : reports) {
    if (r.name == "COREG") coreg_speedup = r.reference.fit_s / r.fast.fit_s;
  }
  bool gate_passed = coreg_speedup >= kCoregFitSpeedupGate;
  std::printf("\n  COREG fit speedup %.2fx (gate >= %.1fx): %s\n",
              coreg_speedup, kCoregFitSpeedupGate,
              gate_passed ? "PASS" : "FAIL");

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "ml");
  w.Fixed("scale", BenchScale(), 4);
  w.Uint("seed", BenchSeed());
  w.Uint("zones", zones);
  w.Uint("features", features);
  w.Fixed("beta", beta, 2);
  w.Uint("labeled", data.labeled.size());
  w.BeginArray("models");
  for (const ModelReport& r : reports) {
    const Timing& f = r.fast;
    w.BeginObject();
    w.String("name", r.name);
    w.Int("runs", f.runs);
    w.Fixed("fit_s", f.fit_s, 6);
    w.Fixed("fit_s_max", f.fit_s_max, 6);
    w.Fixed("fit_spread", Spread(f.fit_s, f.fit_s_max), 4);
    w.Fixed("predict_s", f.predict_s, 6);
    w.Fixed("predict_s_max", f.predict_s_max, 6);
    w.Fixed("predict_spread", Spread(f.predict_s, f.predict_s_max), 4);
    w.Fixed("predict_zones_per_s", static_cast<double>(zones) / f.predict_s, 1);
    if (r.has_reference) {
      const Timing& ref = r.reference;
      w.Fixed("reference_fit_s", ref.fit_s, 6);
      w.Fixed("reference_fit_s_max", ref.fit_s_max, 6);
      w.Fixed("reference_fit_spread", Spread(ref.fit_s, ref.fit_s_max), 4);
      w.Fixed("reference_predict_s", ref.predict_s, 6);
      w.Fixed("reference_predict_s_max", ref.predict_s_max, 6);
      w.Fixed("reference_predict_spread",
              Spread(ref.predict_s, ref.predict_s_max), 4);
      w.Fixed("fit_speedup", ref.fit_s / f.fit_s, 4);
      w.Fixed("predict_speedup", ref.predict_s / f.predict_s, 4);
      w.Bool("bit_identical", true);
    }
    if (f.pseudo_labels >= 0) w.Int("pseudo_labels", f.pseudo_labels);
    w.EndObject();
  }
  w.EndArray();
  w.Fixed("coreg_fit_speedup", coreg_speedup, 4);
  w.Fixed("coreg_fit_speedup_gate", kCoregFitSpeedupGate, 1);
  w.Bool("gate_passed", gate_passed);
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("ml", json);

  int exit_code = gate_passed ? 0 : 1;
  if (!gate_passed && Params().relax_gates) {
    std::printf("  (gate relaxed: reporting only)\n");
    exit_code = 0;
  }
  return {exit_code, std::move(json)};
}

}  // namespace staq::bench
