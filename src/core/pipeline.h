// End-to-end SSR solution (paper Fig. 1): offline pre-computation, online
// feature extraction, β-budget sampling, labeling via SPQs, SSR training
// and transductive inference — with per-stage wall-clock accounting so the
// Table-II cost comparison can be reproduced.
#pragma once

#include <memory>
#include <vector>

#include "core/active_learning.h"
#include "core/features.h"
#include "core/hoptree.h"
#include "core/isochrone.h"
#include "core/labeling.h"
#include "core/measures.h"
#include "core/sampling.h"
#include "core/todam.h"
#include "ml/metrics.h"
#include "ml/model_factory.h"
#include "router/router.h"
#include "synth/city_builder.h"

namespace staq::core {

/// Per-run configuration (one cell of the paper's sweeps).
struct PipelineConfig {
  double beta = 0.05;
  ml::ModelKind model = ml::ModelKind::kMlp;
  CostKind cost = CostKind::kJourneyTime;
  router::GacWeights gac;
  uint64_t seed = 1;
  /// How the labeled set L is chosen (paper default: random; the other
  /// strategies implement the §VI active-learning future-work item).
  SamplingStrategy sampling = SamplingStrategy::kRandom;
  /// Worker threads for the labeling stage (1 = serial, as the paper).
  int labeling_threads = 1;
  /// Worker threads for SSR model training (COREG pool screening, MLP
  /// gradient chunks). Training results are bit-identical for every value.
  int ml_threads = 1;
};

/// Wall-clock attribution across the solution's stages (seconds).
struct StageTimings {
  double features_s = 0.0;
  double labeling_s = 0.0;
  double training_s = 0.0;

  /// The end-to-end online cost Table II reports for the SSR solution.
  double TotalSeconds() const { return features_s + labeling_s + training_s; }
};

/// Output of one SSR run: predicted measures for every zone. Labeled zones
/// carry their exactly computed values; unlabeled zones carry model
/// predictions (clamped to be non-negative).
struct PipelineResult {
  std::vector<double> mac;
  std::vector<double> acsd;
  std::vector<uint32_t> labeled;
  StageTimings timings;
  uint64_t spqs = 0;
};

/// The naive baseline: every zone labeled exactly.
struct GroundTruth {
  std::vector<double> mac;
  std::vector<double> acsd;
  double labeling_s = 0.0;
  uint64_t spqs = 0;
  double walk_only_fraction = 0.0;
};

/// The Fig. 3 / Fig. 4 quality metrics of one run against ground truth,
/// computed over the unlabeled zones (the inference targets).
struct EvaluationMetrics {
  double mac_mae = 0.0;
  double mac_corr = 0.0;
  double acsd_mae = 0.0;
  double acsd_corr = 0.0;
  double class_accuracy = 0.0;
  double fie = 0.0;  // fairness index error, over all zones
};

EvaluationMetrics Evaluate(const GroundTruth& truth,
                           const PipelineResult& result);

/// One SSR run against explicit collaborators: feature extraction, β-budget
/// sampling, labeling through `router`, SSR training, and transductive
/// inference. This is the body of SsrPipeline::Run, exposed so callers that
/// share one set of offline structures across many threads (the serve
/// subsystem) can pass a per-thread router — Router scratch is not
/// shareable. `pois` may differ from `city.pois` (scenario edits).
util::Result<PipelineResult> RunSsr(
    const synth::City& city, const FeatureExtractor& features,
    router::Router* router, const std::vector<synth::Poi>& pois,
    const Todam& todam, gtfs::Day day, const PipelineConfig& config,
    const ml::Matrix* precomputed_features = nullptr,
    double precomputed_features_s = 0.0);

/// Orchestrates the full solution over one city and time interval. The
/// constructor performs the offline phase (isochrones + hop trees + router
/// tables) and records its cost separately.
class SsrPipeline {
 public:
  SsrPipeline(const synth::City* city, gtfs::TimeInterval interval,
              IsochroneConfig iso_config = {},
              router::RouterOptions router_options = {});

  const synth::City& city() const { return *city_; }
  const gtfs::TimeInterval& interval() const { return interval_; }
  double offline_seconds() const { return offline_s_; }
  const IsochroneSet& isochrones() const { return *isochrones_; }
  const HopTreeSet& hop_trees() const { return *hop_trees_; }
  const FeatureExtractor& feature_extractor() const { return *features_; }

  /// Builds the gravity TODAM M_g over a POI set.
  Todam BuildGravityTodam(const std::vector<synth::Poi>& pois,
                          const GravityConfig& gravity, uint64_t seed) const;

  /// One SSR run. `todam` must have been built over `pois`.
  ///
  /// When sweeping β / model / cost over a fixed POI set (Figs. 3 and 4),
  /// the zone feature matrix is identical across runs; pass it via
  /// `precomputed_features` (with the wall-clock it cost via
  /// `precomputed_features_s`) to avoid re-extracting, and the timing is
  /// carried into the result unchanged.
  util::Result<PipelineResult> Run(
      const std::vector<synth::Poi>& pois, const Todam& todam,
      const PipelineConfig& config,
      const ml::Matrix* precomputed_features = nullptr,
      double precomputed_features_s = 0.0);

  /// The naive baseline: labels every zone with SPQs (paper Table II
  /// "Label Cost"). `num_threads` > 1 parallelises the SPQ sweep.
  GroundTruth ComputeGroundTruth(const std::vector<synth::Poi>& pois,
                                 const Todam& todam, CostKind cost,
                                 router::GacWeights gac = {},
                                 int num_threads = 1);

 private:
  const synth::City* city_;
  gtfs::TimeInterval interval_;
  double offline_s_ = 0.0;
  std::unique_ptr<IsochroneSet> isochrones_;
  std::unique_ptr<HopTreeSet> hop_trees_;
  std::unique_ptr<router::Router> router_;
  std::unique_ptr<FeatureExtractor> features_;
};

}  // namespace staq::core
