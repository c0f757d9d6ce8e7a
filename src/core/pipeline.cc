#include "core/pipeline.h"

#include <algorithm>

#include "core/parallel_labeling.h"
#include "util/stopwatch.h"

namespace staq::core {

namespace {

/// Non-negative clamp: MAC and ACSD are costs / dispersions, so negative
/// model outputs are truncated.
void ClampNonNegative(std::vector<double>* values) {
  for (double& v : *values) {
    if (v < 0.0) v = 0.0;
  }
}

/// Fills `out` with ground-truth values at labeled positions and model
/// predictions elsewhere.
std::vector<double> Blend(const std::vector<double>& predictions,
                          const std::vector<uint32_t>& labeled,
                          const std::vector<double>& labels) {
  std::vector<double> out = predictions;
  for (size_t i = 0; i < labeled.size(); ++i) {
    out[labeled[i]] = labels[i];
  }
  return out;
}

}  // namespace

EvaluationMetrics Evaluate(const GroundTruth& truth,
                           const PipelineResult& result) {
  // Metrics are computed over the unlabeled zones: those are the ones the
  // model actually inferred.
  std::vector<uint8_t> is_labeled(truth.mac.size(), 0);
  for (uint32_t z : result.labeled) is_labeled[z] = 1;

  std::vector<double> t_mac, p_mac, t_acsd, p_acsd;
  for (size_t z = 0; z < truth.mac.size(); ++z) {
    if (is_labeled[z]) continue;
    t_mac.push_back(truth.mac[z]);
    p_mac.push_back(result.mac[z]);
    t_acsd.push_back(truth.acsd[z]);
    p_acsd.push_back(result.acsd[z]);
  }

  EvaluationMetrics m;
  if (!t_mac.empty()) {
    m.mac_mae = ml::MeanAbsoluteError(t_mac, p_mac);
    m.mac_corr = ml::PearsonCorrelation(t_mac, p_mac);
    m.acsd_mae = ml::MeanAbsoluteError(t_acsd, p_acsd);
    m.acsd_corr = ml::PearsonCorrelation(t_acsd, p_acsd);

    // Classification uses the full-population thresholds (class boundaries
    // are defined over all zones), then accuracy over the unlabeled set.
    std::vector<int> truth_classes =
        ClassifyAccessibility(truth.mac, truth.acsd);
    std::vector<int> pred_classes =
        ClassifyAccessibility(result.mac, result.acsd);
    std::vector<int> t_cls, p_cls;
    for (size_t z = 0; z < truth.mac.size(); ++z) {
      if (is_labeled[z]) continue;
      t_cls.push_back(truth_classes[z]);
      p_cls.push_back(pred_classes[z]);
    }
    m.class_accuracy = ml::ClassificationAccuracy(t_cls, p_cls);
  }
  m.fie = FairnessIndexError(truth.mac, result.mac);
  return m;
}

SsrPipeline::SsrPipeline(const synth::City* city, gtfs::TimeInterval interval,
                         IsochroneConfig iso_config,
                         router::RouterOptions router_options)
    : city_(city), interval_(interval) {
  util::Stopwatch watch;
  isochrones_ = std::make_unique<IsochroneSet>(*city_, iso_config);
  hop_trees_ = std::make_unique<HopTreeSet>(*city_, *isochrones_, interval_);
  router_ = std::make_unique<router::Router>(&city_->feed, router_options);
  features_ = std::make_unique<FeatureExtractor>(city_, isochrones_.get(),
                                                 hop_trees_.get());
  offline_s_ = watch.ElapsedSeconds();
}

Todam SsrPipeline::BuildGravityTodam(const std::vector<synth::Poi>& pois,
                                     const GravityConfig& gravity,
                                     uint64_t seed) const {
  TodamBuilder builder(city_->zones, pois, interval_, gravity);
  return builder.BuildGravity(seed);
}

util::Result<PipelineResult> RunSsr(
    const synth::City& city, const FeatureExtractor& features_extractor,
    router::Router* router, const std::vector<synth::Poi>& pois,
    const Todam& todam, gtfs::Day day, const PipelineConfig& config,
    const ml::Matrix* precomputed_features, double precomputed_features_s) {
  if (config.cost == CostKind::kGeneralizedCost && !config.gac.Valid()) {
    return util::Status::InvalidArgument(
        "invalid GAC weights (negative λ or non-positive value of time)");
  }

  PipelineResult result;
  util::Stopwatch watch;

  // --- online feature extraction, aggregated to origin level -------------
  watch.Reset();
  ml::Matrix features;
  if (precomputed_features != nullptr) {
    features = *precomputed_features;
    result.timings.features_s = precomputed_features_s;
  } else {
    features = features_extractor.ExtractZoneMatrix(pois, todam.alpha());
    result.timings.features_s = watch.ElapsedSeconds();
  }

  // --- sampling -----------------------------------------------------------
  std::vector<geo::Point> zone_positions;
  zone_positions.reserve(city.zones.size());
  for (const synth::Zone& z : city.zones) {
    zone_positions.push_back(z.centroid);
  }
  auto labeled =
      SelectLabeledZones(config.sampling, city.zones.size(), config.beta,
                         config.seed, &zone_positions, &features);
  if (!labeled.ok()) return labeled.status();
  result.labeled = std::move(labeled).value();

  // --- labeling (SPQs) -----------------------------------------------------
  watch.Reset();
  std::vector<ZoneLabel> labels;
  if (config.labeling_threads > 1) {
    labels = LabelZonesParallel(city, todam, result.labeled, pois,
                                config.cost, day, config.labeling_threads,
                                /*router_options=*/{}, config.gac,
                                &result.spqs);
  } else {
    LabelingEngine labeler(&city, router, config.gac);
    labels = labeler.LabelZones(todam, result.labeled, pois, config.cost, day);
    result.spqs = labeler.spq_count();
  }
  result.timings.labeling_s = watch.ElapsedSeconds();

  std::vector<double> mac_labels(labels.size()), acsd_labels(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    mac_labels[i] = labels[i].mac;
    acsd_labels[i] = labels[i].acsd;
  }

  // --- SSR training + transductive inference, one model per target --------
  watch.Reset();
  ml::Dataset dataset;
  dataset.x = std::move(features);
  dataset.labeled = result.labeled;
  dataset.positions = std::move(zone_positions);

  dataset.y.assign(city.zones.size(), 0.0);
  for (size_t i = 0; i < result.labeled.size(); ++i) {
    dataset.y[result.labeled[i]] = mac_labels[i];
  }
  auto mac_model =
      ml::CreateModel(config.model, config.seed, config.ml_threads);
  STAQ_RETURN_NOT_OK(mac_model->Fit(dataset));
  std::vector<double> mac_pred = mac_model->Predict();

  for (size_t i = 0; i < result.labeled.size(); ++i) {
    dataset.y[result.labeled[i]] = acsd_labels[i];
  }
  auto acsd_model =
      ml::CreateModel(config.model, config.seed + 1, config.ml_threads);
  STAQ_RETURN_NOT_OK(acsd_model->Fit(dataset));
  std::vector<double> acsd_pred = acsd_model->Predict();
  result.timings.training_s = watch.ElapsedSeconds();

  ClampNonNegative(&mac_pred);
  ClampNonNegative(&acsd_pred);
  result.mac = Blend(mac_pred, result.labeled, mac_labels);
  result.acsd = Blend(acsd_pred, result.labeled, acsd_labels);
  return result;
}

util::Result<PipelineResult> SsrPipeline::Run(
    const std::vector<synth::Poi>& pois, const Todam& todam,
    const PipelineConfig& config, const ml::Matrix* precomputed_features,
    double precomputed_features_s) {
  return RunSsr(*city_, *features_, router_.get(), pois, todam,
                interval_.day, config, precomputed_features,
                precomputed_features_s);
}

GroundTruth SsrPipeline::ComputeGroundTruth(
    const std::vector<synth::Poi>& pois, const Todam& todam, CostKind cost,
    router::GacWeights gac, int num_threads) {
  GroundTruth truth;
  util::Stopwatch watch;
  std::vector<uint32_t> all(city_->zones.size());
  for (uint32_t z = 0; z < all.size(); ++z) all[z] = z;
  std::vector<ZoneLabel> labels;
  if (num_threads > 1) {
    labels = LabelZonesParallel(*city_, todam, all, pois, cost, interval_.day,
                                num_threads, /*router_options=*/{}, gac,
                                &truth.spqs);
  } else {
    LabelingEngine labeler(city_, router_.get(), gac);
    labels = labeler.LabelZones(todam, all, pois, cost, interval_.day);
    truth.spqs = labeler.spq_count();
  }
  truth.labeling_s = watch.ElapsedSeconds();

  truth.mac.resize(labels.size());
  truth.acsd.resize(labels.size());
  uint64_t walk_only = 0, trips = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    truth.mac[i] = labels[i].mac;
    truth.acsd[i] = labels[i].acsd;
    walk_only += labels[i].num_walk_only;
    trips += labels[i].num_trips;
  }
  truth.walk_only_fraction =
      trips > 0 ? static_cast<double>(walk_only) / static_cast<double>(trips)
                : 0.0;
  return truth;
}

}  // namespace staq::core
