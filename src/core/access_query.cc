#include "core/access_query.h"

#include "ml/kernels.h"
#include "serve/server.h"
#include "util/check.h"

namespace staq::core {

void FinalizeAccessQueryResult(const std::vector<synth::Zone>& zones,
                               AccessQueryResult* result) {
  result->classes = ClassifyAccessibility(result->mac, result->acsd);
  result->mean_mac = 0.0;
  result->mean_acsd = 0.0;
  for (size_t z = 0; z < result->mac.size(); ++z) {
    result->mean_mac += result->mac[z];
    result->mean_acsd += result->acsd[z];
  }
  result->mean_mac /= static_cast<double>(result->mac.size());
  result->mean_acsd /= static_cast<double>(result->acsd.size());

  result->fairness = JainIndex(result->mac);
  std::vector<double> pop_weights, vulnerable_weights;
  pop_weights.reserve(zones.size());
  vulnerable_weights.reserve(zones.size());
  for (const synth::Zone& z : zones) {
    pop_weights.push_back(z.population);
    vulnerable_weights.push_back(z.population * z.vulnerability);
  }
  result->population_fairness = WeightedJainIndex(result->mac, pop_weights);
  result->vulnerable_fairness =
      WeightedJainIndex(result->mac, vulnerable_weights);
}

void FinalizeAccessQueryResultColumnar(const std::vector<synth::Zone>& zones,
                                       AccessQueryResult* result) {
  result->classes = ClassifyAccessibilityColumnar(result->mac, result->acsd);
  size_t n = result->mac.size();
  result->mean_mac = ml::kernels::ReduceSum(n, result->mac.data()) /
                     static_cast<double>(n);
  result->mean_acsd = ml::kernels::ReduceSum(n, result->acsd.data()) /
                      static_cast<double>(n);

  result->fairness = JainIndexColumnar(result->mac);
  std::vector<double> pop_weights, vulnerable_weights;
  pop_weights.reserve(zones.size());
  vulnerable_weights.reserve(zones.size());
  for (const synth::Zone& z : zones) {
    pop_weights.push_back(z.population);
    vulnerable_weights.push_back(z.population * z.vulnerability);
  }
  result->population_fairness =
      WeightedJainIndexColumnar(result->mac, pop_weights);
  result->vulnerable_fairness =
      WeightedJainIndexColumnar(result->mac, vulnerable_weights);
}

namespace {

/// One worker: a synchronous caller never has more than one request in
/// flight.
constexpr size_t kEngineThreads = 1;

serve::AqServer::Options EngineServerOptions() {
  serve::AqServer::Options options;
  options.num_threads = kEngineThreads;
  return options;
}

}  // namespace

AccessQueryEngine::AccessQueryEngine(synth::City city,
                                     gtfs::TimeInterval interval)
    : interval_(interval),
      server_(std::make_unique<serve::AqServer>(std::move(city), interval,
                                                EngineServerOptions())) {}

AccessQueryEngine::~AccessQueryEngine() = default;

const synth::City& AccessQueryEngine::city() const {
  return server_->base_city();
}

double AccessQueryEngine::offline_seconds() const {
  return server_->Snapshot()->offline().build_seconds;
}

util::Result<AccessQueryResult> AccessQueryEngine::Query(
    synth::PoiCategory category, const AccessQueryOptions& options) {
  return server_->Query(serve::AqRequest{category, options});
}

uint32_t AccessQueryEngine::AddPoi(synth::PoiCategory category,
                                   const geo::Point& position) {
  auto report = server_->AddPoi(category, position);
  // Mutations fail only on an escaped exception (resource exhaustion or an
  // injected fault), and this signature has no error channel.
  STAQ_CHECK(report.ok(), "AccessQueryEngine::AddPoi mutation failed");
  return report.value().poi_id;
}

util::Status AccessQueryEngine::RemovePoi(uint32_t poi_id) {
  return server_->RemovePoi(poi_id).status();
}

void AccessQueryEngine::SetInterval(const gtfs::TimeInterval& interval) {
  auto report = server_->SetInterval(interval);
  STAQ_CHECK(report.ok(), "AccessQueryEngine::SetInterval mutation failed");
  interval_ = interval;
}

}  // namespace staq::core
