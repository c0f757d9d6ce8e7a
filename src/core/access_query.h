// Dynamic access queries — the library's user-facing API (paper §I, §III).
//
// An AccessQueryEngine wraps a city and answers analytical access queries:
// "what is the aggregate access cost to <POI category> in <time interval>,
// how does it vary across zones, and how fairly is it distributed?" —
// either exactly (full labeling, the naive baseline) or via the SSR
// solution at a chosen labeling budget.
//
// The engine supports the *dynamic* part of the paper's motivation: POIs
// can be added or removed (e.g. testing a new vaccination-centre site) and
// the analysis interval can be changed (re-running the offline phase);
// subsequent queries reflect the updated scenario.
//
// The engine is a synchronous front door over one serve::AqServer
// (serve/server.h): every query, mutation and interval switch is forwarded
// to it, so library answers are exactly the server's — the edit-stable
// TODAM routed on the Connection Scan engine.
#pragma once

#include <memory>
#include <vector>

#include "core/gravity.h"
#include "core/labeling.h"
#include "core/measures.h"
#include "ml/model_factory.h"
#include "router/cost.h"
#include "synth/city_builder.h"

namespace staq::serve {
class AqServer;
}  // namespace staq::serve

namespace staq::core {

/// Options for one access query.
struct AccessQueryOptions {
  /// false: SSR solution at `beta`; true: exact full labeling.
  bool exact = false;
  double beta = 0.05;
  ml::ModelKind model = ml::ModelKind::kMlp;
  CostKind cost = CostKind::kJourneyTime;
  GravityConfig gravity;
  router::GacWeights gac;
  uint64_t seed = 1;
};

/// Answer to an access query: the zone-level measures of §III-D plus
/// summary statistics and cost accounting.
struct AccessQueryResult {
  std::vector<double> mac;   // per zone
  std::vector<double> acsd;  // per zone
  std::vector<int> classes;  // AccessClass per zone
  double mean_mac = 0.0;
  double mean_acsd = 0.0;
  double fairness = 0.0;             // Jain index over MAC
  double population_fairness = 0.0;  // population-weighted
  double vulnerable_fairness = 0.0;  // weighted by population x vulnerability
  uint64_t spqs = 0;
  double elapsed_s = 0.0;
  uint64_t gravity_trips = 0;
};

/// Assembles the user-facing answer from zone-level measures: classes,
/// summary means, and the three fairness indices. Used by the serve
/// subsystem (serve/server.h); `result.mac`/`result.acsd` must already be
/// populated.
void FinalizeAccessQueryResult(const std::vector<synth::Zone>& zones,
                               AccessQueryResult* result);

/// Kernel-backed FinalizeAccessQueryResult, bit-identical to the scalar
/// form (which stays as the foil): the summary means, classes and the
/// three Jain indices reduce through the columnar measure variants.
void FinalizeAccessQueryResultColumnar(const std::vector<synth::Zone>& zones,
                                       AccessQueryResult* result);

/// Owns a city (through its server) and answers access queries against it.
/// Batch sweeps go to the server directly: serve::AqBatchRequest.
class AccessQueryEngine {
 public:
  /// Takes ownership of the city. The offline phase for `interval` runs
  /// immediately.
  AccessQueryEngine(synth::City city, gtfs::TimeInterval interval);
  ~AccessQueryEngine();

  AccessQueryEngine(const AccessQueryEngine&) = delete;
  AccessQueryEngine& operator=(const AccessQueryEngine&) = delete;

  /// The city as constructed: zones, network and the initial POI set.
  /// POI edits live in the server's current scenario.
  const synth::City& city() const;
  const gtfs::TimeInterval& interval() const { return interval_; }
  /// Wall-clock of the current interval's offline phase.
  double offline_seconds() const;

  /// Answers an AQ for one POI category under the current scenario.
  util::Result<AccessQueryResult> Query(synth::PoiCategory category,
                                        const AccessQueryOptions& options);

  /// Dynamic scenario edit: adds a POI (e.g. a candidate facility site).
  /// Returns its id. Takes effect on the next Query().
  uint32_t AddPoi(synth::PoiCategory category, const geo::Point& position);

  /// Dynamic scenario edit: removes a POI by id. NotFound if absent.
  util::Status RemovePoi(uint32_t poi_id);

  /// Switches the analysis interval, re-running the offline phase (hop
  /// trees are interval-specific).
  void SetInterval(const gtfs::TimeInterval& interval);

 private:
  gtfs::TimeInterval interval_;
  std::unique_ptr<serve::AqServer> server_;
};

}  // namespace staq::core
