// The traced path: one request broken into the public library calls the
// server makes for it, each timed from here. The decomposed answer must be
// bit-identical to the server's, so the traced run measures the same
// program the untraced run does.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "core/labeling.h"
#include "router/router.h"
#include "serve/request.h"
#include "serve/scenario.h"
#include "serve/server.h"

namespace perfbench {

/// Per-thread router + labeling engine over one scenario's network, the
/// same pair an AqServer worker leases.
struct RoutingContext {
  explicit RoutingContext(const staq::serve::Scenario& scenario)
      : router(&scenario.base_city().feed, scenario.router_options()),
        engine(&scenario.base_city(), &router) {}
  staq::router::Router router;
  staq::core::LabelingEngine engine;
};

/// Per-layer samples gathered by decomposed requests. Each thread fills its
/// own and merges at the end.
struct LayerSamples {
  std::vector<double> todam_ms;
  std::vector<double> gravity_trips;
  std::vector<double> label_zone_us;
  std::vector<double> finalize_us;
  double label_s = 0.0;  // wall time spent in LabelZone calls
  uint64_t spqs = 0;
  uint64_t expansions = 0;
  uint64_t labeled_requests = 0;
  std::vector<double> features_ms;
  std::vector<double> ssr_label_ms;
  std::vector<double> ssr_spqs;
  std::map<std::string, std::vector<double>> train_ms;  // by model name

  void Merge(const LayerSamples& other);
};

/// Exact request, decomposed: StableGravityNorms + BuildGravityStable
/// (core.todam), LabelZone per zone (core.label_zone), then
/// FinalizeAccessQueryResult (core.finalize). Mirrors the server's
/// from-scratch label-state build.
staq::core::AccessQueryResult DecomposeExact(
    const staq::serve::Scenario& scenario,
    const staq::serve::AqRequest& request, RoutingContext* context,
    Tracer* tracer, uint64_t request_id, LayerSamples* samples);

/// SSR request, decomposed: the edit-stable TODAM (core.todam), RunSsr
/// (core.run_ssr, whose StageTimings split features / labeling / training)
/// and FinalizeAccessQueryResult (core.finalize).
staq::util::Result<staq::core::AccessQueryResult> DecomposeSsr(
    const staq::serve::Scenario& scenario,
    const staq::serve::AqRequest& request, RoutingContext* context,
    Tracer* tracer, uint64_t request_id, LayerSamples* samples);

/// Writes the core/router/ml per-layer metrics that `samples` holds.
void ReportLayerSamples(const LayerSamples& samples, Result* result);

/// Per-layer metrics of setup: connection array size and build time from
/// the server's router options, and the offline phase timed on its own.
void ReportSetupLayers(const staq::serve::AqServer& server,
                       double build_city_s, Result* result);

/// Wire codec cost and sizes for the workload's own messages: encodes each
/// request as a Query and each answer as a QueryResult, then decodes them.
void ReportWireCodec(const std::vector<staq::serve::AqRequest>& requests,
                     const std::vector<staq::core::AccessQueryResult>& answers,
                     Result* result);

/// serve.* counters from two ServerStats snapshots around the timed phase.
void ReportServerStats(const staq::serve::ServerStats& before,
                       const staq::serve::ServerStats& after, Result* result);

/// serve.queue_wait_ms (p50/p99) and serve.service_ms from per-request
/// client latency and the server-reported elapsed_s.
void ReportQueueWait(const std::vector<double>& client_ms,
                     const std::vector<double>& service_ms, Result* result);

}  // namespace perfbench
