// Request/response types of the serve subsystem.
//
// An AqRequest is one access query addressed to an AqServer: the POI
// category, the full AccessQueryOptions of the core engine, and an optional
// deadline. Requests are canonicalised into cache-key strings so that two
// requests that must produce identical answers — regardless of how their
// irrelevant option fields differ — share one result-cache entry: an exact
// query ignores beta/model (no SSR stage runs), and a journey-time query
// ignores the GAC weights.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/access_query.h"
#include "core/columnar.h"

namespace staq::serve {

/// One access query submitted to an AqServer.
struct AqRequest {
  synth::PoiCategory category = synth::PoiCategory::kHospital;
  core::AccessQueryOptions options;
  /// Wall-clock budget in seconds, measured from submission. A request
  /// still queued when its budget expires fails with kDeadlineExceeded
  /// instead of occupying a worker. 0 disables the deadline.
  double deadline_s = 0.0;
};

/// One request template swept across POI categories, TODAM seeds, and cost
/// definitions — the library's one batch spec. An empty axis means "the
/// template's value". Every member of an exact batch that
/// shares a (category, seed) shares ONE labeling pass on a worker and its
/// answer lands in the ResultCache under the derived single-query key, so
/// later single submissions of any member are cache hits.
struct AqBatchRequest {
  AqRequest request;
  std::vector<synth::PoiCategory> categories;
  std::vector<uint64_t> seeds;
  std::vector<core::CostMember> cost_members;
};

/// Expands the template × axes into concrete single requests in the
/// deterministic batch order: category-major, then seed, then cost member.
/// SubmitBatch returns tickets in exactly this order.
std::vector<AqRequest> ExpandBatch(const AqBatchRequest& batch);

/// Everything an *exact* labeling depends on besides the scenario's POI
/// set: the inputs of the edit-stable TODAM plus the cost definition.
/// Scenario memoises one ExactLabelState per distinct key (see
/// serve/scenario.h).
struct LabelKey {
  synth::PoiCategory category = synth::PoiCategory::kHospital;
  core::CostKind cost = core::CostKind::kJourneyTime;
  router::GacWeights gac;
  core::GravityConfig gravity;
  uint64_t seed = 1;

  /// Canonical string form: identical keys ⇔ identical strings. GAC
  /// weights are included only under kGeneralizedCost — they cannot affect
  /// a journey-time labeling.
  std::string Canonical() const;
};

/// The label-state key a request resolves to.
LabelKey LabelKeyFor(const AqRequest& request);

/// Canonical result-cache key of a request *within one scenario epoch*
/// (the server prepends the epoch). Exact requests drop beta/model; SSR
/// requests append them to the label key.
std::string CanonicalRequestKey(const AqRequest& request);

/// Cumulative server counters, snapshotted by AqServer::stats().
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;          // promise fulfilled with an OK result
  uint64_t failed = 0;             // fulfilled with a non-OK status
  uint64_t rejected = 0;           // refused at admission (queue full)
  uint64_t shed = 0;               // refused at admission (queue-delay budget)
  uint64_t deadline_exceeded = 0;  // expired before a worker picked it up
  uint64_t cancelled = 0;          // withdrawn via AqTicket::TryCancel

  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_expired = 0;  // entries aged out by the TTL (see ResultCache)

  /// Exact label states built from scratch (full labeling sweeps).
  uint64_t exact_state_builds = 0;

  uint64_t mutations = 0;
  uint64_t states_patched = 0;    // label states carried across epochs by patching
  uint64_t zones_relabeled = 0;   // zones recomputed by all patches
  uint64_t patch_spqs = 0;        // SPQs spent inside patches
};

}  // namespace staq::serve
