// The benchmark's workloads. Each fills `result` with its end-to-end
// metrics (and, with a tracing tracer, its per-layer metrics) and records
// every output-check failure as a mismatch.
#pragma once

#include <memory>
#include <string_view>

#include "bench.h"
#include "serve/server.h"

namespace perfbench {

/// Names of the end-to-end metrics every workload reports.
inline constexpr std::string_view kEndToEndMetrics[] = {
    "setup_s", "peak_rss_mb", "p50_ms", "tail_ms", "ops_per_s"};

inline bool IsEndToEnd(std::string_view name) {
  for (std::string_view e2e : kEndToEndMetrics) {
    if (name == e2e) return true;
  }
  return false;
}

/// Closed loop, 4 clients: distinct cold exact AQs on Brindale.
void RunExactSweep(const Args& args, Tracer* tracer, Result* result);

/// Closed loop, 4 clients: distinct SSR AQs at beta 0.05 on Covely.
void RunSsrBudget(const Args& args, Tracer* tracer, Result* result);

/// Open-loop reads over loopback TCP with a closed-loop POI editor, a read
/// ladder, and the five disruptions, on `city`.
void RunWhatifServe(const Args& args, const CitySetup& city, Tracer* tracer,
                    Result* result);

/// Traced runs only: one SSR AQ per model through the decomposed path on
/// `server`'s current scenario, checked against the server's uncached
/// answer. Fills the core/ml SSR per-layer metrics for workloads whose own
/// traffic has no SSR requests.
void SsrProbe(staq::serve::AqServer* server, const CitySetup& city,
              uint64_t seed, Tracer* tracer, Result* result);

/// Traced runs only: a short whatif_serve run on `city` (edits,
/// disruptions, WAL, wire) whose per-layer metrics fill the ones the
/// calling workload's own traffic does not reach.
void WhatifProbe(const Args& args, const CitySetup& city, Tracer* tracer,
                 Result* result);

/// Adds the per-layer metrics of `probe` that `result` lacks, and its
/// check failures.
void MergeProbe(const Result& probe, Result* result);

}  // namespace perfbench
