// exact_sweep: distinct cold exact AQs, closed loop over 4 clients, on
// Brindale at scale 0.1. Every request builds a label state from scratch,
// so the router's window scan, the TODAM build and labeling do nearly all
// the work. A few exact AQs through the library front door
// (core::AccessQueryEngine) form the side stream.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using staq::core::AccessQueryResult;
using staq::serve::AqRequest;

constexpr uint64_t kRequestStream = 1;
constexpr uint64_t kLibraryStream = 2;
constexpr int kClients = 4;
/// Cold exact AQs the workload sends per second of --seconds: about what
/// 4 workers complete per second on the 4-core reference host. The count is
/// fixed rather than time-bounded because every answered key stays
/// memoised in the scenario, so a time-bounded loop would make memory grow
/// with speed.
constexpr double kRequestsPerSecond = 24.0;

/// Request i: categories rotate, the two costs alternate per block of four,
/// and each block of eight gets a fresh TODAM seed, so no two requests
/// share a label state or a cache entry.
AqRequest ExactRequest(const Args& args, const CitySetup& city, uint64_t i) {
  AqRequest request;
  const uint64_t rotation = Mix(args.seed, kRequestStream, 0);
  request.category =
      static_cast<staq::synth::PoiCategory>((i + rotation) % 4);
  request.options.exact = true;
  request.options.gravity = city.gravity;
  request.options.cost = (i / 4) % 2 == 0
                             ? staq::core::CostKind::kJourneyTime
                             : staq::core::CostKind::kGeneralizedCost;
  request.options.seed = Mix(args.seed, kRequestStream, 1 + i / 8);
  return request;
}

}  // namespace

void RunExactSweep(const Args& args, Tracer* tracer, Result* result) {
  const CitySetup city = BrindaleSetup(args.tiny);
  const bool traced = tracer->enabled();

  // --- setup, repeated: the median is setup_s -------------------------------
  std::unique_ptr<staq::serve::AqServer> server;
  std::unique_ptr<staq::core::AccessQueryEngine> library;
  std::vector<double> setup_s, build_city_s;
  const int setup_reps = args.tiny ? 2 : 11;
  for (int rep = 0; rep < setup_reps; ++rep) {
    library.reset();
    server.reset();
    const auto start = Clock::now();
    auto built = staq::synth::BuildCity(city.spec);
    if (!built.ok()) {
      result->Mismatch("city build failed: " + built.status().ToString());
      return;
    }
    build_city_s.push_back(SecondsSince(start));
    library = std::make_unique<staq::core::AccessQueryEngine>(
        built.value(), staq::gtfs::WeekdayAmPeak());
    staq::serve::AqServer::Options options;
    options.num_threads = kClients;
    options.max_pending = 1 << 16;
    server = std::make_unique<staq::serve::AqServer>(
        std::move(built).value(), staq::gtfs::WeekdayAmPeak(), options);
    setup_s.push_back(SecondsSince(start));
  }

  // --- side stream: the library front door ---------------------------------
  // One category (schools, as in the CLI examples) so the median does not
  // fall between categories of different cost; only the TODAM seed varies.
  const int library_queries = args.tiny ? 2 : 12;
  // Half runs before the timed phase and half after it, so the median
  // spans two moments of host load rather than one.
  std::vector<double> library_ms;
  auto run_library = [&](int first, int last) {
    for (int k = first; k < last; ++k) {
      staq::core::AccessQueryOptions options;
      options.exact = true;
      options.gravity = city.gravity;
      options.seed = Mix(args.seed, kLibraryStream, k);
      const auto start = Clock::now();
      auto answer = library->Query(staq::synth::PoiCategory::kSchool, options);
      library_ms.push_back(MsBetween(start, Clock::now()));
      ++result->attempted;
      if (!answer.ok() ||
          answer.value().mac.size() != library->city().zones.size() ||
          answer.value().spqs == 0) {
        result->Mismatch("library exact AQ " + std::to_string(k) + " failed");
      }
    }
  };
  run_library(0, library_queries / 2);

  // --- timed phase: closed loop, 4 clients ---------------------------------
  const size_t total = args.tiny ? 16
                                 : std::max<size_t>(32, std::llround(
                                       kRequestsPerSecond * args.seconds));
  std::vector<AqRequest> requests(total);
  for (size_t i = 0; i < total; ++i) requests[i] = ExactRequest(args, city, i);
  std::vector<AccessQueryResult> answers(total);
  std::vector<double> latency_ms(total, 0.0), service_ms(total, 0.0);
  std::vector<char> ok(total, 0);
  std::vector<LayerSamples> layer_samples(kClients);

  // Untraced: each request goes to the server. Traced: each request runs
  // through the decomposed path instead, and the server answers it after
  // the timed phase for the bit-identity check.
  auto run_clients = [&](bool decomposed) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::unique_ptr<RoutingContext> context;
        auto snapshot = server->Snapshot();
        if (decomposed) context = std::make_unique<RoutingContext>(*snapshot);
        for (size_t i = next++; i < total; i = next++) {
          const auto start = Clock::now();
          if (decomposed) {
            answers[i] = DecomposeExact(*snapshot, requests[i], context.get(),
                                        tracer, i + 1, &layer_samples[c]);
            ok[i] = 1;
            latency_ms[i] = MsBetween(start, Clock::now());
            continue;
          }
          staq::util::Result<AccessQueryResult> answer =
              staq::util::Status::Internal("not sent");
          {
            Span span(tracer, "serve.query", i + 1);
            answer = server->Query(requests[i]);
          }
          const double ms = MsBetween(start, Clock::now());
          if (!answer.ok()) {
            ok[i] = 0;
            continue;
          }
          latency_ms[i] = ms;
          service_ms[i] = answer.value().elapsed_s * 1e3;
          if (traced) {
            std::string why;
            ok[i] = SameAnswer(answer.value(), answers[i], Fields::kAll, &why);
          } else {
            answers[i] = std::move(answer).value();
            ok[i] = 1;
          }
        }
      });
    }
    for (auto& client : clients) client.join();
  };

  const auto stats_before = server->stats();
  const auto phase_start = Clock::now();
  run_clients(traced);
  const double phase_s = SecondsSince(phase_start);
  std::vector<double> phase_latency_ms = latency_ms;
  if (traced) run_clients(false);  // server answers + bit-identity check
  const auto stats_after = server->stats();

  std::vector<double> completed_ms;
  for (size_t i = 0; i < total; ++i) {
    if (ok[i]) {
      completed_ms.push_back(phase_latency_ms[i]);
    } else {
      result->Mismatch("exact request " + std::to_string(i) +
                       (traced ? " differs between the decomposed path and "
                                 "the server"
                               : " failed"));
    }
  }
  result->attempted += total;

  // --- output check: a seeded sample against QueryUncached -----------------
  if (!traced) {
    const std::vector<size_t> sample =
        CheckSample(args.seed, total, args.tiny ? 2 : 4);
    std::vector<std::string> why(sample.size());
    std::vector<char> same(sample.size(), 0);
    std::vector<std::thread> checkers;
    for (size_t s = 0; s < sample.size(); ++s) {
      checkers.emplace_back([&, s] {
        const size_t i = sample[s];
        auto golden = server->QueryUncached(requests[i]);
        AccessQueryResult answer = answers[i];
        if (args.perturb && s == 0) Perturb(&answer);
        same[s] = golden.ok() && ok[i] &&
                  SameAnswer(answer, golden.value(), Fields::kAll, &why[s]);
      });
    }
    for (auto& checker : checkers) checker.join();
    for (size_t s = 0; s < sample.size(); ++s) {
      if (!same[s]) {
        result->Mismatch("exact request " + std::to_string(sample[s]) +
                         " differs from QueryUncached in " + why[s]);
      }
    }
  } else if (args.perturb) {
    AccessQueryResult answer = answers[0];
    Perturb(&answer);
    std::string why;
    auto golden = server->QueryUncached(requests[0]);
    if (!golden.ok() ||
        !SameAnswer(answer, golden.value(), Fields::kAll, &why)) {
      result->Mismatch("exact request 0 differs from QueryUncached in " + why);
    }
  }

  run_library(library_queries / 2, library_queries);

  // --- report ----------------------------------------------------------------
  const double p50 = Quantile(completed_ms, 0.5);
  const double p90 = Quantile(completed_ms, 0.9);
  result->Samples("p50_ms", completed_ms.size(), 0.5);
  result->Samples("tail_ms", completed_ms.size(), 0.9);
  result->Samples("library_exact_s", library_ms.size(), 0.5);
  result->Metric("setup_s", Median(setup_s), "s");
  result->Metric("p50_ms", p50, "ms");
  result->Metric("tail_ms", p90, "ms");
  result->Metric("ops_per_s", completed_ms.size() / phase_s, "1/s");
  result->Extra("exact_p50_ms", p50, "ms");
  result->Extra("exact_p90_ms", p90, "ms");
  result->Extra("exact_aq_per_s", completed_ms.size() / phase_s, "AQ/s");
  result->Extra("library_exact_s", Median(library_ms) / 1e3, "s");
  result->Extra("zones", static_cast<double>(library->city().zones.size()),
                "count");

  if (traced) {
    LayerSamples merged;
    for (const auto& samples : layer_samples) merged.Merge(samples);
    ReportLayerSamples(merged, result);
    ReportSetupLayers(*server, Median(build_city_s), result);
    std::vector<AqRequest> answered;
    std::vector<AccessQueryResult> received;
    std::vector<double> server_ms, server_service_ms;
    for (size_t i = 0; i < total; ++i) {
      if (ok[i]) {
        answered.push_back(requests[i]);
        received.push_back(answers[i]);
        server_ms.push_back(latency_ms[i]);
        server_service_ms.push_back(service_ms[i]);
      }
    }
    ReportWireCodec(answered, received, result);
    ReportServerStats(stats_before, stats_after, result);
    ReportQueueWait(server_ms, server_service_ms, result);
    result->Metric("trace.p50_ms", p50, "ms");
    SsrProbe(server.get(), city, args.seed, tracer, result);
    Result probe;
    WhatifProbe(args, city, tracer, &probe);
    MergeProbe(probe, result);
  }
}

}  // namespace perfbench
