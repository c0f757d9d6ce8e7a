// ssr_budget: distinct SSR AQs at labeling budget beta = 0.05, closed loop
// over 4 clients, on Covely (the paper's second, walk-heavier city) at
// scale 0.3. Feature extraction, model training and the TODAM build
// dominate; routing labels only 5% of zones. Models rotate over OLS, MLP,
// COREG and Mean Teacher; GNN is left out because at ~2 s a request it
// would take most of the time and hide the other four.
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using staq::core::AccessQueryResult;
using staq::serve::AqRequest;

constexpr uint64_t kRequestStream = 11;
constexpr uint64_t kLibraryStream = 12;
constexpr int kClients = 4;
constexpr double kBeta = 0.05;
/// The first kScored requests are scored against exact answers; they span
/// two TODAM seeds x 4 categories.
constexpr size_t kScored = 32;
constexpr staq::ml::ModelKind kModels[] = {
    staq::ml::ModelKind::kOls, staq::ml::ModelKind::kMlp,
    staq::ml::ModelKind::kCoreg, staq::ml::ModelKind::kMeanTeacher};

/// Request i: models rotate fastest, then categories; each block of 16 gets
/// a fresh TODAM seed, so every request is a distinct cache key.
AqRequest SsrRequest(const Args& args, const CitySetup& city, uint64_t i) {
  AqRequest request;
  const uint64_t rotation = Mix(args.seed, kRequestStream, 0);
  request.category =
      static_cast<staq::synth::PoiCategory>((i / 4 + rotation) % 4);
  request.options.exact = false;
  request.options.beta = kBeta;
  request.options.model = kModels[i % 4];
  request.options.gravity = city.gravity;
  request.options.seed = Mix(args.seed, kRequestStream, 1 + i / 16);
  return request;
}

/// The exact request with the same (category, TODAM seed) as `ssr`.
AqRequest ExactTwin(const AqRequest& ssr) {
  AqRequest exact = ssr;
  exact.options.exact = true;
  return exact;
}

double MacMaeMinutes(const AccessQueryResult& ssr,
                     const AccessQueryResult& exact) {
  double sum = 0.0;
  for (size_t z = 0; z < ssr.mac.size(); ++z) {
    sum += std::fabs(ssr.mac[z] - exact.mac[z]);
  }
  return ssr.mac.empty() ? 0.0 : sum / ssr.mac.size() / 60.0;
}

}  // namespace

void RunSsrBudget(const Args& args, Tracer* tracer, Result* result) {
  const CitySetup city = CovelySetup(args.tiny);
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

  // --- exact references for the scored requests (untimed) -------------------
  // One per (category, seed) of the first kScored requests, keyed by the
  // request index of its first SSR twin.
  std::vector<AqRequest> refs;
  for (size_t i = 0; i < kScored; i += 4) {
    refs.push_back(ExactTwin(SsrRequest(args, city, i)));
  }
  std::vector<AccessQueryResult> exact(refs.size());
  std::vector<LayerSamples> ref_samples(refs.size());
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&] {
        std::unique_ptr<RoutingContext> context;
        auto snapshot = server->Snapshot();
        if (traced) context = std::make_unique<RoutingContext>(*snapshot);
        for (size_t r = next++; r < refs.size(); r = next++) {
          auto answer = server->QueryUncached(refs[r]);
          if (!answer.ok()) continue;
          exact[r] = std::move(answer).value();
          if (!traced) continue;
          AccessQueryResult decomposed =
              DecomposeExact(*snapshot, refs[r], context.get(), tracer,
                             1000000 + r, &ref_samples[r]);
          std::string why;
          if (!SameAnswer(decomposed, exact[r], Fields::kAll, &why)) {
            exact[r].mac.clear();  // reported as a mismatch below
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  for (size_t r = 0; r < refs.size(); ++r) {
    ++result->attempted;
    if (exact[r].mac.empty()) {
      result->Mismatch("exact reference " + std::to_string(r) + " failed");
    }
  }

  // --- side stream: SSR through the library front door ----------------------
  // The library's default model (MLP) on schools, so the median does not
  // fall between models or categories of different cost; only the TODAM
  // seed varies.
  const int library_queries = args.tiny ? 2 : 16;
  // Half runs before the timed phase and half after it, so the median
  // spans two moments of host load rather than one.
  std::vector<double> library_ms;
  auto run_library = [&](int first, int last) {
    for (int k = first; k < last; ++k) {
      staq::core::AccessQueryOptions options;
      options.exact = false;
      options.beta = kBeta;
      options.gravity = city.gravity;
      options.seed = Mix(args.seed, kLibraryStream, k);
      const auto start = Clock::now();
      auto answer = library->Query(staq::synth::PoiCategory::kSchool, options);
      library_ms.push_back(MsBetween(start, Clock::now()));
      ++result->attempted;
      if (!answer.ok() ||
          answer.value().mac.size() != library->city().zones.size()) {
        result->Mismatch("library SSR AQ " + std::to_string(k) + " failed");
      }
    }
  };
  run_library(0, library_queries / 2);

  // --- timed phase: closed loop, 4 clients, time-bounded --------------------
  // Traced runs send each request through the decomposed path and let the
  // server answer it afterwards for the bit-identity check.
  std::vector<AqRequest> requests;
  std::vector<AccessQueryResult> answers;
  std::vector<double> latency_ms, service_ms;
  std::vector<char> ok, sent;
  std::vector<LayerSamples> layer_samples(kClients);
  const size_t capacity = static_cast<size_t>(400 * args.seconds) + kScored;
  requests.resize(capacity);
  answers.resize(capacity);
  latency_ms.assign(capacity, 0.0);
  service_ms.assign(capacity, 0.0);
  ok.assign(capacity, 0);
  sent.assign(capacity, 0);
  for (size_t i = 0; i < capacity; ++i) requests[i] = SsrRequest(args, city, i);

  const auto stats_before = server->stats();
  const auto phase_start = Clock::now();
  const auto deadline =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(args.seconds));
  std::atomic<size_t> next{0};
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::unique_ptr<RoutingContext> context;
        auto snapshot = server->Snapshot();
        if (traced) context = std::make_unique<RoutingContext>(*snapshot);
        for (;;) {
          const size_t i = next++;
          if (i >= capacity || (i >= kScored && Clock::now() >= deadline)) {
            return;
          }
          sent[i] = 1;
          const auto start = Clock::now();
          if (traced) {
            auto answer = DecomposeSsr(*snapshot, requests[i], context.get(),
                                       tracer, i + 1, &layer_samples[c]);
            latency_ms[i] = MsBetween(start, Clock::now());
            if (!answer.ok()) continue;
            answers[i] = std::move(answer).value();
            ok[i] = 1;
            continue;
          }
          auto answer = server->Query(requests[i]);
          latency_ms[i] = MsBetween(start, Clock::now());
          if (!answer.ok()) continue;
          service_ms[i] = answer.value().elapsed_s * 1e3;
          answers[i] = std::move(answer).value();
          ok[i] = 1;
        }
      });
    }
    for (auto& client : clients) client.join();
  }
  const double phase_s = SecondsSince(phase_start);
  const size_t total = std::min(next.load(), capacity);

  // Traced: the server answers every decomposed request (bit-identity).
  std::vector<double> server_ms(total, 0.0);
  if (traced) {
    std::atomic<size_t> verify_next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (size_t i = verify_next++; i < total; i = verify_next++) {
          if (!ok[i]) continue;
          const auto start = Clock::now();
          Span span(tracer, "serve.query", i + 1);
          auto answer = server->Query(requests[i]);
          server_ms[i] = MsBetween(start, Clock::now());
          std::string why;
          if (!answer.ok() ||
              !SameAnswer(answer.value(), answers[i], Fields::kAll, &why)) {
            ok[i] = 0;
            continue;
          }
          service_ms[i] = answer.value().elapsed_s * 1e3;
        }
      });
    }
    for (auto& client : clients) client.join();
  }
  const auto stats_after = server->stats();

  std::vector<double> completed_ms;
  size_t attempted = 0;
  for (size_t i = 0; i < total; ++i) {
    if (!sent[i]) continue;
    ++attempted;
    if (ok[i]) {
      completed_ms.push_back(latency_ms[i]);
    } else {
      result->Mismatch("SSR request " + std::to_string(i) +
                       (traced ? " differs between the decomposed path and "
                                 "the server"
                               : " failed"));
    }
  }
  result->attempted += attempted;

  // --- output checks --------------------------------------------------------
  // Determinism: a seeded sample recomputed from scratch must match the
  // served answer bit for bit (same seed, same answer).
  {
    std::vector<size_t> sample;
    for (size_t pick : CheckSample(args.seed, total, total)) {
      if (sent[pick] && sample.size() < (args.tiny ? 2u : 4u)) {
        sample.push_back(pick);
      }
    }
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
        result->Mismatch("SSR request " + std::to_string(sample[s]) +
                         " is not reproducible: differs in " + why[s]);
      }
    }
  }
  // Accuracy of the scored requests, and a digest of their answers that two
  // runs with the same seed must agree on.
  std::vector<double> mae;
  uint64_t digest = 0;
  for (size_t i = 0; i < kScored && i < total; ++i) {
    const AccessQueryResult& reference = exact[i / 4];
    if (!ok[i] || reference.mac.size() != answers[i].mac.size()) continue;
    mae.push_back(MacMaeMinutes(answers[i], reference));
    digest = digest * 0x100000001B3ull ^ AnswerDigest(answers[i]);
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  result->digest = digest_hex;

  run_library(library_queries / 2, library_queries);

  // --- report ----------------------------------------------------------------
  const double p50 = Quantile(completed_ms, 0.5);
  const double p90 = Quantile(completed_ms, 0.9);
  result->Samples("p50_ms", completed_ms.size(), 0.5);
  result->Samples("tail_ms", completed_ms.size(), 0.9);
  result->Samples("library_ssr_ms", library_ms.size(), 0.5);
  result->Metric("setup_s", Median(setup_s), "s");
  result->Metric("p50_ms", p50, "ms");
  result->Metric("tail_ms", p90, "ms");
  result->Metric("ops_per_s", completed_ms.size() / phase_s, "1/s");
  result->Extra("ssr_p50_ms", p50, "ms");
  result->Extra("ssr_p90_ms", p90, "ms");
  result->Extra("ssr_mac_mae_min", Mean(mae), "min");
  result->Extra("library_ssr_ms", Median(library_ms), "ms");
  result->Extra("zones", static_cast<double>(library->city().zones.size()),
                "count");

  if (traced) {
    LayerSamples merged;
    for (const auto& samples : layer_samples) merged.Merge(samples);
    for (const auto& samples : ref_samples) merged.Merge(samples);
    ReportLayerSamples(merged, result);
    ReportSetupLayers(*server, Median(build_city_s), result);
    std::vector<AqRequest> answered;
    std::vector<AccessQueryResult> received;
    std::vector<double> client_ms, server_service_ms;
    for (size_t i = 0; i < total; ++i) {
      if (ok[i]) {
        answered.push_back(requests[i]);
        received.push_back(answers[i]);
        client_ms.push_back(server_ms[i]);
        server_service_ms.push_back(service_ms[i]);
      }
    }
    ReportWireCodec(answered, received, result);
    ReportServerStats(stats_before, stats_after, result);
    ReportQueueWait(client_ms, server_service_ms, result);
    result->Metric("trace.p50_ms", p50, "ms");
    Result probe;
    WhatifProbe(args, city, tracer, &probe);
    MergeProbe(probe, result);
  }
}

}  // namespace perfbench
