// Columnar batch evaluation throughput + open-loop SLO load generator.
//
// Three sections:
//
//   measure_eval — the tentpole perf claim. A 16-member cost sweep (journey
//       time + 15 GAC variants) over one (category, seed) is evaluated two
//       ways on one cold AqServer: the scalar foil (16 per-member
//       QueryUncached calls, sharing nothing) and QueryBatch (ONE labeling
//       pass, per-member SoA derivation through ml::kernels). Every member
//       pair is gated bit-identical first; then the speedup must clear the
//       10x floor or the bench exits non-zero.
//
//   load — an open-loop (arrival-scheduled) generator drives an AqServer at
//       a fixed target QPS over the warmed batch mix. Open-loop means a
//       slow response does NOT slow the arrival schedule, so queueing delay
//       is measured instead of hidden (no coordinated omission): latency =
//       completion - scheduled arrival. p50/p95/p99 are reported at the
//       stated target with shed/rejected/failed accounted separately.
//
//   overload — the same server is driven past capacity with expensive
//       distinct exact requests. The delay-budget admission path must
//       engage: at least one request is shed with kUnavailable (gated).
//
// Output: tables on stdout and BENCH_load.json in STAQ_BENCH_OUT.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "core/access_query.h"
#include "serve/server.h"
#include "util/stopwatch.h"

namespace staq::bench {
namespace {

constexpr double kSpeedupFloor = 10.0;

/// The 16-member cost sweep: journey time + a 3x5 grid of GAC variants
/// (wait-time weight x transfer penalty) — the "same journeys, different
/// cost definitions" workload the columnar engine amortises.
std::vector<core::CostMember> SweepMembers() {
  std::vector<core::CostMember> members;
  members.push_back(
      core::CostMember{core::CostKind::kJourneyTime, router::GacWeights{}});
  for (double lambda_wt : {1.5, 2.0, 2.5}) {
    for (double penalty_s : {0.0, 300.0, 600.0, 900.0, 1200.0}) {
      router::GacWeights gac;
      gac.lambda_wt = lambda_wt;
      gac.transfer_penalty_s = penalty_s;
      members.push_back(
          core::CostMember{core::CostKind::kGeneralizedCost, gac});
    }
  }
  return members;
}

/// Full bitwise equality including accounting: the columnar path promises
/// each member the exact result (and SPQ count) of the query it replaces.
bool BitIdentical(const core::AccessQueryResult& a,
                  const core::AccessQueryResult& b) {
  return a.mac == b.mac && a.acsd == b.acsd && a.classes == b.classes &&
         a.mean_mac == b.mean_mac && a.mean_acsd == b.mean_acsd &&
         a.fairness == b.fairness &&
         a.population_fairness == b.population_fairness &&
         a.vulnerable_fairness == b.vulnerable_fairness &&
         a.spqs == b.spqs && a.gravity_trips == b.gravity_trips;
}

/// Payload equality for the serve-path gate (spqs differ between the
/// memoised and from-scratch serve paths by design).
bool SameAnswer(const core::AccessQueryResult& a,
                const core::AccessQueryResult& b) {
  return a.mac == b.mac && a.acsd == b.acsd && a.classes == b.classes &&
         a.fairness == b.fairness && a.gravity_trips == b.gravity_trips;
}

using SteadyClock = std::chrono::steady_clock;

double MillisBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Outcome tally of one generator phase.
struct PhaseOutcome {
  std::vector<double> latency_ms;  // completed requests only
  size_t completed = 0;
  size_t shed = 0;      // kUnavailable (delay-budget admission)
  size_t rejected = 0;  // kResourceExhausted (queue full)
  size_t failed = 0;    // anything else non-OK
};

/// Drives `server` open-loop: request i of `mix` (round-robin) is submitted
/// at start + i/qps, regardless of how previous requests are doing. Two
/// harvester threads resolve tickets in submission order and stamp
/// completion against the *scheduled* arrival, so queueing shows up in the
/// tail instead of slowing the generator (no coordinated omission).
PhaseOutcome RunOpenLoop(serve::AqServer& server,
                         const std::vector<serve::AqRequest>& mix,
                         size_t total, double qps) {
  std::vector<serve::AqTicket> tickets(total);
  std::vector<SteadyClock::time_point> scheduled(total);
  std::atomic<size_t> submitted{0};

  std::thread producer([&] {
    const auto start = SteadyClock::now();
    const std::chrono::duration<double> spacing(1.0 / qps);
    for (size_t i = 0; i < total; ++i) {
      const auto arrival =
          start + std::chrono::duration_cast<SteadyClock::duration>(
                      spacing * static_cast<double>(i));
      std::this_thread::sleep_until(arrival);
      scheduled[i] = arrival;
      tickets[i] = server.Submit(mix[i % mix.size()]);
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  constexpr size_t kHarvesters = 2;
  std::vector<PhaseOutcome> partial(kHarvesters);
  std::atomic<size_t> next{0};
  std::vector<std::thread> harvesters;
  for (size_t h = 0; h < kHarvesters; ++h) {
    harvesters.emplace_back([&, h] {
      PhaseOutcome& mine = partial[h];
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        while (submitted.load(std::memory_order_acquire) <= i) {
          std::this_thread::yield();
        }
        auto result = tickets[i].Get();
        const auto now = SteadyClock::now();
        if (result.ok()) {
          ++mine.completed;
          mine.latency_ms.push_back(MillisBetween(scheduled[i], now));
        } else if (result.status().code() == util::StatusCode::kUnavailable) {
          ++mine.shed;
        } else if (result.status().code() ==
                   util::StatusCode::kResourceExhausted) {
          ++mine.rejected;
        } else {
          ++mine.failed;
        }
      }
    });
  }
  producer.join();
  for (auto& harvester : harvesters) harvester.join();

  PhaseOutcome outcome;
  for (PhaseOutcome& p : partial) {
    outcome.completed += p.completed;
    outcome.shed += p.shed;
    outcome.rejected += p.rejected;
    outcome.failed += p.failed;
    outcome.latency_ms.insert(outcome.latency_ms.end(), p.latency_ms.begin(),
                              p.latency_ms.end());
  }
  return outcome;
}

void WriteOutcome(JsonWriter& w, const PhaseOutcome& outcome,
                  const LatencySummary& latency, double seconds) {
  w.Uint("offered",
         outcome.completed + outcome.shed + outcome.rejected + outcome.failed);
  w.Uint("completed", outcome.completed);
  w.Uint("shed", outcome.shed);
  w.Uint("rejected", outcome.rejected);
  w.Uint("failed", outcome.failed);
  w.BeginObject("latency");
  WriteLatency(w, latency, seconds);
  w.EndObject();
}

}  // namespace

exp::RunResult RunLoadBench() {
  PrintHeader(
      "staq bench load — columnar batch evaluation + open-loop SLO generator");

  const synth::CitySpec spec =
      synth::CitySpec::Brindale(BenchScale(), BenchSeed());
  core::GravityConfig gravity;
  {
    // CalibratedGravityConfig needs the spec; rate follows the bench knob.
    gravity = core::CalibratedGravityConfig(spec);
    gravity.sample_rate_per_hour = BenchRate();
  }
  const std::vector<core::CostMember> members = SweepMembers();

  // --- section 1: measure_eval (the 10x gate) ---------------------------
  auto built = synth::BuildCity(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "city build failed: %s\n",
                 built.status().ToString().c_str());
    return {1, ""};
  }
  const size_t num_zones = built.value().zones.size();
  serve::AqServer eval_server(std::move(built).value(), gtfs::WeekdayAmPeak());

  core::AccessQueryOptions base;
  base.exact = true;
  base.gravity = gravity;
  base.seed = BenchSeed();

  serve::AqBatchRequest sweep;
  sweep.request.category = synth::PoiCategory::kSchool;
  sweep.request.options = base;
  sweep.cost_members = members;
  const std::vector<serve::AqRequest> sweep_members = serve::ExpandBatch(sweep);

  // Both sides start cold. The batch runs first on the fresh server (empty
  // result cache, no label state, no routing context); the foil's
  // QueryUncached calls then bypass every cache and label memo, reusing
  // only the routing context the batch released — which can only make the
  // foil faster and the gate stricter.
  util::Stopwatch columnar_watch;
  auto columnar = eval_server.QueryBatch(sweep);
  const double columnar_s = columnar_watch.ElapsedSeconds();
  for (const auto& result : columnar) {
    if (!result.ok()) {
      std::fprintf(stderr, "columnar evaluation failed: %s\n",
                   result.status().ToString().c_str());
      return {1, ""};
    }
  }

  std::vector<core::AccessQueryResult> scalar;
  util::Stopwatch scalar_watch;
  for (const serve::AqRequest& member : sweep_members) {
    auto result = eval_server.QueryUncached(member);
    if (!result.ok()) {
      std::fprintf(stderr, "scalar foil failed: %s\n",
                   result.status().ToString().c_str());
      return {1, ""};
    }
    scalar.push_back(std::move(result).value());
  }
  const double scalar_s = scalar_watch.ElapsedSeconds();

  bool bit_identical = scalar.size() == columnar.size();
  for (size_t i = 0; bit_identical && i < members.size(); ++i) {
    bit_identical = BitIdentical(scalar[i], columnar[i].value());
    if (!bit_identical) {
      std::fprintf(stderr,
                   "GATE FAILED (measure_eval): member %zu differs between "
                   "the columnar path and the scalar foil\n",
                   i);
    }
  }
  if (!bit_identical) return {1, ""};  // correctness gate: never relaxed

  const double speedup = columnar_s > 0.0 ? scalar_s / columnar_s : 0.0;
  const bool speedup_gate = speedup >= kSpeedupFloor;
  std::printf("  measure_eval: %zu members x %zu zones\n", members.size(),
              num_zones);
  std::printf("    scalar foil   %8.3f s  (%7.1f members/s)\n", scalar_s,
              static_cast<double>(members.size()) / scalar_s);
  std::printf("    columnar      %8.3f s  (%7.1f members/s)\n", columnar_s,
              static_cast<double>(members.size()) / columnar_s);
  std::printf("    speedup       %8.2fx  (floor %.0fx)  %s\n", speedup,
              kSpeedupFloor, speedup_gate ? "PASS" : "FAIL");
  std::printf("    all %zu members bit-identical to the scalar foil\n",
              members.size());

  // --- section 2: open-loop load at the target QPS ----------------------
  const double target_qps = std::atof(Params().Extra("load_qps", "2000").c_str());
  const double load_s = std::atof(Params().Extra("load_s", "2").c_str());
  const double shed_budget_s =
      std::atof(Params().Extra("shed_budget_s", "0.005").c_str());

  auto serve_city = synth::BuildCity(spec);
  if (!serve_city.ok()) {
    std::fprintf(stderr, "city build failed: %s\n",
                 serve_city.status().ToString().c_str());
    return {1, ""};
  }
  serve::AqServer::Options options;
  options.num_threads =
      Params().threads > 0
          ? static_cast<unsigned>(Params().threads)
          : std::max(2u, std::thread::hardware_concurrency());
  options.max_queue_delay_s = shed_budget_s;
  serve::AqServer server(std::move(serve_city).value(), gtfs::WeekdayAmPeak(),
                         options);

  // Warm the cache through the serve batch tier: one SubmitBatch evaluates
  // the whole sweep in a single labeling pass and fills the result cache
  // under every derived single-query key the generator will hit.
  const std::vector<serve::AqRequest>& mix = sweep_members;
  util::Stopwatch warm_watch;
  auto warm = server.QueryBatch(sweep);
  const double warm_s = warm_watch.ElapsedSeconds();
  for (const auto& result : warm) {
    if (!result.ok()) {
      std::fprintf(stderr, "warm batch failed: %s\n",
                   result.status().ToString().c_str());
      return {1, ""};
    }
  }
  // Spot-gate the serve batch path against from-scratch goldens (a full
  // per-member gate would cost another 16 passes; the dedicated serve
  // tests cover that exhaustively).
  for (size_t i = 0; i < mix.size(); i += 5) {
    auto golden = server.QueryUncached(mix[i]);
    if (!golden.ok() || !SameAnswer(warm[i].value(), golden.value())) {
      std::fprintf(stderr,
                   "GATE FAILED (warm): batch member %zu differs from the "
                   "uncached golden\n",
                   i);
      return {1, ""};
    }
  }
  // Settle the service-time estimator on cached-hit timings so the load
  // phase starts from the steady state it measures.
  for (size_t i = 0; i < 4 * mix.size(); ++i) {
    if (!server.Query(mix[i % mix.size()]).ok()) return {1, ""};
  }

  const size_t load_total = static_cast<size_t>(target_qps * load_s);
  util::Stopwatch load_watch;
  PhaseOutcome load = RunOpenLoop(server, mix, load_total, target_qps);
  const double load_seconds = load_watch.ElapsedSeconds();
  LatencySummary load_latency = Summarise(load.latency_ms);
  std::printf("\n  load: target %.0f q/s for %.1f s over the %zu-member "
              "cached mix (%zu workers, shed budget %.1f ms)\n",
              target_qps, load_s, mix.size(), server.num_threads(),
              shed_budget_s * 1e3);
  std::printf("    offered %zu  completed %zu  shed %zu  rejected %zu  "
              "failed %zu\n",
              load_total, load.completed, load.shed, load.rejected,
              load.failed);
  std::printf("    latency p50 %7.3f  p95 %7.3f  p99 %7.3f ms  "
              "(achieved %.1f q/s)\n",
              load_latency.p50_ms, load_latency.p95_ms, load_latency.p99_ms,
              load_seconds > 0
                  ? static_cast<double>(load.completed) / load_seconds
                  : 0.0);
  if (load.failed > 0) {
    std::fprintf(stderr, "GATE FAILED (load): %zu requests failed\n",
                 load.failed);
    return {1, ""};
  }

  // --- section 3: overload (the shedding gate) --------------------------
  // Distinct TODAM seeds defeat both the result cache and the label-state
  // memo, so every admitted request is a full labeling pass: offered load
  // far exceeds capacity and the delay-budget path must engage.
  std::vector<serve::AqRequest> expensive;
  expensive.reserve(256);
  for (size_t i = 0; i < 256; ++i) {
    serve::AqRequest request = sweep.request;
    request.options.seed = BenchSeed() + 1000 + i;
    expensive.push_back(request);
  }
  const size_t overload_total =
      static_cast<size_t>(target_qps * load_s / 2.0);
  util::Stopwatch overload_watch;
  PhaseOutcome overload =
      RunOpenLoop(server, expensive, overload_total, target_qps);
  const double overload_seconds = overload_watch.ElapsedSeconds();
  LatencySummary overload_latency = Summarise(overload.latency_ms);
  const bool shed_gate = overload.shed >= 1;
  std::printf("\n  overload: %zu uncacheable exact requests at %.0f q/s\n",
              overload_total, target_qps);
  std::printf("    admitted+completed %zu  shed %zu  rejected %zu  "
              "failed %zu  %s\n",
              overload.completed, overload.shed, overload.rejected,
              overload.failed, shed_gate ? "PASS" : "FAIL (nothing shed)");

  serve::ServerStats stats = server.stats();

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "load");
  w.String("city", spec.name);
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.Uint("zones", num_zones);
  w.Uint("workers", server.num_threads());
  w.BeginObject("measure_eval");
  w.Uint("members", members.size());
  w.Fixed("scalar_s", scalar_s, 6);
  w.Fixed("columnar_s", columnar_s, 6);
  w.Fixed("scalar_members_per_s",
          static_cast<double>(members.size()) / scalar_s, 2);
  w.Fixed("columnar_members_per_s",
          static_cast<double>(members.size()) / columnar_s, 2);
  w.Fixed("speedup", speedup, 4);
  w.Fixed("speedup_floor", kSpeedupFloor, 1);
  w.Bool("bit_identical", bit_identical);
  w.Bool("gate_passed", speedup_gate);
  w.EndObject();
  w.BeginObject("load");
  w.Fixed("target_qps", target_qps, 1);
  w.Fixed("duration_s", load_s, 3);
  w.Fixed("warm_batch_s", warm_s, 6);
  w.Fixed("shed_budget_ms", shed_budget_s * 1e3, 3);
  WriteOutcome(w, load, load_latency, load_seconds);
  w.EndObject();
  w.BeginObject("overload");
  w.Fixed("target_qps", target_qps, 1);
  WriteOutcome(w, overload, overload_latency, overload_seconds);
  w.Bool("shed_gate_passed", shed_gate);
  w.EndObject();
  w.BeginObject("server_stats");
  w.Uint("submitted", stats.submitted);
  w.Uint("completed", stats.completed);
  w.Uint("shed", stats.shed);
  w.Uint("rejected", stats.rejected);
  w.Uint("cache_hits", stats.cache_hits);
  w.Uint("cache_misses", stats.cache_misses);
  w.Uint("exact_state_builds", stats.exact_state_builds);
  w.EndObject();
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("load", json);

  int exit_code = (speedup_gate && shed_gate) ? 0 : 1;
  if (exit_code != 0 && Params().relax_gates) {
    std::printf("  (gate relaxed: reporting only)\n");
    exit_code = 0;
  }
  return {exit_code, std::move(json)};
}

}  // namespace staq::bench
