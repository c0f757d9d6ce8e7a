// Zone-labeling throughput: per-trip vs batched SPQ execution.
//
// Labeling is the dominant cost of the whole solution (paper §IV-E), so
// this bench measures exactly that hot path in three result-identical
// configurations:
//   per-trip (seed)     — one Route per TODAM trip on the original engine:
//                         binary heap, full-window boarding scans, unbounded
//                         relaxation (the speedup baseline)
//   per-trip+pruning    — one Route per trip with the optimized search
//                         (bucket queue, route-break scans, bound-aware
//                         pruning)
//   batched             — RouteMany per departure group on the optimized
//                         search + cached access stops
//   csa profile         — ONE window scan per zone: every departure group
//                         is a lane of the same connection sweep (the
//                         production configuration)
// plus the thread-pooled variants of the batched and profile engines.
// Labels are checked bit-identical across configurations before any number
// is reported, and the binary exits non-zero unless the CSA profile engine
// clears the speedup floor over the seed baseline — the regression gate
// for the routing core. The issue's 10x design target is reported
// alongside (see kCsaTargetSpeedup).
//
// Output: paper-style table on stdout and a machine-readable
// BENCH_labeling.json in STAQ_BENCH_OUT.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "core/labeling.h"
#include "core/parallel_labeling.h"
#include "core/todam.h"
#include "router/connections.h"
#include "router/router.h"
#include "util/stopwatch.h"

namespace staq::bench {
namespace {

/// Regression floor: the serial CSA profile engine must beat the seed
/// per-trip baseline by at least this factor or the bench exits non-zero.
/// Set below the ~4.3x the engine holds on the 1-core reference box (with
/// headroom for machine noise) so a regression of the achieved win fails
/// loudly; the design target below is reported separately.
constexpr double kCsaSpeedupFloor = 3.0;

/// The issue's design target for cold builds. Not met serially on the
/// 1-core reference machine — the remaining scan is memory-bandwidth-bound
/// at ~1 label write per (live lane, stop) — so it is reported in the JSON
/// (`csa_target_speedup` / `target_met`) rather than enforced. The pooled
/// profile configuration is expected to clear it on multicore hardware.
constexpr double kCsaTargetSpeedup = 10.0;

struct ModeResult {
  std::string name;
  std::string engine;  // "label_correcting" | "csa"
  double seconds = 0.0;
  uint64_t spqs = 0;
  uint64_t expansions = 0;
  std::vector<core::ZoneLabel> labels;
};

bool SameLabels(const std::vector<core::ZoneLabel>& a,
                const std::vector<core::ZoneLabel>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mac != b[i].mac || a[i].acsd != b[i].acsd ||
        a[i].num_trips != b[i].num_trips ||
        a[i].num_infeasible != b[i].num_infeasible ||
        a[i].num_walk_only != b[i].num_walk_only) {
      return false;
    }
  }
  return true;
}

}  // namespace

exp::RunResult RunLabelingBench() {
  PrintHeader("Zone-labeling throughput: per-trip vs batched SPQ engine");

  BenchCity bc =
      MakeBenchCity(synth::CitySpec::Brindale(BenchScale(), BenchSeed()));
  const synth::City& city = *bc.city;
  auto pois = city.PoisOf(synth::PoiCategory::kSchool);
  core::TodamBuilder builder(city.zones, pois, gtfs::WeekdayAmPeak(),
                             bc.gravity);
  core::Todam todam = builder.BuildGravity(BenchSeed());

  std::vector<uint32_t> zones(city.zones.size());
  for (uint32_t z = 0; z < zones.size(); ++z) zones[z] = z;
  std::printf("  city=%s  zones=%zu  pois=%zu  trips=%llu\n", bc.name.c_str(),
              zones.size(), pois.size(),
              static_cast<unsigned long long>(todam.num_trips()));

  // The connection array is timetable-derived and shared by every CSA mode
  // below (and by every worker of the pooled runs), so its build is timed
  // once here and reported separately from the scans.
  auto connections =
      router::ConnectionArray::EnsureFor(nullptr, &city.feed);
  std::printf("  connection array: %zu connections, built in %.3fs\n",
              connections->num_connections(), connections->build_seconds());
  router::RouterOptions csa_opts;
  csa_opts.engine = router::RoutingEngine::kCsa;
  csa_opts.connections = connections;

  auto run_serial = [&](const char* name, router::RouterOptions opts,
                        core::LabelingMode mode) {
    router::Router router(&city.feed, opts);
    core::LabelingEngine engine(&city, &router, {}, mode);
    ModeResult r;
    r.name = name;
    r.engine = opts.engine == router::RoutingEngine::kCsa ? "csa"
                                                          : "label_correcting";
    util::Stopwatch watch;
    r.labels = engine.LabelZones(todam, zones, pois,
                                 core::CostKind::kJourneyTime,
                                 gtfs::Day::kTuesday);
    r.seconds = watch.ElapsedSeconds();
    r.spqs = engine.spq_count();
    r.expansions = engine.expansion_count();
    return r;
  };

  // The baseline runs the original engine: binary heap, full-window
  // boarding scans, unbounded relaxation.
  router::RouterOptions seed_opts;
  seed_opts.bounded_relaxation = false;
  seed_opts.boarding_route_break = false;
  seed_opts.bucket_queue = false;

  std::vector<ModeResult> results;
  results.push_back(
      run_serial("per-trip (seed)", seed_opts, core::LabelingMode::kPerTrip));
  results.push_back(run_serial("per-trip+pruning", {},
                               core::LabelingMode::kPerTrip));
  results.push_back(run_serial("batched", {}, core::LabelingMode::kBatched));
  results.push_back(
      run_serial("csa profile", csa_opts, core::LabelingMode::kProfile));

  int threads = Params().threads > 0
                    ? Params().threads
                    : static_cast<int>(
                          std::max(1u, std::thread::hardware_concurrency()));
  auto run_pooled = [&](const std::string& name, router::RouterOptions opts,
                        core::LabelingMode mode) {
    ModeResult r;
    r.name = name + "+pool(" + std::to_string(threads) + ")";
    r.engine = opts.engine == router::RoutingEngine::kCsa ? "csa"
                                                          : "label_correcting";
    util::Stopwatch watch;
    r.labels = core::LabelZonesParallel(
        city, todam, zones, pois, core::CostKind::kJourneyTime,
        gtfs::Day::kTuesday, threads, opts, {}, &r.spqs, mode);
    r.seconds = watch.ElapsedSeconds();
    return r;
  };
  results.push_back(run_pooled("batched", {}, core::LabelingMode::kBatched));
  results.push_back(
      run_pooled("csa profile", csa_opts, core::LabelingMode::kProfile));

  // Equivalence gate: a throughput number for a mode that changes results
  // would be meaningless.
  for (size_t i = 1; i < results.size(); ++i) {
    if (!SameLabels(results[0].labels, results[i].labels)) {
      std::fprintf(stderr, "FATAL: %s labels differ from %s\n",
                   results[i].name.c_str(), results[0].name.c_str());
      return {1, ""};
    }
  }
  std::printf("  all modes bit-identical to '%s'\n\n",
              results[0].name.c_str());

  std::printf("  %-22s %-17s %9s %10s %10s %12s %8s\n", "mode", "engine",
              "seconds", "zones/s", "SPQs/s", "expansions", "speedup");
  for (const ModeResult& r : results) {
    double zps = static_cast<double>(zones.size()) / r.seconds;
    double sps = static_cast<double>(r.spqs) / r.seconds;
    double speedup = results[0].seconds / r.seconds;
    std::printf("  %-22s %-17s %9.3f %10.1f %10.0f %12llu %7.2fx\n",
                r.name.c_str(), r.engine.c_str(), r.seconds, zps, sps,
                static_cast<unsigned long long>(r.expansions), speedup);
  }

  // Regression gate: the serial window-scan engine (connection-array build
  // time included — that is the true cold-build cost) must hold the floor.
  double csa_total = connections->build_seconds();
  for (const ModeResult& r : results) {
    if (r.name == "csa profile") csa_total += r.seconds;
  }
  double csa_speedup = results[0].seconds / csa_total;
  bool gate_passed = csa_speedup >= kCsaSpeedupFloor;
  bool target_met = csa_speedup >= kCsaTargetSpeedup;
  std::printf("\n  gate: csa profile %.2fx vs seed (incl. %.3fs array build, "
              "floor %.0fx) -> %s  [design target %.0fx: %s]\n",
              csa_speedup, connections->build_seconds(), kCsaSpeedupFloor,
              gate_passed ? "PASS" : "FAIL", kCsaTargetSpeedup,
              target_met ? "met" : "not met serially");

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "labeling");
  w.String("city", bc.name);
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.Uint("zones", zones.size());
  w.Uint("trips", todam.num_trips());
  w.Uint("connections", connections->num_connections());
  w.Fixed("connections_build_seconds", connections->build_seconds(), 6);
  w.BeginArray("modes");
  for (const ModeResult& r : results) {
    w.BeginObject();
    w.String("name", r.name);
    w.String("engine", r.engine);
    w.Fixed("seconds", r.seconds, 6);
    w.Fixed("zones_per_s", static_cast<double>(zones.size()) / r.seconds, 3);
    w.Fixed("spqs_per_s", static_cast<double>(r.spqs) / r.seconds, 1);
    w.Uint("spqs", r.spqs);
    w.Uint("expansions", r.expansions);
    w.Fixed("speedup_vs_baseline", results[0].seconds / r.seconds, 4);
    w.EndObject();
  }
  w.EndArray();
  w.Fixed("csa_speedup_floor", kCsaSpeedupFloor, 1);
  w.Fixed("csa_target_speedup", kCsaTargetSpeedup, 1);
  w.Fixed("csa_profile_speedup", csa_speedup, 4);
  w.Bool("gate_passed", gate_passed);
  w.Bool("target_met", target_met);
  w.Bool("bit_identical", true);
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("labeling", json);

  int exit_code = gate_passed ? 0 : 1;
  if (!gate_passed && Params().relax_gates) {
    std::printf("  (gate relaxed: reporting only)\n");
    exit_code = 0;
  }
  return {exit_code, std::move(json)};
}

}  // namespace staq::bench

