// Zone-labeling throughput: per-trip label-correcting vs CSA window scans.
//
// Labeling is the dominant cost of the whole solution (paper §IV-E), so
// this bench measures exactly that hot path in result-identical
// configurations:
//   per-trip (oracle)   — one Route per TODAM trip on the label-correcting
//                         oracle (the speedup baseline)
//   csa profile         — ONE window scan per zone: every departure group
//                         is a lane of the same connection sweep (the
//                         default engine)
// plus the thread-pooled variant of the profile engine.
// Labels are checked bit-identical to the oracle's before any number is
// reported, and the binary exits non-zero unless the CSA profile engine
// clears the speedup floor over the oracle — the regression gate for the
// routing core.
//
// Output: paper-style table on stdout and a machine-readable
// BENCH_labeling.json in STAQ_BENCH_OUT.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
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

/// Regression floor: the serial CSA profile engine (array build included)
/// must beat the per-trip oracle by at least this factor or the bench exits
/// non-zero. Calibrated at the default scale (0.25), where six runs on a
/// 4-core container read 1.65-2.03x (median 1.94x): the floor sits below
/// the slowest run and fails a CSA slowdown above ~1.39x. Smaller scales
/// read lower ratios; the perfgate cell relaxes this gate and applies its
/// own floor from bench/baselines/policy.rules.
constexpr double kCsaSpeedupFloor = 1.4;

/// Timed runs per mode. A mode reports its fastest run — the one least
/// disturbed by other load on the host — and the spread across runs, so a
/// throughput floor compares engines rather than moments of host load. The
/// runs go in rounds that interleave the modes, so every mode samples the
/// same stretches of host load and the oracle/CSA ratio compares engines.
constexpr int kRunsPerMode = 5;

struct ModeResult {
  std::string name;
  std::string engine;  // "label_correcting" | "csa"
  double seconds = 0.0;      // fastest of kRunsPerMode runs
  double seconds_max = 0.0;  // slowest of them
  uint64_t spqs = 0;
  /// Searches run; unset for the pooled mode, whose LabelZonesParallel
  /// does not count them.
  std::optional<uint64_t> expansions;
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

/// Folds one more run of a mode into *best: keeps the fastest, widens
/// seconds_max to the slowest. False when the run labels differently.
bool Fold(ModeResult next, ModeResult* best) {
  const bool same = SameLabels(best->labels, next.labels);
  const double slowest = std::max(best->seconds_max, next.seconds);
  if (next.seconds < best->seconds) *best = std::move(next);
  best->seconds_max = slowest;
  return same;
}

}  // namespace

exp::RunResult RunLabelingBench() {
  PrintHeader("Zone-labeling throughput: per-trip vs CSA window scans");

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
  csa_opts.connections = connections;

  auto run_serial = [&](const char* name, router::RouterOptions opts) {
    router::Router router(&city.feed, opts);
    core::LabelingEngine engine(&city, &router);
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

  // The baseline: one Route per trip on the label-correcting oracle.
  router::RouterOptions oracle_opts;
  oracle_opts.engine = router::RoutingEngine::kLabelCorrecting;

  int threads = Params().threads > 0
                    ? Params().threads
                    : static_cast<int>(
                          std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::function<ModeResult()>> runs = {
      [&] { return run_serial("per-trip (oracle)", oracle_opts); },
      [&] { return run_serial("csa profile", csa_opts); },
      [&] {
        ModeResult r;
        r.name = "csa profile+pool(" + std::to_string(threads) + ")";
        r.engine = "csa";
        util::Stopwatch watch;
        r.labels = core::LabelZonesParallel(
            city, todam, zones, pois, core::CostKind::kJourneyTime,
            gtfs::Day::kTuesday, threads, csa_opts, {}, &r.spqs);
        r.seconds = watch.ElapsedSeconds();
        return r;
      }};
  std::vector<ModeResult> results;
  bool repeatable = true;
  for (int round = 0; round < kRunsPerMode; ++round) {
    for (size_t m = 0; m < runs.size(); ++m) {
      ModeResult next = runs[m]();
      if (round == 0) {
        next.seconds_max = next.seconds;
        results.push_back(std::move(next));
      } else {
        repeatable = Fold(std::move(next), &results[m]) && repeatable;
      }
    }
  }

  // Equivalence gate: a throughput number for a mode that changes results
  // would be meaningless.
  if (!repeatable) {
    std::fprintf(stderr, "FATAL: a mode labeled differently across runs\n");
    return {1, ""};
  }
  for (size_t i = 1; i < results.size(); ++i) {
    if (!SameLabels(results[0].labels, results[i].labels)) {
      std::fprintf(stderr, "FATAL: %s labels differ from %s\n",
                   results[i].name.c_str(), results[0].name.c_str());
      return {1, ""};
    }
  }
  std::printf("  all modes bit-identical to '%s'\n\n",
              results[0].name.c_str());

  std::printf("  best of %d runs per mode; spread = slowest / fastest - 1\n",
              kRunsPerMode);
  std::printf("  %-22s %-17s %9s %7s %10s %10s %12s %8s\n", "mode", "engine",
              "seconds", "spread", "zones/s", "SPQs/s", "expansions",
              "speedup");
  for (const ModeResult& r : results) {
    double zps = static_cast<double>(zones.size()) / r.seconds;
    double sps = static_cast<double>(r.spqs) / r.seconds;
    double speedup = results[0].seconds / r.seconds;
    std::string expansions =
        r.expansions ? std::to_string(*r.expansions) : "-";
    std::printf("  %-22s %-17s %9.3f %6.1f%% %10.1f %10.0f %12s %7.2fx\n",
                r.name.c_str(), r.engine.c_str(), r.seconds,
                100.0 * (r.seconds_max / r.seconds - 1.0), zps, sps,
                expansions.c_str(), speedup);
  }

  // Regression gate: the serial window-scan engine (connection-array build
  // time included — that is the true cold-build cost) must hold the floor.
  double csa_total = connections->build_seconds();
  for (const ModeResult& r : results) {
    if (r.name == "csa profile") csa_total += r.seconds;
  }
  double csa_speedup = results[0].seconds / csa_total;
  bool gate_passed = csa_speedup >= kCsaSpeedupFloor;
  std::printf("\n  gate: csa profile %.2fx vs oracle (incl. %.3fs array "
              "build, floor %.2fx) -> %s\n",
              csa_speedup, connections->build_seconds(), kCsaSpeedupFloor,
              gate_passed ? "PASS" : "FAIL");

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
  w.Int("runs_per_mode", kRunsPerMode);
  w.Fixed("connections_build_seconds", connections->build_seconds(), 6);
  w.BeginArray("modes");
  for (const ModeResult& r : results) {
    w.BeginObject();
    w.String("name", r.name);
    w.String("engine", r.engine);
    w.Fixed("seconds", r.seconds, 6);
    w.Fixed("seconds_max", r.seconds_max, 6);
    w.Fixed("spread", r.seconds_max / r.seconds - 1.0, 4);
    w.Fixed("zones_per_s", static_cast<double>(zones.size()) / r.seconds, 3);
    w.Fixed("spqs_per_s", static_cast<double>(r.spqs) / r.seconds, 1);
    w.Uint("spqs", r.spqs);
    if (r.expansions) w.Uint("expansions", *r.expansions);
    w.Fixed("speedup_vs_baseline", results[0].seconds / r.seconds, 4);
    w.EndObject();
  }
  w.EndArray();
  w.Fixed("csa_speedup_floor", kCsaSpeedupFloor, 1);
  w.Fixed("csa_profile_speedup", csa_speedup, 4);
  w.Bool("gate_passed", gate_passed);
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

