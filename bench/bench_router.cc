// Micro-benchmarks for the SPQ oracle (§IV intro).
//
// The paper measured 0.018 ± 0.016 s per SPQ on their OTP stack; this
// bench reports the equivalent figure for staq's router on both synthetic
// cities, plus the access-stop lookup and walk-table construction costs.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "router/router.h"
#include "util/rng.h"

namespace staq::bench {
namespace {

/// Single SPQs run on the label-correcting engine: one search settles only
/// what its target needs, while a CSA Route scans the day's connections and
/// pays off only when a zone's departures share one window scan (measured
/// by bench_labeling).
router::RouterOptions SingleSpqOptions() {
  router::RouterOptions options;
  options.engine = router::RoutingEngine::kLabelCorrecting;
  return options;
}

/// Shared fixtures: building a city per benchmark iteration would swamp
/// the timings, so cities and routers are constructed once.
struct RouterFixture {
  explicit RouterFixture(synth::CitySpec spec)
      : city(std::move(synth::BuildCity(spec)).value()),
        router(&city.feed, SingleSpqOptions()) {}

  synth::City city;
  router::Router router;
};

RouterFixture& Brindale() {
  static RouterFixture* fixture =
      new RouterFixture(synth::CitySpec::Brindale(BenchScale(), BenchSeed()));
  return *fixture;
}

RouterFixture& Covely() {
  static RouterFixture* fixture = new RouterFixture(
      synth::CitySpec::Covely(BenchScale(), BenchSeed() + 1));
  return *fixture;
}

void RunSpq(benchmark::State& state, RouterFixture& fixture) {
  util::Rng rng(7);
  const geo::BBox& extent = fixture.city.extent;
  uint64_t feasible = 0, total = 0;
  for (auto _ : state) {
    geo::Point o{rng.Uniform(extent.min_x, extent.max_x),
                 rng.Uniform(extent.min_y, extent.max_y)};
    geo::Point d{rng.Uniform(extent.min_x, extent.max_x),
                 rng.Uniform(extent.min_y, extent.max_y)};
    gtfs::TimeOfDay depart =
        gtfs::MakeTime(7, 0) +
        static_cast<gtfs::TimeOfDay>(rng.UniformU64(7200));
    router::Journey journey =
        fixture.router.Route(o, d, gtfs::Day::kTuesday, depart);
    benchmark::DoNotOptimize(journey.arrive);
    feasible += journey.feasible ? 1 : 0;
    ++total;
  }
  state.counters["feasible_frac"] =
      static_cast<double>(feasible) / static_cast<double>(total);
}

void BM_SpqBrindale(benchmark::State& state) { RunSpq(state, Brindale()); }
void BM_SpqCovely(benchmark::State& state) { RunSpq(state, Covely()); }
BENCHMARK(BM_SpqBrindale)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SpqCovely)->Unit(benchmark::kMicrosecond);

void BM_SpqShortTrips(benchmark::State& state) {
  // Trips within ~2 km: the common zone->POI case in the gravity TODAM.
  RouterFixture& fixture = Brindale();
  util::Rng rng(9);
  const geo::BBox& extent = fixture.city.extent;
  for (auto _ : state) {
    geo::Point o{rng.Uniform(extent.min_x, extent.max_x),
                 rng.Uniform(extent.min_y, extent.max_y)};
    geo::Point d{o.x + rng.Uniform(-2000, 2000),
                 o.y + rng.Uniform(-2000, 2000)};
    router::Journey journey = fixture.router.Route(
        o, d, gtfs::Day::kTuesday,
        gtfs::MakeTime(7, 0) + static_cast<gtfs::TimeOfDay>(rng.UniformU64(7200)));
    benchmark::DoNotOptimize(journey.arrive);
  }
}
BENCHMARK(BM_SpqShortTrips)->Unit(benchmark::kMicrosecond);

void BM_AccessStops(benchmark::State& state) {
  RouterFixture& fixture = Brindale();
  util::Rng rng(11);
  const geo::BBox& extent = fixture.city.extent;
  for (auto _ : state) {
    geo::Point p{rng.Uniform(extent.min_x, extent.max_x),
                 rng.Uniform(extent.min_y, extent.max_y)};
    auto stops = fixture.router.walk_table().AccessStops(p);
    benchmark::DoNotOptimize(stops.data());
  }
}
BENCHMARK(BM_AccessStops)->Unit(benchmark::kMicrosecond);

void BM_WalkTableBuild(benchmark::State& state) {
  RouterFixture& fixture = Brindale();
  for (auto _ : state) {
    router::WalkTable table(&fixture.city.feed, router::WalkParams{});
    benchmark::DoNotOptimize(&table);
  }
}
BENCHMARK(BM_WalkTableBuild)->Unit(benchmark::kMillisecond);

void BM_RouterConstruction(benchmark::State& state) {
  RouterFixture& fixture = Brindale();
  for (auto _ : state) {
    router::Router router(&fixture.city.feed, router::RouterOptions{});
    benchmark::DoNotOptimize(&router);
  }
}
BENCHMARK(BM_RouterConstruction)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace staq::bench

BENCHMARK_MAIN();
