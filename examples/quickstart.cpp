// Quickstart: build a synthetic city, ask one access query, print the
// zone-level accessibility summary.
//
//   $ ./quickstart
//
// This is the smallest complete use of the public API:
//   1. describe a city (or load your own zones/feed into synth::City),
//   2. create an AccessQueryEngine for a time interval,
//   3. query aggregate access to a POI category — exactly, or with the
//      SSR solution at a labeling budget.
// The engine is a front door over serve::AqServer, so the numbers printed
// here are exactly what the server (and `staq_cli query`) would answer.
#include <cstdio>

#include "core/access_query.h"
#include "synth/city_builder.h"

using namespace staq;

int main() {
  // 1. A Coventry-shaped city at 1/10 scale (~100 zones) so the example
  //    runs in well under a second.
  synth::CitySpec spec = synth::CitySpec::Covely(/*scale=*/0.1, /*seed=*/7);
  auto built = synth::BuildCity(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "city build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  synth::City city = std::move(built).value();
  std::printf("city '%s': %zu zones, %zu stops, %zu scheduled trips\n",
              spec.name.c_str(), city.zones.size(), city.feed.num_stops(),
              city.feed.num_trips());

  // 2. Engine for the weekday AM peak (07:00-09:00 Tuesday). Construction
  //    starts a one-worker AqServer and runs the offline phase: walking
  //    isochrones + transit-hop trees (plus the Connection Scan array).
  core::AccessQueryEngine engine(std::move(city), gtfs::WeekdayAmPeak());
  std::printf("offline pre-computation: %.3f s\n", engine.offline_seconds());

  // 3. "What is the average journey time to a school, and how fairly is
  //    it distributed?" — answered with the SSR solution at a 10% budget.
  core::AccessQueryOptions options;
  options.beta = 0.10;
  options.model = ml::ModelKind::kMlp;
  options.cost = core::CostKind::kJourneyTime;

  auto answer = engine.Query(synth::PoiCategory::kSchool, options);
  if (!answer.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 answer.status().ToString().c_str());
    return 1;
  }
  const core::AccessQueryResult& r = answer.value();

  std::printf("\naccess to schools (weekday AM peak):\n");
  std::printf("  mean journey time       : %.1f min\n", r.mean_mac / 60);
  std::printf("  mean temporal variation : %.1f min\n", r.mean_acsd / 60);
  std::printf("  fairness (Jain index)   : %.3f\n", r.fairness);
  std::printf("  population-weighted     : %.3f\n", r.population_fairness);
  std::printf("  SPQs issued             : %llu of %llu gravity trips\n",
              static_cast<unsigned long long>(r.spqs),
              static_cast<unsigned long long>(r.gravity_trips));
  std::printf("  answered in             : %.2f s\n", r.elapsed_s);

  // Per-zone classification histogram (the paper's AC measure).
  int histogram[4] = {0, 0, 0, 0};
  for (int c : r.classes) ++histogram[c];
  std::printf("\nzone classification:\n");
  for (int c = 0; c < 4; ++c) {
    std::printf("  %-12s %4d zones\n",
                core::AccessClassName(static_cast<core::AccessClass>(c)),
                histogram[c]);
  }
  return 0;
}
