#include "core/access_query.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "synth/city_builder.h"
#include "synth/city_spec.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

AccessQueryOptions FastOptions(bool exact = false) {
  AccessQueryOptions options;
  options.exact = exact;
  options.beta = 0.2;
  options.model = ml::ModelKind::kOls;
  options.gravity.sample_rate_per_hour = 4;
  options.gravity.keep_scale = 2.0;
  options.seed = 2;
  return options;
}

class AccessQueryTest : public ::testing::Test {
 protected:
  AccessQueryTest()
      : engine_(testing::SmallCity(), gtfs::WeekdayAmPeak()) {}

  AccessQueryEngine engine_;
};

TEST_F(AccessQueryTest, SsrQueryAnswersWithFullCoverage) {
  auto result = engine_.Query(synth::PoiCategory::kSchool, FastOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& r = result.value();
  EXPECT_EQ(r.mac.size(), engine_.city().zones.size());
  EXPECT_EQ(r.classes.size(), r.mac.size());
  EXPECT_GT(r.mean_mac, 0.0);
  EXPECT_GT(r.fairness, 0.0);
  EXPECT_LE(r.fairness, 1.0);
  EXPECT_GT(r.population_fairness, 0.0);
  EXPECT_GT(r.vulnerable_fairness, 0.0);
  EXPECT_GT(r.spqs, 0u);
  EXPECT_GT(r.gravity_trips, 0u);
  EXPECT_GT(r.elapsed_s, 0.0);
}

TEST_F(AccessQueryTest, ExactQueryUsesAllTrips) {
  auto ssr = engine_.Query(synth::PoiCategory::kVaxCenter, FastOptions());
  auto exact = engine_.Query(synth::PoiCategory::kVaxCenter,
                             FastOptions(/*exact=*/true));
  ASSERT_TRUE(ssr.ok() && exact.ok());
  EXPECT_EQ(exact.value().spqs, exact.value().gravity_trips);
  EXPECT_LT(ssr.value().spqs, exact.value().spqs);
}

TEST_F(AccessQueryTest, SsrApproximatesExactMeans) {
  AccessQueryOptions options = FastOptions();
  options.model = ml::ModelKind::kMlp;  // OLS is erratic at small budgets
  options.beta = 0.3;
  auto ssr = engine_.Query(synth::PoiCategory::kSchool, options);
  auto exact =
      engine_.Query(synth::PoiCategory::kSchool, FastOptions(true));
  ASSERT_TRUE(ssr.ok() && exact.ok());
  // Not exact, but within a generous band at beta = 30%.
  EXPECT_NEAR(ssr.value().mean_mac / exact.value().mean_mac, 1.0, 0.5);
  EXPECT_NEAR(ssr.value().fairness, exact.value().fairness, 0.3);
}

TEST_F(AccessQueryTest, UnknownCategoryEmptyCityFails) {
  synth::City city = testing::SmallCity();
  city.pois.clear();
  AccessQueryEngine empty(std::move(city), gtfs::WeekdayAmPeak());
  auto result = empty.Query(synth::PoiCategory::kSchool, FastOptions());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST_F(AccessQueryTest, AddPoiImprovesItsNeighborhood) {
  AccessQueryOptions options = FastOptions(/*exact=*/true);
  auto before = engine_.Query(synth::PoiCategory::kHospital, options);
  ASSERT_TRUE(before.ok());

  // Drop a new hospital at the worst-served zone's centroid.
  size_t worst = 0;
  for (size_t z = 1; z < before.value().mac.size(); ++z) {
    if (before.value().mac[z] > before.value().mac[worst]) worst = z;
  }
  geo::Point site = engine_.city().zones[worst].centroid;
  uint32_t id = engine_.AddPoi(synth::PoiCategory::kHospital, site);

  auto after = engine_.Query(synth::PoiCategory::kHospital, options);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value().mac[worst], before.value().mac[worst]);

  // Removing it restores the original answer.
  ASSERT_TRUE(engine_.RemovePoi(id).ok());
  auto restored = engine_.Query(synth::PoiCategory::kHospital, options);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().mac, before.value().mac);
}

TEST_F(AccessQueryTest, RemoveUnknownPoiFails) {
  EXPECT_EQ(engine_.RemovePoi(999999).code(), util::StatusCode::kNotFound);
}

TEST_F(AccessQueryTest, SetIntervalRerunsOfflinePhase) {
  auto am = engine_.Query(synth::PoiCategory::kSchool, FastOptions(true));
  ASSERT_TRUE(am.ok());
  engine_.SetInterval(gtfs::SundayMorning());
  EXPECT_EQ(engine_.interval().day, gtfs::Day::kSunday);
  auto sunday = engine_.Query(synth::PoiCategory::kSchool, FastOptions(true));
  ASSERT_TRUE(sunday.ok());
  // Sparser Sunday service: mean access cost should not improve.
  EXPECT_GE(sunday.value().mean_mac, 0.9 * am.value().mean_mac);
}

TEST_F(AccessQueryTest, ClassesPartitionTheCity) {
  auto result = engine_.Query(synth::PoiCategory::kSchool, FastOptions(true));
  ASSERT_TRUE(result.ok());
  int histogram[4] = {0, 0, 0, 0};
  for (int c : result.value().classes) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 4);
    ++histogram[c];
  }
  // The classification rules guarantee at least "best" and one bad class
  // are non-empty for any non-constant distribution.
  EXPECT_GT(histogram[static_cast<int>(AccessClass::kBest)], 0);
}

/// The engine is a front door over serve::AqServer: every answer must be
/// the server's from-scratch reference bit for bit, accounting included.
TEST(AccessQueryParityTest, QueryBitIdenticalToServerUncachedOnBothFamilies) {
  for (bool brindale : {true, false}) {
    SCOPED_TRACE(brindale ? "brindale" : "covely");
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.03, 21)
                                    : synth::CitySpec::Covely(0.04, 22);
    auto engine_city = synth::BuildCity(spec);
    auto server_city = synth::BuildCity(spec);
    ASSERT_TRUE(engine_city.ok() && server_city.ok());
    AccessQueryEngine engine(std::move(engine_city).value(),
                             gtfs::WeekdayAmPeak());
    serve::AqServer server(std::move(server_city).value(),
                           gtfs::WeekdayAmPeak());

    AccessQueryOptions exact_gac = FastOptions(/*exact=*/true);
    exact_gac.cost = CostKind::kGeneralizedCost;
    const std::vector<std::pair<const char*, AccessQueryOptions>> cases = {
        {"exact jt", FastOptions(/*exact=*/true)},
        {"exact gac", exact_gac},
        {"ssr", FastOptions()},
    };
    for (const auto& [name, options] : cases) {
      SCOPED_TRACE(name);
      auto library = engine.Query(synth::PoiCategory::kSchool, options);
      auto golden =
          server.QueryUncached({synth::PoiCategory::kSchool, options});
      ASSERT_TRUE(library.ok()) << library.status();
      ASSERT_TRUE(golden.ok()) << golden.status();
      const AccessQueryResult& a = library.value();
      const AccessQueryResult& b = golden.value();
      EXPECT_EQ(a.mac, b.mac);
      EXPECT_EQ(a.acsd, b.acsd);
      EXPECT_EQ(a.classes, b.classes);
      EXPECT_EQ(a.mean_mac, b.mean_mac);
      EXPECT_EQ(a.mean_acsd, b.mean_acsd);
      EXPECT_EQ(a.fairness, b.fairness);
      EXPECT_EQ(a.population_fairness, b.population_fairness);
      EXPECT_EQ(a.vulnerable_fairness, b.vulnerable_fairness);
      EXPECT_EQ(a.spqs, b.spqs);
      EXPECT_EQ(a.gravity_trips, b.gravity_trips);
    }
  }
}

}  // namespace
}  // namespace staq::core
