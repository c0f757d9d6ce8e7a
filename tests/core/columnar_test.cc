// Golden bit-identity suite for the columnar measure engine
// (core/columnar.h): every columnar derivation must equal the scalar foil
// bit for bit — on synthetic journeys, on kernel-backed measure reductions
// and on the frozen gravity norms. The end-to-end batch cases live with the
// serve batch tier (tests/serve/batch_query_test.cc).
#include "core/columnar.h"

#include <gtest/gtest.h>

#include "core/measures.h"
#include "core/todam.h"
#include "synth/city_builder.h"
#include "synth/city_spec.h"
#include "util/rng.h"

namespace staq::core {
namespace {

router::Journey FakeJourney(util::Rng* rng) {
  router::Journey j;
  j.feasible = true;
  j.depart = 7 * 3600 + static_cast<gtfs::TimeOfDay>(rng->NextU64() % 3600);
  j.access_walk_s = 60.0 * static_cast<double>(rng->NextU64() % 10);
  j.transfer_walk_s = 30.0 * static_cast<double>(rng->NextU64() % 4);
  j.wait_s = 15.0 * static_cast<double>(rng->NextU64() % 20);
  j.in_vehicle_s = 120.0 * static_cast<double>(rng->NextU64() % 15);
  j.egress_walk_s = 45.0 * static_cast<double>(rng->NextU64() % 8);
  j.num_boardings = static_cast<int>(rng->NextU64() % 4);
  j.total_fare = 1.5 * static_cast<double>(rng->NextU64() % 3);
  j.arrive = j.depart +
             static_cast<gtfs::TimeOfDay>(j.access_walk_s + j.wait_s +
                                          j.in_vehicle_s + j.egress_walk_s);
  return j;
}

TEST(MemberCostColumnTest, GacColumnBitIdenticalToScalarExpression) {
  util::Rng rng(77);
  TripCostColumns columns;
  std::vector<router::Journey> journeys;
  size_t base = columns.AppendZone(40);
  for (size_t i = 0; i < 40; ++i) {
    router::Journey j = FakeJourney(&rng);
    if (i % 7 == 3) j.feasible = false;  // stays a zeroed slot
    journeys.push_back(j);
    columns.Record(base + i, j);
  }

  std::vector<router::GacWeights> variants(3);
  variants[1].lambda_wt = 3.5;
  variants[1].transfer_penalty_s = 300;
  variants[2].lambda_tan = 1.0;
  variants[2].value_of_time = 12.0 / 3600.0;
  for (const router::GacWeights& w : variants) {
    std::vector<double> costs;
    MemberCostColumn(columns, {CostKind::kGeneralizedCost, w}, &costs);
    ASSERT_EQ(costs.size(), journeys.size());
    for (size_t i = 0; i < journeys.size(); ++i) {
      if (!journeys[i].feasible) continue;  // excluded by flags downstream
      EXPECT_EQ(costs[i], router::GeneralizedAccessCost(journeys[i], w))
          << "journey " << i;
    }
  }

  std::vector<double> jt;
  MemberCostColumn(columns, {CostKind::kJourneyTime, {}}, &jt);
  for (size_t i = 0; i < journeys.size(); ++i) {
    if (!journeys[i].feasible) continue;
    EXPECT_EQ(jt[i], journeys[i].JourneyTimeSeconds());
  }
}

TEST(MemberCostColumnTest, AggregationMatchesScalarLabelTail) {
  util::Rng rng(13);
  TripCostColumns columns;
  std::vector<std::vector<router::Journey>> zones(5);
  for (size_t z = 0; z < zones.size(); ++z) {
    size_t n = 3 + rng.NextU64() % 20;
    size_t base = columns.AppendZone(n);
    for (size_t i = 0; i < n; ++i) {
      router::Journey j = FakeJourney(&rng);
      if (rng.NextU64() % 5 == 0) j.feasible = false;
      zones[z].push_back(j);
      columns.Record(base + i, j);
    }
  }

  router::GacWeights w;
  std::vector<double> costs;
  MemberCostColumn(columns, {CostKind::kGeneralizedCost, w}, &costs);
  std::vector<ZoneLabel> labels = AggregateZoneLabels(columns, costs);
  ASSERT_EQ(labels.size(), zones.size());
  for (size_t z = 0; z < zones.size(); ++z) {
    // The scalar aggregation tail of labeling.cc, verbatim.
    double sum = 0.0, sum_sq = 0.0;
    uint32_t feasible = 0, infeasible = 0, walk_only = 0;
    for (const router::Journey& j : zones[z]) {
      if (!j.feasible) {
        ++infeasible;
        continue;
      }
      if (j.IsWalkOnly()) ++walk_only;
      double cost = router::GeneralizedAccessCost(j, w);
      sum += cost;
      sum_sq += cost * cost;
      ++feasible;
    }
    EXPECT_EQ(labels[z].num_trips, zones[z].size());
    EXPECT_EQ(labels[z].num_infeasible, infeasible);
    EXPECT_EQ(labels[z].num_walk_only, walk_only);
    if (feasible > 0) {
      double n = static_cast<double>(feasible);
      double mac = sum / n;
      double var = sum_sq / n - mac * mac;
      EXPECT_EQ(labels[z].mac, mac);
      EXPECT_EQ(labels[z].acsd, var > 0 ? std::sqrt(var) : 0.0);
    } else {
      EXPECT_EQ(labels[z].mac, 0.0);
      EXPECT_EQ(labels[z].acsd, 0.0);
    }
  }
}

TEST(ColumnarMeasuresTest, KernelReductionsBitIdenticalToScalarFoil) {
  util::Rng rng(99);
  for (size_t n : {1u, 2u, 63u, 500u}) {
    std::vector<double> mac(n), acsd(n), weights(n);
    for (size_t i = 0; i < n; ++i) {
      mac[i] = static_cast<double>(rng.NextU64() % 10000) / 7.0;
      acsd[i] = static_cast<double>(rng.NextU64() % 3000) / 11.0;
      weights[i] = static_cast<double>(rng.NextU64() % 500) / 3.0;
    }
    EXPECT_EQ(ClassifyAccessibility(mac, acsd),
              ClassifyAccessibilityColumnar(mac, acsd));
    EXPECT_EQ(JainIndex(mac), JainIndexColumnar(mac));
    EXPECT_EQ(WeightedJainIndex(mac, weights),
              WeightedJainIndexColumnar(mac, weights));
  }
}

TEST(ColumnarNormsTest, BitIdenticalOnBothCityFamilies) {
  for (bool brindale : {true, false}) {
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.05, 11)
                                    : synth::CitySpec::Covely(0.05, 12);
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok());
    for (synth::PoiCategory cat :
         {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital}) {
      std::vector<synth::Poi> pois = city.value().PoisOf(cat);
      EXPECT_EQ(StableGravityNorms(city.value().zones, pois, 3000.0),
                StableGravityNormsColumnar(city.value().zones, pois, 3000.0));
    }
  }
}

}  // namespace
}  // namespace staq::core
