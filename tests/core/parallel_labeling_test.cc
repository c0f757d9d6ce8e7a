#include "core/parallel_labeling.h"

#include <cstdlib>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "testing/oracle.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

class ParallelLabelingTest : public ::testing::Test {
 protected:
  ParallelLabelingTest() : city_(testing::SmallCity()) {
    pois_ = city_.PoisOf(synth::PoiCategory::kSchool);
    GravityConfig gravity;
    gravity.sample_rate_per_hour = 4;
    gravity.keep_scale = 2.0;
    TodamBuilder builder(city_.zones, pois_, gtfs::WeekdayAmPeak(), gravity);
    todam_ = builder.BuildGravity(1);
    for (uint32_t z = 0; z < city_.zones.size(); ++z) {
      all_zones_.push_back(z);
    }
  }

  synth::City city_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
  std::vector<uint32_t> all_zones_;
};

TEST_F(ParallelLabelingTest, MatchesSerialExactly) {
  uint64_t serial_spqs = 0, parallel_spqs = 0;
  auto serial = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                   CostKind::kJourneyTime,
                                   gtfs::Day::kTuesday, /*num_threads=*/1,
                                   {}, {}, &serial_spqs);
  auto parallel = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, /*num_threads=*/4,
                                     {}, {}, &parallel_spqs);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial_spqs, parallel_spqs);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].mac, parallel[i].mac) << "zone " << i;
    EXPECT_DOUBLE_EQ(serial[i].acsd, parallel[i].acsd);
    EXPECT_EQ(serial[i].num_trips, parallel[i].num_trips);
    EXPECT_EQ(serial[i].num_walk_only, parallel[i].num_walk_only);
  }
}

TEST_F(ParallelLabelingTest, GacCostKindMatchesToo) {
  auto serial = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                   CostKind::kGeneralizedCost,
                                   gtfs::Day::kTuesday, 1);
  auto parallel = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kGeneralizedCost,
                                     gtfs::Day::kTuesday, 3);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].mac, parallel[i].mac);
  }
}

TEST_F(ParallelLabelingTest, MoreThreadsThanZones) {
  std::vector<uint32_t> few{0, 1, 2};
  auto labels = LabelZonesParallel(city_, todam_, few, pois_,
                                   CostKind::kJourneyTime,
                                   gtfs::Day::kTuesday, /*num_threads=*/16);
  ASSERT_EQ(labels.size(), 3u);
  for (const ZoneLabel& label : labels) {
    EXPECT_GT(label.num_trips, 0u);
  }
}

TEST_F(ParallelLabelingTest, EmptyZoneList) {
  auto labels = LabelZonesParallel(city_, todam_, {}, pois_,
                                   CostKind::kJourneyTime,
                                   gtfs::Day::kTuesday, 4);
  EXPECT_TRUE(labels.empty());
}

/// Bit-identity (not tolerance) between two labelings: the contract the
/// serve snapshots and result cache rely on is that thread count is never
/// observable in an answer.
void ExpectBitIdentical(const std::vector<ZoneLabel>& a,
                        const std::vector<ZoneLabel>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mac, b[i].mac) << "zone " << i;
    EXPECT_EQ(a[i].acsd, b[i].acsd) << "zone " << i;
    EXPECT_EQ(a[i].num_trips, b[i].num_trips) << "zone " << i;
    EXPECT_EQ(a[i].num_infeasible, b[i].num_infeasible) << "zone " << i;
    EXPECT_EQ(a[i].num_walk_only, b[i].num_walk_only) << "zone " << i;
  }
}

/// JT labels of the default CSA engine against the label-correcting oracle
/// (one worker), at 1, 2 and 8 workers all sharing one connection array.
/// Journey times are engine-invariant, so MAC/ACSD must agree exactly.
void ExpectCsaMatchesOracle(const synth::City& city, const Todam& todam,
                            const std::vector<uint32_t>& zones,
                            const std::vector<synth::Poi>& pois) {
  uint64_t oracle_spqs = 0;
  auto oracle = LabelZonesParallel(city, todam, zones, pois,
                                   CostKind::kJourneyTime, gtfs::Day::kTuesday,
                                   /*num_threads=*/1, testing::OracleOptions(),
                                   {}, &oracle_spqs);
  for (size_t threads : {1u, 2u, 8u}) {
    uint64_t spqs = 0;
    auto csa = LabelZonesParallel(city, todam, zones, pois,
                                  CostKind::kJourneyTime, gtfs::Day::kTuesday,
                                  threads, {}, {}, &spqs);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EXPECT_EQ(spqs, oracle_spqs);
    ExpectBitIdentical(oracle, csa);
  }
}

TEST_F(ParallelLabelingTest, ThreadCountSweepIsBitIdentical) {
  // Golden-seed determinism across the whole thread sweep, on both routing
  // engines: 1, 2, and 8 workers partition the zones differently, yet every
  // label and the SPQ count must come out bit-identical.
  for (router::RoutingEngine engine : {router::RoutingEngine::kCsa,
                                       router::RoutingEngine::kLabelCorrecting}) {
    router::RouterOptions options;
    options.engine = engine;
    uint64_t baseline_spqs = 0;
    auto baseline = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                       CostKind::kJourneyTime,
                                       gtfs::Day::kTuesday, /*num_threads=*/1,
                                       options, {}, &baseline_spqs);
    for (size_t threads : {2u, 8u}) {
      uint64_t spqs = 0;
      auto labels = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                       CostKind::kJourneyTime,
                                       gtfs::Day::kTuesday, threads, options,
                                       {}, &spqs);
      SCOPED_TRACE(::testing::Message()
                   << "engine " << static_cast<int>(engine) << " threads "
                   << threads);
      EXPECT_EQ(spqs, baseline_spqs);
      ExpectBitIdentical(baseline, labels);
    }
  }
}

TEST_F(ParallelLabelingTest, CsaMatchesOracleAcrossThreads) {
  ExpectCsaMatchesOracle(city_, todam_, all_zones_, pois_);
}

TEST_F(ParallelLabelingTest, ProfileGacSweepIsBitIdentical) {
  // GAC depends on leg decomposition, which may tie-differ BETWEEN engines,
  // so the cross-thread contract is pinned within the CSA engine: the
  // thread count must never be observable in a window-scan label.
  uint64_t baseline_spqs = 0;
  auto baseline = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kGeneralizedCost,
                                     gtfs::Day::kTuesday, /*num_threads=*/1,
                                     {}, {}, &baseline_spqs);
  for (size_t threads : {2u, 8u}) {
    uint64_t spqs = 0;
    auto labels = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kGeneralizedCost,
                                     gtfs::Day::kTuesday, threads, {}, {},
                                     &spqs);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EXPECT_EQ(spqs, baseline_spqs);
    ExpectBitIdentical(baseline, labels);
  }
}

/// Brindale 0.1 (the Covely fixture covers the first family): its radial
/// layout produces different zone geometry and trip mixes, so a
/// scheduling-order dependence that Covely masks would surface here.
struct BrindaleFixture {
  synth::City city;
  std::vector<synth::Poi> pois;
  Todam todam;
  std::vector<uint32_t> zones;
};

BrindaleFixture MakeBrindale() {
  auto built = synth::BuildCity(synth::CitySpec::Brindale(0.1, 7));
  if (!built.ok()) std::abort();
  BrindaleFixture f{std::move(built).value(), {}, {}, {}};
  f.pois = f.city.PoisOf(synth::PoiCategory::kSchool);
  GravityConfig gravity;
  gravity.sample_rate_per_hour = 4;
  gravity.keep_scale = 2.0;
  TodamBuilder builder(f.city.zones, f.pois, gtfs::WeekdayAmPeak(), gravity);
  f.todam = builder.BuildGravity(/*seed=*/3);
  for (uint32_t z = 0; z < f.city.zones.size(); ++z) f.zones.push_back(z);
  return f;
}

TEST(ParallelLabelingCityTest, BrindaleSweepIsBitIdentical) {
  BrindaleFixture f = MakeBrindale();
  ASSERT_FALSE(f.pois.empty());

  uint64_t baseline_spqs = 0;
  auto baseline = LabelZonesParallel(f.city, f.todam, f.zones, f.pois,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, /*num_threads=*/1,
                                     {}, {}, &baseline_spqs);
  for (size_t threads : {2u, 8u}) {
    uint64_t spqs = 0;
    auto labels = LabelZonesParallel(f.city, f.todam, f.zones, f.pois,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, threads, {}, {},
                                     &spqs);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EXPECT_EQ(spqs, baseline_spqs);
    ExpectBitIdentical(baseline, labels);
  }
}

TEST(ParallelLabelingCityTest, BrindaleCsaMatchesOracleAcrossThreads) {
  BrindaleFixture f = MakeBrindale();
  ASSERT_FALSE(f.pois.empty());
  ExpectCsaMatchesOracle(f.city, f.todam, f.zones, f.pois);
}

TEST_F(ParallelLabelingTest, ParallelGroundTruthMatches) {
  SsrPipeline pipeline(&city_, gtfs::WeekdayAmPeak());
  GroundTruth serial = pipeline.ComputeGroundTruth(
      pois_, todam_, CostKind::kJourneyTime);
  GroundTruth parallel = pipeline.ComputeGroundTruth(
      pois_, todam_, CostKind::kJourneyTime, {}, /*num_threads=*/4);
  EXPECT_EQ(serial.mac, parallel.mac);
  EXPECT_EQ(serial.acsd, parallel.acsd);
  EXPECT_EQ(serial.spqs, parallel.spqs);
  EXPECT_DOUBLE_EQ(serial.walk_only_fraction, parallel.walk_only_fraction);
}

}  // namespace
}  // namespace staq::core
