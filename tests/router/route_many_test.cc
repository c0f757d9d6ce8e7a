// Golden equivalence for the batched SPQ path: RouteMany and the bounded
// relaxation must reproduce the per-query router bit for bit — the batched
// labeling pipeline depends on this being exact, not approximate.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "router/cost.h"
#include "router/router.h"
#include "testing/oracle.h"
#include "testing/test_city.h"
#include "util/rng.h"

namespace staq::router {
namespace {

void ExpectSameJourney(const Journey& a, const Journey& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.depart, b.depart);
  EXPECT_EQ(a.arrive, b.arrive);
  EXPECT_EQ(a.access_walk_s, b.access_walk_s);
  EXPECT_EQ(a.transfer_walk_s, b.transfer_walk_s);
  EXPECT_EQ(a.wait_s, b.wait_s);
  EXPECT_EQ(a.in_vehicle_s, b.in_vehicle_s);
  EXPECT_EQ(a.egress_walk_s, b.egress_walk_s);
  EXPECT_EQ(a.num_boardings, b.num_boardings);
  EXPECT_EQ(a.total_fare, b.total_fare);
  EXPECT_EQ(a.IsWalkOnly(), b.IsWalkOnly());
  EXPECT_EQ(a.JourneyTimeSeconds(), b.JourneyTimeSeconds());
  GacWeights w;
  EXPECT_EQ(GeneralizedAccessCost(a, w), GeneralizedAccessCost(b, w));
  ASSERT_EQ(a.legs.size(), b.legs.size());
  for (size_t i = 0; i < a.legs.size(); ++i) {
    EXPECT_EQ(a.legs[i].type, b.legs[i].type);
    EXPECT_EQ(a.legs[i].start, b.legs[i].start);
    EXPECT_EQ(a.legs[i].end, b.legs[i].end);
    EXPECT_EQ(a.legs[i].route, b.legs[i].route);
    EXPECT_EQ(a.legs[i].from_stop, b.legs[i].from_stop);
    EXPECT_EQ(a.legs[i].to_stop, b.legs[i].to_stop);
  }
}

// Sample origins/targets spread across the synthetic city, including points
// far outside the network (infeasible) and pairs closer than a walk.
struct QuerySet {
  std::vector<geo::Point> origins;
  std::vector<geo::Point> targets;
};

QuerySet SampleQueries(const synth::City& city, uint64_t seed) {
  QuerySet q;
  util::Rng rng(seed);
  const int64_t max_zone = static_cast<int64_t>(city.zones.size()) - 1;
  for (int i = 0; i < 6; ++i) {
    const auto& z =
        city.zones[static_cast<size_t>(rng.UniformInt(0, max_zone))];
    q.origins.push_back(z.centroid);
  }
  for (int i = 0; i < 10; ++i) {
    const auto& z =
        city.zones[static_cast<size_t>(rng.UniformInt(0, max_zone))];
    q.targets.push_back(
        geo::Point{z.centroid.x + rng.UniformDouble() * 200.0,
                   z.centroid.y - rng.UniformDouble() * 200.0});
  }
  // Unreachable target well outside any stop's walking reach.
  q.targets.push_back(geo::Point{1e7, 1e7});
  return q;
}

TEST(RouteManyTest, MatchesPerTargetRouteOnSyntheticCity) {
  synth::City city = testing::TinyCity();
  Router batched(&city.feed, testing::OracleOptions());
  Router single(&city.feed, testing::OracleOptions());
  QuerySet q = SampleQueries(city, /*seed=*/11);

  for (const geo::Point& origin : q.origins) {
    for (gtfs::TimeOfDay depart :
         {gtfs::MakeTime(7, 0), gtfs::MakeTime(8, 17) + 23,
          gtfs::MakeTime(12, 30)}) {
      std::vector<Journey> many =
          batched.RouteMany(origin, q.targets, gtfs::Day::kTuesday, depart);
      ASSERT_EQ(many.size(), q.targets.size());
      for (size_t t = 0; t < q.targets.size(); ++t) {
        Journey one = single.Route(origin, q.targets[t], gtfs::Day::kTuesday,
                                   depart);
        ExpectSameJourney(many[t], one);
      }
    }
  }
}

TEST(RouteManyTest, BoundedRelaxationMatchesUnbounded) {
  // Batched with the unreachable sentinel, a target's best total stays
  // +inf, so RelaxLimit prunes nothing and the settle loop never breaks
  // early: the unpruned search. The pruned Route must match it exactly.
  synth::City city = testing::TinyCity();
  Router pruned(&city.feed, testing::OracleOptions());
  Router full(&city.feed, testing::OracleOptions());
  QuerySet q = SampleQueries(city, /*seed=*/17);
  for (const geo::Point& p : testing::StopPositions(city.feed, 5)) {
    q.targets.push_back(p);
  }

  for (const geo::Point& origin : q.origins) {
    for (const geo::Point& target : q.targets) {
      for (gtfs::TimeOfDay depart :
           {gtfs::MakeTime(7, 45), gtfs::MakeTime(9, 3) + 41}) {
        Journey a = pruned.Route(origin, target, gtfs::Day::kWednesday,
                                 depart);
        std::vector<Journey> b =
            full.RouteMany(origin, {target, testing::kUnreachablePoint},
                           gtfs::Day::kWednesday, depart);
        ASSERT_FALSE(b[1].feasible);
        ExpectSameJourney(a, b[0]);
      }
    }
  }
}

TEST(RouteManyTest, MatchesRouteOnHandBuiltFeeds) {
  gtfs::Feed line = testing::LineFeed(600);
  gtfs::Feed transfer = testing::TransferFeed();
  for (gtfs::Feed* feed : {&line, &transfer}) {
    Router batched(feed, testing::OracleOptions());
    Router single(feed, testing::OracleOptions());
    std::vector<geo::Point> targets = {
        {4000, 100}, {300, 0}, {6000, 100}, {0, 0}, {1e7, 1e7}};
    std::vector<Journey> many = batched.RouteMany(
        {0, 50}, targets, gtfs::Day::kMonday, gtfs::MakeTime(7, 0));
    for (size_t t = 0; t < targets.size(); ++t) {
      Journey one = single.Route({0, 50}, targets[t], gtfs::Day::kMonday,
                                 gtfs::MakeTime(7, 0));
      ExpectSameJourney(many[t], one);
    }
  }
}

TEST(RouteManyTest, DuplicateTargetsGetIdenticalJourneys) {
  gtfs::Feed feed = testing::LineFeed(600);
  Router router(&feed, testing::OracleOptions());
  std::vector<geo::Point> targets = {{4000, 100}, {4000, 100}, {4000, 100}};
  std::vector<Journey> many = router.RouteMany(
      {0, 100}, targets, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  ASSERT_EQ(many.size(), 3u);
  ExpectSameJourney(many[0], many[1]);
  ExpectSameJourney(many[0], many[2]);
  EXPECT_TRUE(many[0].feasible);
}

TEST(RouteManyTest, OriginEqualsTarget) {
  gtfs::Feed feed = testing::LineFeed(600);
  Router router(&feed, testing::OracleOptions());
  std::vector<geo::Point> targets = {{0, 100}};
  std::vector<Journey> many = router.RouteMany(
      {0, 100}, targets, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  ASSERT_EQ(many.size(), 1u);
  ASSERT_TRUE(many[0].feasible);
  EXPECT_TRUE(many[0].IsWalkOnly());
  EXPECT_EQ(many[0].JourneyTimeSeconds(), 0.0);
}

TEST(RouteManyTest, EmptyTargetListIsANoOp) {
  gtfs::Feed feed = testing::LineFeed(600);
  Router router(&feed, testing::OracleOptions());
  std::vector<Journey> many = router.RouteMany(
      {0, 100}, {}, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  EXPECT_TRUE(many.empty());
}

TEST(RouteManyTest, ScratchReuseAcrossCallsStaysExact) {
  // Interleave batches and singles on ONE router so stale epoch state from
  // a previous call would be caught.
  synth::City city = testing::TinyCity();
  Router reused(&city.feed, testing::OracleOptions());
  Router fresh_feed(&city.feed, testing::OracleOptions());
  QuerySet q = SampleQueries(city, /*seed=*/23);

  for (int round = 0; round < 3; ++round) {
    for (const geo::Point& origin : q.origins) {
      gtfs::TimeOfDay depart = gtfs::MakeTime(7, 0) + round * 1117;
      std::vector<Journey> many =
          reused.RouteMany(origin, q.targets, gtfs::Day::kFriday, depart);
      for (size_t t = 0; t < q.targets.size(); ++t) {
        Router oneshot(&city.feed, testing::OracleOptions());
        Journey one = oneshot.Route(origin, q.targets[t], gtfs::Day::kFriday,
                                    depart);
        ExpectSameJourney(many[t], one);
      }
      // The same reused router answering a single query is also unaffected.
      Journey single = reused.Route(origin, q.targets[0], gtfs::Day::kFriday,
                                    depart);
      Journey expect = fresh_feed.Route(origin, q.targets[0],
                                        gtfs::Day::kFriday, depart);
      ExpectSameJourney(single, expect);
    }
  }
}

TEST(RouteManyTest, CachedOriginAccessMatchesInternalLookup) {
  synth::City city = testing::TinyCity();
  Router router(&city.feed, testing::OracleOptions());
  QuerySet q = SampleQueries(city, /*seed=*/29);
  const geo::Point origin = q.origins[0];
  std::vector<WalkHop> access = router.walk_table().AccessStops(origin);

  std::vector<Journey> with_cache(q.targets.size());
  router.RouteMany(origin, q.targets.data(), q.targets.size(),
                   gtfs::Day::kTuesday, gtfs::MakeTime(8, 0),
                   with_cache.data(), &access);
  std::vector<Journey> without =
      router.RouteMany(origin, q.targets, gtfs::Day::kTuesday,
                       gtfs::MakeTime(8, 0));
  for (size_t t = 0; t < q.targets.size(); ++t) {
    ExpectSameJourney(with_cache[t], without[t]);
  }
}

}  // namespace
}  // namespace staq::router
