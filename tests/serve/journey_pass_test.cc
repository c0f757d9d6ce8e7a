// Journey-pass sharing in the single-request path: the cost twins of one
// (category, seed) — JT and any GAC weights — derive their exact labels
// from one memoised routing pass and share one TODAM, while every answer
// stays bit-identical to AqServer::QueryUncached (scalar per-cost
// labeling, no memo). SSR requests reuse the scenario's zone features.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/transform.h"
#include "serve/server.h"
#include "synth/city_builder.h"
#include "synth/city_spec.h"
#include "testing/test_city.h"
#include "util/failpoint.h"

namespace staq::serve {
namespace {

AqRequest ExactRequest(synth::PoiCategory category, uint64_t seed,
                       core::CostKind cost, router::GacWeights gac = {}) {
  AqRequest request;
  request.category = category;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = seed;
  request.options.cost = cost;
  request.options.gac = gac;
  return request;
}

AqRequest Jt(uint64_t seed = 3,
             synth::PoiCategory category = synth::PoiCategory::kSchool) {
  return ExactRequest(category, seed, core::CostKind::kJourneyTime);
}

AqRequest Gac(router::GacWeights gac = {}, uint64_t seed = 3,
              synth::PoiCategory category = synth::PoiCategory::kSchool) {
  return ExactRequest(category, seed, core::CostKind::kGeneralizedCost, gac);
}

router::GacWeights WaitHeavyGac() {
  router::GacWeights gac;
  gac.lambda_wt = 3.5;
  gac.transfer_penalty_s = 300.0;
  return gac;
}

/// Every field of the answer except elapsed_s, including the accounting a
/// pass-derived answer promises to reproduce. A patched state reports the
/// SPQs of its patch instead, so `with_spqs` is off for those.
void ExpectBitIdentical(const core::AccessQueryResult& a,
                        const core::AccessQueryResult& b,
                        bool with_spqs = true) {
  ASSERT_EQ(a.mac.size(), b.mac.size());
  for (size_t z = 0; z < a.mac.size(); ++z) {
    EXPECT_EQ(a.mac[z], b.mac[z]) << "zone " << z;
    EXPECT_EQ(a.acsd[z], b.acsd[z]) << "zone " << z;
  }
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.mean_mac, b.mean_mac);
  EXPECT_EQ(a.mean_acsd, b.mean_acsd);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.population_fairness, b.population_fairness);
  EXPECT_EQ(a.vulnerable_fairness, b.vulnerable_fairness);
  EXPECT_EQ(a.gravity_trips, b.gravity_trips);
  if (with_spqs) {
    EXPECT_EQ(a.spqs, b.spqs);
  }
}

void ExpectMatchesUncached(AqServer* server, const AqRequest& request,
                           bool with_spqs = true) {
  auto served = server->Query(request);
  ASSERT_TRUE(served.ok()) << served.status();
  auto golden = server->QueryUncached(request);
  ASSERT_TRUE(golden.ok()) << golden.status();
  ExpectBitIdentical(served.value(), golden.value(), with_spqs);
}

std::unique_ptr<AqServer> TinyServer(size_t threads = 2) {
  AqServer::Options options;
  options.num_threads = threads;
  return std::make_unique<AqServer>(testing::TinyCity(),
                                    gtfs::WeekdayAmPeak(), options);
}

TEST(JourneyPassTest, CostTwinsMatchUncachedOnBothFamilies) {
  for (bool brindale : {true, false}) {
    SCOPED_TRACE(brindale ? "brindale" : "covely");
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.03, 21)
                                    : synth::CitySpec::Covely(0.04, 22);
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok());
    AqServer::Options options;
    options.num_threads = 2;
    AqServer server(std::move(city).value(), gtfs::WeekdayAmPeak(), options);

    // JT first, then its GAC twin off the same pass.
    ExpectMatchesUncached(&server, Jt(1));
    ExpectMatchesUncached(&server, Gac({}, 1));
    // GAC with custom weights first, then its JT twin.
    ExpectMatchesUncached(&server, Gac(WaitHeavyGac(), 2));
    ExpectMatchesUncached(&server, Jt(2));
    EXPECT_EQ(server.stats().journey_passes, 2u);
    EXPECT_EQ(server.stats().failed, 0u);
  }
}

TEST(JourneyPassTest, OnePassPerCategoryAndSeed) {
  auto server = TinyServer();
  for (synth::PoiCategory category :
       {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital}) {
    for (uint64_t seed : {3u, 9u}) {
      ASSERT_TRUE(server->Query(Jt(seed, category)).ok());
      ASSERT_TRUE(server->Query(Gac({}, seed, category)).ok());
      ASSERT_TRUE(server->Query(Gac(WaitHeavyGac(), seed, category)).ok());
    }
  }
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.journey_passes, 4u);
  EXPECT_EQ(stats.exact_state_builds, 12u);  // one label state per request

  // The twins of one seed share one TODAM.
  auto snapshot = server->Snapshot();
  const ExactLabelState* jt = nullptr;
  const ExactLabelState* gac = nullptr;
  for (const auto& [key, state] : snapshot->MaterializedStates()) {
    if (key.category != synth::PoiCategory::kSchool || key.seed != 3) continue;
    if (key.cost == core::CostKind::kJourneyTime) jt = state.get();
    if (key.cost == core::CostKind::kGeneralizedCost &&
        key.gac.lambda_wt == router::GacWeights().lambda_wt) {
      gac = state.get();
    }
  }
  ASSERT_NE(jt, nullptr);
  ASSERT_NE(gac, nullptr);
  EXPECT_EQ(jt->todam.get(), gac->todam.get());
}

TEST(JourneyPassTest, ConcurrentCostTwinsBuildOnePass) {
  auto server = TinyServer(4);
  constexpr int kThreads = 8;
  std::vector<AqRequest> requests;
  requests.push_back(Jt());
  for (int i = 1; i < kThreads; ++i) {
    router::GacWeights gac;
    gac.lambda_wt = 1.0 + 0.5 * i;
    requests.push_back(Gac(gac));
  }
  std::vector<util::Result<core::AccessQueryResult>> answers(
      kThreads, util::Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { answers[i] = server->Query(requests[i]); });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(server->stats().journey_passes, 1u);
  EXPECT_EQ(server->stats().exact_state_builds,
            static_cast<uint64_t>(kThreads));
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(answers[i].ok()) << answers[i].status();
    auto golden = server->QueryUncached(requests[i]);
    ASSERT_TRUE(golden.ok()) << golden.status();
    ExpectBitIdentical(answers[i].value(), golden.value());
  }
}

#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS
TEST(JourneyPassTest, FailedPassFailsEveryWaiterAndTheRetrySucceeds) {
  auto server = TinyServer(4);
  // Every pass build throws while armed, so a twin that joined the failing
  // build and one that arrived after its key was dropped both fail.
  util::FailPoints::Arm("serve.scenario.build_label_state",
                        util::FailPointConfig::Throw("simulated fault"));
  constexpr int kThreads = 8;
  std::vector<util::Result<core::AccessQueryResult>> answers(
      kThreads, util::Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      answers[i] = i % 2 == 0 ? server->Query(Jt()) : server->Query(Gac());
    });
  }
  for (auto& thread : threads) thread.join();
  util::FailPoints::Disarm("serve.scenario.build_label_state");

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_FALSE(answers[i].ok()) << "request " << i;
    EXPECT_EQ(answers[i].status().code(), util::StatusCode::kInternal);
  }
  EXPECT_GE(util::FailPoints::TripCount("serve.scenario.build_label_state"),
            1u);
  EXPECT_EQ(server->stats().journey_passes, 0u);

  // Neither the pass key nor the label-state keys were poisoned.
  ExpectMatchesUncached(server.get(), Gac());
  ExpectMatchesUncached(server.get(), Jt());
  EXPECT_EQ(server->stats().journey_passes, 1u);
}
#endif

TEST(JourneyPassTest, EditedEpochsBuildTheirOwnPass) {
  auto server = TinyServer();
  ExpectMatchesUncached(server.get(), Jt());
  EXPECT_EQ(server->stats().journey_passes, 1u);

  // AddPoi patches the JT state into epoch 1; its GAC twin has no state
  // there, and the epoch-0 pass is over the old POI set, so epoch 1 routes
  // its own pass.
  auto added = server->AddPoi(synth::PoiCategory::kSchool,
                              server->base_city().Centre());
  ASSERT_TRUE(added.ok()) << added.status();
  ExpectMatchesUncached(server.get(), Gac());
  EXPECT_EQ(server->stats().journey_passes, 2u);
  ExpectMatchesUncached(server.get(), Jt(), /*with_spqs=*/false);  // patched
  EXPECT_EQ(server->stats().journey_passes, 2u);

  // A fare change patches both materialised states and routes over a new
  // feed: a new GAC weighting in epoch 2 builds a pass on that feed.
  auto fare = server->SetFare(scenario::kAllRoutes, 4.25);
  ASSERT_TRUE(fare.ok()) << fare.status();
  ExpectMatchesUncached(server.get(), Gac(), /*with_spqs=*/false);
  ExpectMatchesUncached(server.get(), Jt(), /*with_spqs=*/false);
  EXPECT_EQ(server->stats().journey_passes, 2u);
  ExpectMatchesUncached(server.get(), Gac(WaitHeavyGac()));
  EXPECT_EQ(server->stats().journey_passes, 3u);
}

TEST(JourneyPassTest, SsrAnswersReuseOneFeatureMatrixPerCategory) {
  auto server = TinyServer();
  const std::vector<synth::PoiCategory> categories = {
      synth::PoiCategory::kSchool, synth::PoiCategory::kHospital};
  for (synth::PoiCategory category : categories) {
    for (ml::ModelKind model :
         {ml::ModelKind::kOls, ml::ModelKind::kMlp, ml::ModelKind::kCoreg,
          ml::ModelKind::kMeanTeacher}) {
      for (uint64_t seed : {3u, 9u}) {
        SCOPED_TRACE("model " + std::to_string(static_cast<int>(model)) +
                     " seed " + std::to_string(seed));
        AqRequest request = Jt(seed, category);
        request.options.exact = false;
        request.options.beta = 0.2;
        request.options.model = model;
        ExpectMatchesUncached(server.get(), request);
      }
    }
  }
  EXPECT_EQ(server->stats().feature_builds, categories.size());
  EXPECT_EQ(server->stats().journey_passes, 0u);
}

}  // namespace
}  // namespace staq::serve
