#include "serve/server.h"

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "testing/test_city.h"
#include "util/clock.h"

namespace staq::serve {
namespace {

AqRequest FastExactRequest(
    synth::PoiCategory category = synth::PoiCategory::kSchool) {
  AqRequest request;
  request.category = category;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  return request;
}

AqRequest FastSsrRequest() {
  AqRequest request = FastExactRequest();
  request.options.exact = false;
  request.options.beta = 0.2;
  request.options.model = ml::ModelKind::kOls;
  return request;
}

/// Payload equality between two answers — everything except the cost
/// accounting fields (spqs/elapsed differ between cached, incremental, and
/// from-scratch paths by design).
void ExpectSameAnswer(const core::AccessQueryResult& a,
                      const core::AccessQueryResult& b) {
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
}

class AqServerTest : public ::testing::Test {
 protected:
  AqServerTest() {
    AqServer::Options options;
    options.num_threads = 4;
    server_ = std::make_unique<AqServer>(testing::TinyCity(),
                                         gtfs::WeekdayAmPeak(), options);
  }

  std::unique_ptr<AqServer> server_;
};

TEST_F(AqServerTest, ExactQueryMatchesUncachedGolden) {
  auto served = server_->Query(FastExactRequest());
  ASSERT_TRUE(served.ok()) << served.status();
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(served.value(), golden.value());
  EXPECT_EQ(served.value().spqs,
            served.value().gravity_trips);  // full build labels every trip
}

TEST_F(AqServerTest, InvalidGacWeightsAreRejectedAtAdmission) {
  std::vector<router::GacWeights> invalid(3);
  invalid[0].lambda_wt = -1.0;
  invalid[1].value_of_time = 0.0;
  invalid[2].value_of_time = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < invalid.size(); ++i) {
    SCOPED_TRACE("weights " + std::to_string(i));
    AqRequest request = FastExactRequest();
    request.options.cost = core::CostKind::kGeneralizedCost;
    request.options.gac = invalid[i];
    auto served = server_->Query(request);
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), util::StatusCode::kInvalidArgument);
    auto golden = server_->QueryUncached(request);
    ASSERT_FALSE(golden.ok());
    EXPECT_EQ(golden.status().code(), util::StatusCode::kInvalidArgument);
  }
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.failed, invalid.size());
  EXPECT_EQ(stats.exact_state_builds, 0u) << "an invalid request ran";

  // Journey-time requests ignore the weights entirely.
  AqRequest jt = FastExactRequest();
  jt.options.gac = invalid[1];
  EXPECT_TRUE(server_->Query(jt).ok());
}

TEST_F(AqServerTest, SsrQueryMatchesUncachedGolden) {
  auto served = server_->Query(FastSsrRequest());
  ASSERT_TRUE(served.ok()) << served.status();
  auto golden = server_->QueryUncached(FastSsrRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(served.value(), golden.value());
}

TEST_F(AqServerTest, RepeatQueriesHitTheResultCache) {
  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());
  uint64_t hits_before = server_->stats().cache_hits;
  auto repeat = server_->Query(FastExactRequest());
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(server_->stats().cache_hits, hits_before + 1);
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(repeat.value(), golden.value());
}

TEST_F(AqServerTest, MutationInvalidatesByEpochNotByFlush) {
  auto before = server_->Query(FastExactRequest());
  ASSERT_TRUE(before.ok());

  // Corner placement keeps the perturbation local: only zones that sample
  // a trip to the new POI are relabeled.
  const geo::BBox& extent = server_->base_city().extent;
  auto report = server_->AddPoi(synth::PoiCategory::kSchool,
                                geo::Point{extent.min_x, extent.min_y});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().epoch, 1u);

  // Same request, new epoch: must miss the cache and see the new POI.
  auto after = server_->Query(FastExactRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value().gravity_trips, before.value().gravity_trips);

  // Incremental answer equals the uncached golden on the mutated scenario.
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(after.value(), golden.value());
  // ...at a fraction of the SPQ cost (only affected zones were relabeled).
  EXPECT_LT(report.value().spqs, golden.value().spqs);
}

TEST_F(AqServerTest, RemoveLastCategoryPoiYieldsNotFound) {
  std::vector<uint32_t> vax_ids;
  for (const synth::Poi& poi : server_->Snapshot()->pois()) {
    if (poi.category == synth::PoiCategory::kVaxCenter)
      vax_ids.push_back(poi.id);
  }
  ASSERT_FALSE(vax_ids.empty());
  for (uint32_t id : vax_ids) ASSERT_TRUE(server_->RemovePoi(id).ok());

  auto result = server_->Query(FastExactRequest(synth::PoiCategory::kVaxCenter));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST_F(AqServerTest, ConcurrentClientsAllGetTheGoldenAnswer) {
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 4;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  std::vector<core::AccessQueryResult> answers(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto result = server_->Query(FastExactRequest());
        if (result.ok()) {
          answers[c] = std::move(result).value();
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueriesPerClient);
  for (int c = 0; c < kClients; ++c) {
    ExpectSameAnswer(answers[c], golden.value());
  }
  // The exact label state was built at most once per epoch.
  EXPECT_LE(server_->stats().exact_state_builds, 2u);
}

TEST_F(AqServerTest, ConcurrentQueriesAndMutationsStaySelfConsistent) {
  // Materialise the epoch-0 label state so mutations have patch work to do
  // while the clients hammer the query path.
  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());

  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int q = 0; q < 6; ++q) {
        auto result = server_->Query(FastExactRequest());
        // Every answer is a complete result for *some* epoch's scenario —
        // never a torn mix of two epochs.
        if (result.ok()) {
          EXPECT_EQ(result.value().mac.size(),
                    server_->base_city().zones.size());
          answered.fetch_add(1);
        }
      }
    });
  }
  std::vector<uint32_t> added;
  for (int m = 0; m < 4; ++m) {
    auto report = server_->AddPoi(synth::PoiCategory::kSchool,
                                  server_->base_city().Centre());
    ASSERT_TRUE(report.ok()) << report.status();
    added.push_back(report.value().poi_id);
  }
  for (uint32_t id : added) ASSERT_TRUE(server_->RemovePoi(id).ok());
  for (auto& client : clients) client.join();
  EXPECT_EQ(answered.load(), 18);
  EXPECT_EQ(server_->stats().mutations, 8u);

  // After the add/remove round-trip the scenario's answer equals epoch 0's
  // (history independence), even though the epoch advanced.
  EXPECT_EQ(server_->epoch(), 8u);
  auto final_result = server_->Query(FastExactRequest());
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(final_result.ok() && golden.ok());
  ExpectSameAnswer(final_result.value(), golden.value());
}

TEST_F(AqServerTest, AdmissionRejectsWhenQueueIsFull) {
  AqServer::Options options;
  options.num_threads = 1;
  options.max_pending = 0;  // admit nothing
  AqServer tiny(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  auto ticket = tiny.Submit(FastExactRequest());
  auto result = ticket.Get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(tiny.stats().rejected, 1u);
}

TEST_F(AqServerTest, QueuedRequestCanBeCancelled) {
  AqServer::Options options;
  options.num_threads = 1;
  AqServer single(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  // Occupy the only worker, then cancel a request stuck behind it.
  AqTicket busy = single.Submit(FastExactRequest());
  AqTicket queued = single.Submit(FastSsrRequest());
  if (queued.TryCancel()) {
    auto result = queued.Get();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
    EXPECT_EQ(single.stats().cancelled, 1u);
  } else {
    // Lost the race: the worker already picked it up, so it must resolve
    // normally.
    EXPECT_TRUE(queued.Get().ok());
  }
  EXPECT_TRUE(busy.Get().ok());
}

TEST_F(AqServerTest, ExpiredDeadlineFailsWithoutRunning) {
  // Deadlines are read off the injected clock, so expiry is forced by
  // advancing virtual time — no sleeps, no real-time sensitivity. (The
  // fault-injection suite additionally pins the worker with a kBlock
  // failpoint for a fully schedule-independent variant.)
  util::VirtualClock clock;
  AqServer::Options options;
  options.num_threads = 1;
  options.clock = &clock;
  AqServer single(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  // Three distinct keys: each is a full label build, so the queue stays
  // deep while the virtual clock jumps.
  AqTicket busy1 = single.Submit(FastExactRequest());
  AqTicket busy2 = single.Submit(FastExactRequest(synth::PoiCategory::kVaxCenter));
  AqRequest reseeded = FastExactRequest();
  reseeded.options.seed = 7;
  AqTicket busy3 = single.Submit(reseeded);

  AqRequest doomed = FastSsrRequest();
  doomed.deadline_s = 1000.0;  // only virtual time can expire this
  AqTicket ticket = single.Submit(doomed);
  clock.AdvanceSeconds(2000.0);

  auto result = ticket.Get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(single.stats().deadline_exceeded, 1u);
  EXPECT_TRUE(busy1.Get().ok());
  EXPECT_TRUE(busy2.Get().ok());
  EXPECT_TRUE(busy3.Get().ok());
}

TEST_F(AqServerTest, TicketRecordsItsAdmissionEpoch) {
  AqTicket empty;
  EXPECT_EQ(empty.epoch(), AqTicket::kNoEpoch);

  AqTicket at_zero = server_->Submit(FastExactRequest());
  EXPECT_EQ(at_zero.epoch(), 0u);
  ASSERT_TRUE(at_zero.Get().ok());

  auto report = server_->AddPoi(synth::PoiCategory::kSchool,
                                server_->base_city().Centre());
  ASSERT_TRUE(report.ok());
  AqTicket at_one = server_->Submit(FastExactRequest());
  EXPECT_EQ(at_one.epoch(), 1u);
  ASSERT_TRUE(at_one.Get().ok());

  AqServer::Options options;
  options.num_threads = 1;
  options.max_pending = 0;
  AqServer full(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  AqTicket rejected = full.Submit(FastExactRequest());
  EXPECT_EQ(rejected.epoch(), AqTicket::kNoEpoch);  // never resolved a snapshot
  EXPECT_FALSE(rejected.Get().ok());
}

TEST_F(AqServerTest, ResultCacheTtlAgesOnTheServerClock) {
  // The cache inherits the server's (virtual) clock, so cached answers age
  // out when virtual time passes the TTL — and only then.
  util::VirtualClock clock;
  AqServer::Options options;
  options.num_threads = 2;
  options.clock = &clock;
  options.cache.ttl_s = 60.0;
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  ASSERT_TRUE(server.Query(FastExactRequest()).ok());
  ASSERT_TRUE(server.Query(FastExactRequest()).ok());
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.stats().cache_expired, 0u);

  clock.AdvanceSeconds(120.0);
  auto refreshed = server.Query(FastExactRequest());  // aged out: recomputes
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.stats().cache_expired, 1u);
  auto golden = server.QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(refreshed.value(), golden.value());
}

TEST_F(AqServerTest, DestructionWithOutstandingRequestsIsClean) {
  // ~AqServer tears down the pool first, which finishes already-queued
  // tasks before joining — those tasks lease worker contexts and bump the
  // stats counters, so every other member must still be alive (regression:
  // pool_ must be the last declared member).
  AqServer::Options options;
  options.num_threads = 2;
  auto server = std::make_unique<AqServer>(testing::TinyCity(),
                                           gtfs::WeekdayAmPeak(), options);
  std::vector<AqTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(server->Submit(FastExactRequest()));
  }
  server.reset();  // destroys with requests still queued / in flight
  for (AqTicket& ticket : tickets) {
    EXPECT_TRUE(ticket.Get().ok());
  }
}

TEST_F(AqServerTest, GetGuardsEmptyAndConsumedTickets) {
  AqTicket empty;
  auto no_result = empty.Get();
  EXPECT_FALSE(no_result.ok());
  EXPECT_EQ(no_result.status().code(), util::StatusCode::kFailedPrecondition);

  AqTicket ticket = server_->Submit(FastExactRequest());
  EXPECT_TRUE(ticket.Get().ok());
  auto again = ticket.Get();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(AqServerTest, StatsAccumulateAcrossTheLifetime) {
  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());
  ASSERT_TRUE(server_->Query(FastExactRequest()).ok());
  auto stats = server_->stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
  EXPECT_EQ(stats.exact_state_builds, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

}  // namespace
}  // namespace staq::serve
