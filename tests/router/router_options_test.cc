// RouterOptions validation: non-positive horizons, boarding waits, or walk
// budgets would silently turn every query into an empty search, so the
// Router constructor aborts on them via STAQ_CHECK (util/check.h) — for
// both engines, since CSA shares the options struct.
#include <gtest/gtest.h>

#include "router/router.h"
#include "testing/oracle.h"
#include "testing/test_city.h"

namespace staq::router {
namespace {

class RouterOptionsDeathTest : public ::testing::Test {
 protected:
  gtfs::Feed feed_ = testing::LineFeed(600);
};

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveHorizon) {
  RouterOptions options;
  options.horizon_s = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
  options.horizon_s = -3600;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveBoardingWait) {
  RouterOptions options;
  options.max_boarding_wait_s = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveWalkSpeed) {
  RouterOptions options;
  options.walk.speed_mps = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveDetourFactor) {
  RouterOptions options;
  options.walk.detour_factor = -1.0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, RejectsNonPositiveWalkBudgets) {
  RouterOptions options;
  options.walk.max_access_walk_s = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
  options = RouterOptions{};
  options.walk.max_transfer_walk_s = -5;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, CsaEngineValidatesTheSameOptions) {
  RouterOptions options;
  options.engine = RoutingEngine::kCsa;
  options.horizon_s = 0;
  EXPECT_DEATH(Router(&feed_, options), "CHECK failed");
}

TEST_F(RouterOptionsDeathTest, ValidOptionsConstruct) {
  Router lc(&feed_, testing::OracleOptions());
  EXPECT_EQ(lc.csa(), nullptr);
  RouterOptions csa_options;
  csa_options.engine = RoutingEngine::kCsa;
  Router csa(&feed_, csa_options);
  EXPECT_NE(csa.csa(), nullptr);
}

}  // namespace
}  // namespace staq::router
