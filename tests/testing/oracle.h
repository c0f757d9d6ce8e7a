// The label-correcting oracle. RouterOptions default to the Connection Scan
// engine; a test that means the oracle search (router internals, or the
// reference a CSA answer is checked against) names it through this helper.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/latlon.h"
#include "gtfs/feed.h"
#include "router/router.h"

namespace staq::testing {

/// Default router options with the label-correcting engine selected.
inline router::RouterOptions OracleOptions() {
  router::RouterOptions options;
  options.engine = router::RoutingEngine::kLabelCorrecting;
  return options;
}

/// The positions of every `stride`-th stop of `feed`. A target standing on
/// a stop has a zero-second egress there, so a pruning bound that cuts even
/// a few seconds too early loses its best journey.
inline std::vector<geo::Point> StopPositions(const gtfs::Feed& feed,
                                             size_t stride) {
  std::vector<geo::Point> points;
  for (size_t s = 0; s < feed.num_stops(); s += stride) {
    points.push_back(feed.stop(static_cast<gtfs::StopId>(s)).position);
  }
  return points;
}

/// A point far outside every test city, beyond any walk budget. Batched as
/// an extra target, its best total stays +inf, so the worst total is +inf
/// and neither engine's RelaxLimit prunes anything: RouteMany(origin,
/// {target, kUnreachablePoint}) is the unpruned reference search.
inline constexpr geo::Point kUnreachablePoint{1e7, 1e7};

}  // namespace staq::testing
