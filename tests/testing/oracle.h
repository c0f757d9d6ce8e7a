// The label-correcting oracle. RouterOptions default to the Connection Scan
// engine; a test that means the oracle search (router internals, or the
// reference a CSA answer is checked against) names it through this helper.
#pragma once

#include "router/router.h"

namespace staq::testing {

/// Default router options with the label-correcting engine selected.
inline router::RouterOptions OracleOptions() {
  router::RouterOptions options;
  options.engine = router::RoutingEngine::kLabelCorrecting;
  return options;
}

}  // namespace staq::testing
