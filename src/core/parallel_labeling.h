// Parallel labeling.
//
// Labeling dominates the solution's run time (paper §IV-E) and the related
// work notes that "parallelization can benefit an SSR approach too, as the
// majority of the runtime is in labeling" (§II). This module shards the
// zone list across the shared util::ThreadPool, each worker with its own
// Router instance (the router's scratch space is not shareable), and
// returns labels in the same order as the input zones — bit-identical to
// the serial path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/todam.h"
#include "router/router.h"
#include "synth/city_builder.h"

namespace staq::core {

/// Labels `zones` using `num_threads` workers. num_threads <= 1 degrades
/// to the serial LabelingEngine. Results match LabelZones exactly.
/// `total_spqs` (optional) receives the SPQ count across workers.
///
/// With RoutingEngine::kCsa (the default) the connection array is built
/// (or taken from router_options.connections) ONCE and shared read-only by
/// every worker's Router, and each zone is one window scan.
std::vector<ZoneLabel> LabelZonesParallel(
    const synth::City& city, const Todam& todam,
    const std::vector<uint32_t>& zones, const std::vector<synth::Poi>& pois,
    CostKind kind, gtfs::Day day, int num_threads,
    const router::RouterOptions& router_options = {},
    router::GacWeights gac_weights = {}, uint64_t* total_spqs = nullptr);

}  // namespace staq::core
