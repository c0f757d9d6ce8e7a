#include "core/parallel_labeling.h"

#include <algorithm>
#include <atomic>
#include <future>

#include "router/connections.h"
#include "util/thread_pool.h"

namespace staq::core {

std::vector<ZoneLabel> LabelZonesParallel(
    const synth::City& city, const Todam& todam,
    const std::vector<uint32_t>& zones, const std::vector<synth::Poi>& pois,
    CostKind kind, gtfs::Day day, int num_threads,
    const router::RouterOptions& router_options,
    router::GacWeights gac_weights, uint64_t* total_spqs) {
  // Build (or adopt) the connection array once, outside the workers: each
  // per-worker Router then shares the immutable array instead of rebuilding
  // it num_threads times.
  router::RouterOptions options = router_options;
  if (options.engine == router::RoutingEngine::kCsa) {
    options.connections =
        router::ConnectionArray::EnsureFor(options.connections, &city.feed);
  }
  const router::RouterOptions& router_options_shared = options;

  if (num_threads <= 1 || zones.size() <= 1) {
    router::Router router(&city.feed, router_options_shared);
    LabelingEngine engine(&city, &router, gac_weights);
    auto labels = engine.LabelZones(todam, zones, pois, kind, day);
    if (total_spqs != nullptr) *total_spqs = engine.spq_count();
    return labels;
  }

  size_t workers = std::min<size_t>(static_cast<size_t>(num_threads),
                                    zones.size());
  std::vector<ZoneLabel> labels(zones.size());
  std::atomic<size_t> next_index{0};
  std::atomic<uint64_t> spqs{0};

  auto work = [&]() {
    // Per-worker router: scratch space is instance-local.
    router::Router router(&city.feed, router_options_shared);
    LabelingEngine engine(&city, &router, gac_weights);
    while (true) {
      size_t i = next_index.fetch_add(1);
      if (i >= zones.size()) break;
      labels[i] = engine.LabelZone(todam, zones[i], pois, kind, day);
    }
    spqs.fetch_add(engine.spq_count());
  };

  // Persistent workers instead of spawn-and-join threads; futures carry any
  // worker exception, and all workers are drained before rethrowing (the
  // tasks reference this frame).
  util::ThreadPool& pool = util::ThreadPool::Shared();
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (size_t w = 0; w < workers; ++w) futures.push_back(pool.Submit(work));
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  if (total_spqs != nullptr) *total_spqs = spqs.load();
  return labels;
}

}  // namespace staq::core
