#include "serve/scenario.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <stdexcept>

#include "core/gravity.h"
#include "router/connections.h"
#include "scenario/impact.h"
#include "store/snapshot.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace staq::serve {

namespace {

/// Builds (or adopts) the shared connection array once per store, so the
/// writer-side relabel router and every worker Router constructed from
/// router_options() scan one immutable array.
ScenarioStore::Options WithSharedConnections(ScenarioStore::Options options,
                                             const gtfs::Feed* feed) {
  if (options.router.engine == router::RoutingEngine::kCsa) {
    options.router.connections = router::ConnectionArray::EnsureFor(
        options.router.connections, feed);
  }
  return options;
}

/// Rebinds router options to a (possibly new) feed: under kCsa the
/// connection array is shared when the feed pointer matches and rebuilt
/// deterministically when a disruption produced a new feed.
router::RouterOptions RebindConnections(router::RouterOptions options,
                                        const gtfs::Feed* feed) {
  if (options.engine == router::RoutingEngine::kCsa) {
    options.connections =
        router::ConnectionArray::EnsureFor(options.connections, feed);
  }
  return options;
}

/// Offline state for a timetable/fare mutation: isochrones depend only on
/// the road graph and walk config — never on the timetable — so the
/// parent's polygons are adopted verbatim (bit-identical to recomputing
/// them) while hop trees and features rebuild over the disrupted city.
std::shared_ptr<const OfflineState> RebuildOfflineKeepingIsochrones(
    const synth::City& city, const OfflineState& parent) {
  std::vector<geo::Polygon> polygons;
  polygons.reserve(parent.isochrones->size());
  for (uint32_t z = 0; z < parent.isochrones->size(); ++z) {
    polygons.push_back(parent.isochrones->For(z));
  }
  auto isochrones = std::make_unique<core::IsochroneSet>(
      parent.isochrones->config(), std::move(polygons));
  auto hop_trees =
      std::make_unique<core::HopTreeSet>(city, *isochrones, parent.interval);
  return std::make_shared<const OfflineState>(
      city, parent.interval, std::move(isochrones), std::move(hop_trees));
}

std::vector<uint32_t> AllZones(size_t count) {
  std::vector<uint32_t> all(count);
  std::iota(all.begin(), all.end(), 0u);
  return all;
}

/// The part of a label key that routing depends on: the cost and GAC
/// weights only post-process journeys.
LabelKey RoutingKey(LabelKey key) {
  key.cost = core::CostKind::kJourneyTime;
  key.gac = router::GacWeights();
  return key;
}

}  // namespace

std::vector<core::ZoneLabel> JourneyPass::Labels(
    const core::CostMember& member) const {
  std::vector<double> costs;
  core::MemberCostColumn(columns, member, &costs);
  return core::AggregateZoneLabels(columns, costs);
}

OfflineState::OfflineState(const synth::City& city,
                           const gtfs::TimeInterval& interval_in,
                           core::IsochroneConfig iso_config)
    : interval(interval_in) {
  util::Stopwatch watch;
  isochrones = std::make_unique<core::IsochroneSet>(city, iso_config);
  hop_trees = std::make_unique<core::HopTreeSet>(city, *isochrones, interval);
  features = std::make_unique<core::FeatureExtractor>(&city, isochrones.get(),
                                                      hop_trees.get());
  build_seconds = watch.ElapsedSeconds();
}

OfflineState::OfflineState(const synth::City& city,
                           const gtfs::TimeInterval& interval_in,
                           std::unique_ptr<core::IsochroneSet> isochrones_in,
                           std::unique_ptr<core::HopTreeSet> hop_trees_in)
    : interval(interval_in),
      isochrones(std::move(isochrones_in)),
      hop_trees(std::move(hop_trees_in)) {
  features = std::make_unique<core::FeatureExtractor>(&city, isochrones.get(),
                                                      hop_trees.get());
}

Scenario::Scenario(uint64_t epoch, std::shared_ptr<const synth::City> base,
                   std::vector<synth::Poi> pois,
                   std::shared_ptr<const OfflineState> offline)
    : epoch_(epoch),
      base_(std::move(base)),
      pois_(std::move(pois)),
      offline_(std::move(offline)) {}

void Scenario::SetNetwork(uint64_t version,
                          const router::RouterOptions& options) {
  network_version_ = version;
  router_options_ = options;
}

std::vector<synth::Poi> Scenario::PoisOf(synth::PoiCategory category) const {
  std::vector<synth::Poi> out;
  for (const synth::Poi& poi : pois_) {
    if (poi.category == category) out.push_back(poi);
  }
  return out;
}

std::shared_ptr<const ExactLabelState> Scenario::BuildLabelState(
    const LabelKey& key, core::LabelingEngine* engine) const {
  // Fault site: a from-scratch state build failing (models OOM / engine
  // faults). The journey pass build evaluates the same site, so the memo
  // paths see it too and must propagate it without poisoning their keys.
  STAQ_FAILPOINT("serve.scenario.build_label_state");
  auto state = std::make_shared<ExactLabelState>();
  state->pois = PoisOf(key.category);
  // Normalisers are frozen over the *base* city's category POIs so that
  // every epoch — and every patch — sees the same keep probabilities.
  state->zone_norm = core::StableGravityNorms(
      base_->zones, base_->PoisOf(key.category), key.gravity.decay_scale_m);
  core::TodamBuilder builder(base_->zones, state->pois, interval(),
                             key.gravity);
  state->todam = std::make_shared<const core::Todam>(
      builder.BuildGravityStable(key.seed, state->zone_norm));

  engine->set_gac_weights(key.gac);
  std::vector<uint32_t> all = AllZones(base_->zones.size());
  uint64_t spq_before = engine->spq_count();
  state->labels =
      engine->LabelZones(*state->todam, all, state->pois, key.cost,
                         interval().day);
  state->build_spqs = engine->spq_count() - spq_before;
  state->relabeled_zones = static_cast<uint32_t>(all.size());
  return state;
}

struct Scenario::PassWork {
  PassWork(const core::Todam& todam_in, const std::vector<synth::Poi>& pois_in,
           gtfs::Day day_in, core::TripCostColumns* columns_in)
      : todam(todam_in),
        pois(pois_in),
        day(day_in),
        columns(columns_in),
        num_zones(static_cast<uint32_t>(todam_in.num_zones())) {}

  /// Claims and labels zones with `engine` until none is left unclaimed.
  /// Touches the pass only through claimed zones: a caller that arrives
  /// after the last claim may run after the pass itself is gone.
  void Route(core::LabelingEngine* engine) {
    const uint64_t spq_before = engine->spq_count();
    uint32_t finished = 0;
    std::string failure;  // messages, not exception objects, cross threads
    try {
      for (uint32_t z = next_zone++; z < num_zones; z = next_zone++) {
        engine->CaptureZoneCosts(todam, z, pois, day, columns);
        ++finished;
      }
    } catch (const std::exception& e) {
      failure = e.what();
      ++finished;  // the claimed zone is settled, as a failure
    } catch (...) {
      failure = "unknown exception";
      ++finished;
    }
    spqs += engine->spq_count() - spq_before;
    std::lock_guard<std::mutex> lock(mu);
    zones_finished += finished;
    if (!failure.empty() && error.empty()) error = failure;
    if (zones_finished == num_zones) all_finished.notify_all();
  }

  /// Blocks until every zone is labelled; throws if any zone failed.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    all_finished.wait(lock, [this] { return zones_finished == num_zones; });
    if (!error.empty()) throw std::runtime_error("journey pass: " + error);
  }

  const core::Todam& todam;
  const std::vector<synth::Poi>& pois;
  const gtfs::Day day;
  // Every zone's slots are open, so concurrent engines write disjoint
  // elements and never resize.
  core::TripCostColumns* const columns;
  const uint32_t num_zones;
  std::atomic<uint32_t> next_zone{0};
  std::atomic<uint64_t> spqs{0};

  std::mutex mu;
  std::condition_variable all_finished;
  uint32_t zones_finished = 0;  // guarded by mu
  std::string error;            // guarded by mu; first zone failure
};

std::shared_ptr<const JourneyPass> Scenario::BuildJourneyPass(
    const std::string& id, const LabelKey& key,
    core::LabelingEngine* engine) const {
  STAQ_FAILPOINT("serve.scenario.build_label_state");
  auto pass = std::make_shared<JourneyPass>();
  pass->pois = PoisOf(key.category);
  // The same TODAM as BuildLabelState.
  pass->zone_norm = core::StableGravityNorms(
      base_->zones, base_->PoisOf(key.category), key.gravity.decay_scale_m);
  core::TodamBuilder builder(base_->zones, pass->pois, interval(),
                             key.gravity);
  pass->todam = std::make_shared<const core::Todam>(
      builder.BuildGravityStable(key.seed, pass->zone_norm));
  pass->columns.Reserve(pass->todam->num_zones(), pass->todam->num_trips());
  for (uint32_t z = 0; z < pass->todam->num_zones(); ++z) {
    pass->columns.AppendZone(pass->todam->TripsFor(z).size());
  }

  // Zones are labelled by this caller and by any caller that joins the
  // pass meanwhile. Journeys are exact per zone whichever engine routes
  // them, and the SPQ count is one per trip, so the pass is the same bits
  // however the zones were shared out.
  auto work = std::make_shared<PassWork>(*pass->todam, pass->pois,
                                         interval().day, &pass->columns);
  {
    std::lock_guard<std::mutex> lock(pass_work_mu_);
    pass_work_[id] = work;
  }
  auto unpublish = [&] {
    std::lock_guard<std::mutex> lock(pass_work_mu_);
    auto it = pass_work_.find(id);
    if (it != pass_work_.end() && it->second == work) pass_work_.erase(it);
  };
  try {
    work->Route(engine);
    work->Wait();
  } catch (...) {
    unpublish();
    throw;
  }
  unpublish();
  pass->spqs = work->spqs;
  return pass;
}

std::shared_ptr<const JourneyPass> Scenario::GetOrBuildJourneyPass(
    const LabelKey& key, core::LabelingEngine* engine,
    bool* built_fresh) const {
  const LabelKey routing = RoutingKey(key);
  const std::string id = routing.Canonical();
  std::shared_ptr<PassWork> work;
  {
    std::lock_guard<std::mutex> lock(pass_work_mu_);
    auto it = pass_work_.find(id);
    if (it != pass_work_.end()) work = it->second;
  }
  if (work != nullptr) work->Route(engine);
  return passes_.GetOrBuild(
      id, routing, [&] { return BuildJourneyPass(id, routing, engine); },
      built_fresh);
}

std::shared_ptr<const ExactLabelState> Scenario::GetOrBuildLabelState(
    const LabelKey& key, core::LabelingEngine* engine, bool* built_fresh,
    bool* pass_built) const {
  if (pass_built != nullptr) *pass_built = false;
  return states_.GetOrBuild(
      key.Canonical(), key,
      [&] {
        auto pass = GetOrBuildJourneyPass(key, engine, pass_built);
        auto state = std::make_shared<ExactLabelState>();
        state->pois = pass->pois;
        state->zone_norm = pass->zone_norm;
        state->todam = pass->todam;
        state->labels = pass->Labels({key.cost, key.gac});
        state->build_spqs = pass->spqs;
        state->relabeled_zones = static_cast<uint32_t>(state->labels.size());
        return std::shared_ptr<const ExactLabelState>(std::move(state));
      },
      built_fresh);
}

std::shared_ptr<const ml::Matrix> Scenario::GetOrBuildFeatures(
    const LabelKey& key, const core::Todam& todam, bool* built_fresh) const {
  LabelKey feature_key = RoutingKey(key);
  feature_key.seed = 0;  // α, and so every feature, is seed-independent
  return features_.GetOrBuild(
      feature_key.Canonical(), feature_key,
      [&] {
        return std::make_shared<const ml::Matrix>(
            offline_->features->ExtractZoneMatrix(PoisOf(key.category),
                                                  todam.alpha()));
      },
      built_fresh);
}

std::vector<std::pair<LabelKey, std::shared_ptr<const ExactLabelState>>>
Scenario::MaterializedStates() const {
  return states_.Ready();
}

void Scenario::SeedLabelState(const LabelKey& key,
                              std::shared_ptr<const ExactLabelState> state) {
  states_.Insert(key.Canonical(), key, std::move(state));
}

ScenarioStore::ScenarioStore(synth::City city,
                             const gtfs::TimeInterval& interval,
                             Options options)
    : base_(std::make_shared<const synth::City>(std::move(city))),
      options_(WithSharedConnections(std::move(options), &base_->feed)),
      network_city_(base_),
      network_router_(options_.router),
      network_iso_(options_.iso) {
  auto offline =
      std::make_shared<const OfflineState>(*base_, interval, options_.iso);
  auto scenario = std::make_shared<Scenario>(/*epoch=*/0, base_, base_->pois,
                                             std::move(offline));
  scenario->SetNetwork(network_version_, network_router_);
  current_ = std::move(scenario);
  for (const synth::Poi& poi : base_->pois) {
    if (poi.id >= next_poi_id_) next_poi_id_ = poi.id + 1;
  }
}

ScenarioStore::ScenarioStore(RestoredScenario restored, Options options)
    : base_(std::move(restored.city)),
      options_(WithSharedConnections(std::move(options), &base_->feed)),
      network_city_(base_),
      network_router_(options_.router),
      network_iso_(options_.iso) {
  auto scenario = std::make_shared<Scenario>(/*epoch=*/0, base_,
                                             std::move(restored.pois),
                                             std::move(restored.offline));
  scenario->SetNetwork(network_version_, network_router_);
  for (auto& [key, state] : restored.label_states) {
    scenario->SeedLabelState(key, std::move(state));
  }
  // The persisted cursor is authoritative (removed POIs must stay retired),
  // but never hand out an id a live POI already holds.
  uint32_t next_id = restored.next_poi_id;
  for (const synth::Poi& poi : scenario->pois()) {
    if (poi.id >= next_id) next_id = poi.id + 1;
  }
  next_poi_id_ = next_id;
  base_sequence_ = restored.source_epoch;
  current_ = std::move(scenario);
}

util::Status ScenarioStore::ExportSnapshot(const Scenario& scenario,
                                           const std::string& path) const {
  // The persisted sequence is absolute so a chain snapshot -> mutate ->
  // snapshot keeps counting instead of restarting at the local epoch.
  return store::SaveSnapshot(scenario, next_poi_id_.load(), path,
                             base_sequence_);
}

core::LabelingEngine* ScenarioStore::RelabelEngine() {
  if (relabel_engine_ == nullptr) {
    relabel_router_ =
        std::make_unique<router::Router>(&network_city_->feed, network_router_);
    relabel_engine_ = std::make_unique<core::LabelingEngine>(
        network_city_.get(), relabel_router_.get());
  }
  return relabel_engine_.get();
}

std::shared_ptr<const Scenario> ScenarioStore::Acquire() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

void ScenarioStore::Install(std::shared_ptr<const Scenario> next) {
  std::lock_guard<std::mutex> lock(current_mu_);
  current_ = std::move(next);
}

std::shared_ptr<const ExactLabelState> ScenarioStore::PatchAdd(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    const synth::Poi& poi) {
  // Fault site: the TODAM column patch failing before the parent state is
  // copied into. The parent is immutable, so an abort here is free.
  STAQ_FAILPOINT("serve.scenario.patch_add");
  auto state = std::make_shared<ExactLabelState>(parent);
  state->pois.push_back(poi);
  const uint32_t new_index = static_cast<uint32_t>(state->pois.size() - 1);

  // Sample only the new POI's column. Every other pair's RNG stream is
  // keyed by its own stable id, so the rest of the TODAM is untouched.
  const uint32_t samples = core::TodamSamplesPerPair(key.gravity, next.interval());
  const size_t num_zones = base_->zones.size();
  std::vector<std::vector<core::TripEntry>> per_zone(num_zones);
  std::vector<double> alpha_column(num_zones);
  for (uint32_t z = 0; z < num_zones; ++z) {
    double decay = core::DistanceDecay(
        geo::Distance(base_->zones[z].centroid, poi.position),
        key.gravity.decay_scale_m);
    alpha_column[z] = core::StableAlphaValue(decay, state->zone_norm[z]);
    double keep = core::StableKeepProbability(decay, state->zone_norm[z],
                                              key.gravity.keep_scale);
    core::SampleStablePairTrips(key.seed, z, poi.id, new_index, keep,
                                next.interval(), samples, &per_zone[z]);
  }
  std::vector<uint32_t> affected;
  auto todam = std::make_shared<core::Todam>(*parent.todam);
  todam->AppendPoiColumn(per_zone, alpha_column, &affected);
  state->todam = std::move(todam);

  // Fault site: relabeling the affected zones failing mid-mutation. Only
  // the un-installed copy is damaged; the store never publishes it.
  STAQ_FAILPOINT("serve.scenario.relabel");
  core::LabelingEngine* engine = RelabelEngine();
  engine->set_gac_weights(key.gac);
  uint64_t spq_before = engine->spq_count();
  engine->RelabelZones(*state->todam, affected, state->pois, key.cost,
                       next.interval().day, &state->labels);
  state->build_spqs = engine->spq_count() - spq_before;
  state->relabeled_zones = static_cast<uint32_t>(affected.size());
  return state;
}

std::shared_ptr<const ExactLabelState> ScenarioStore::PatchRemove(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    uint32_t poi_id) {
  // Fault site: mirror of serve.scenario.patch_add for the remove path.
  STAQ_FAILPOINT("serve.scenario.patch_remove");
  auto state = std::make_shared<ExactLabelState>(parent);
  auto it = std::find_if(
      state->pois.begin(), state->pois.end(),
      [poi_id](const synth::Poi& p) { return p.id == poi_id; });
  if (it == state->pois.end()) {
    // Carried-over states must contain every scenario POI of their
    // category; proceeding would erase(end()) and corrupt the TODAM.
    std::fprintf(stderr,
                 "PatchRemove: POI %u absent from parent label state\n",
                 poi_id);
    std::abort();
  }
  const uint32_t index = static_cast<uint32_t>(it - state->pois.begin());
  state->pois.erase(it);

  std::vector<uint32_t> affected;
  auto todam = std::make_shared<core::Todam>(*parent.todam);
  todam->RemovePoiColumn(index, &affected);
  state->todam = std::move(todam);

  STAQ_FAILPOINT("serve.scenario.relabel");
  core::LabelingEngine* engine = RelabelEngine();
  engine->set_gac_weights(key.gac);
  uint64_t spq_before = engine->spq_count();
  engine->RelabelZones(*state->todam, affected, state->pois, key.cost,
                       next.interval().day, &state->labels);
  state->build_spqs = engine->spq_count() - spq_before;
  state->relabeled_zones = static_cast<uint32_t>(affected.size());
  return state;
}

ScenarioStore::MutationReport ScenarioStore::AddPoi(
    synth::PoiCategory category, const geo::Point& position) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto current = Acquire();

  synth::Poi poi;
  poi.id = next_poi_id_++;
  poi.category = category;
  poi.position = position;

  std::vector<synth::Poi> pois = current->pois();
  pois.push_back(poi);
  auto next = std::make_shared<Scenario>(current->epoch() + 1, network_city_,
                                         std::move(pois),
                                         current->offline_ptr());
  next->SetNetwork(network_version_, network_router_);

  MutationReport report;
  report.epoch = next->epoch();
  report.poi_id = poi.id;
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  for (const auto& [key, state] : current->MaterializedStates()) {
    if (key.category != category) {
      next->SeedLabelState(key, state);
      ++report.states_shared;
      continue;
    }
    auto patched = PatchAdd(*next, key, *state, poi);
    report.spqs += patched->build_spqs;
    report.zones_relabeled += patched->relabeled_zones;
    ++report.states_patched;
    next->SeedLabelState(key, std::move(patched));
  }
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::RemovePoi(
    uint32_t poi_id) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto current = Acquire();

  auto it = std::find_if(
      current->pois().begin(), current->pois().end(),
      [poi_id](const synth::Poi& p) { return p.id == poi_id; });
  if (it == current->pois().end()) {
    return util::Status::NotFound("no POI with id " + std::to_string(poi_id));
  }
  const synth::PoiCategory category = it->category;

  std::vector<synth::Poi> pois = current->pois();
  pois.erase(pois.begin() + (it - current->pois().begin()));
  auto next = std::make_shared<Scenario>(current->epoch() + 1, network_city_,
                                         std::move(pois),
                                         current->offline_ptr());
  next->SetNetwork(network_version_, network_router_);

  MutationReport report;
  report.epoch = next->epoch();
  report.poi_id = poi_id;
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  for (const auto& [key, state] : current->MaterializedStates()) {
    if (key.category != category) {
      next->SeedLabelState(key, state);
      ++report.states_shared;
      continue;
    }
    auto patched = PatchRemove(*next, key, *state, poi_id);
    report.spqs += patched->build_spqs;
    report.zones_relabeled += patched->relabeled_zones;
    ++report.states_patched;
    next->SeedLabelState(key, std::move(patched));
  }
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

ScenarioStore::MutationReport ScenarioStore::SetInterval(
    const gtfs::TimeInterval& interval) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto current = Acquire();

  auto offline = std::make_shared<const OfflineState>(*network_city_, interval,
                                                      network_iso_);
  auto next = std::make_shared<Scenario>(current->epoch() + 1, network_city_,
                                         current->pois(), std::move(offline));
  next->SetNetwork(network_version_, network_router_);
  // Mutation discipline: any swap of offline structures drops the writer
  // engine's cached access stops. Today the walk table is feed-derived and
  // survives interval switches, but the invalidation keeps the cache from
  // outliving any future mutation that does touch stop geometry.
  if (relabel_engine_ != nullptr) relabel_engine_->InvalidateAccessStopCache();

  MutationReport report;
  report.epoch = next->epoch();
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

std::shared_ptr<const ExactLabelState> ScenarioStore::PatchNetwork(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    const std::vector<uint32_t>& affected, core::LabelingEngine* engine) {
  // The TODAM is demand-side (zones x POIs x interval) and carries over
  // verbatim; only the screened zones resolve their trips again, against
  // the engine built over the new network. Zones outside `affected` could
  // never have used a removed connection, so their labels are already the
  // exact labels of the mutated feed.
  auto state = std::make_shared<ExactLabelState>(parent);
  engine->set_gac_weights(key.gac);
  uint64_t spq_before = engine->spq_count();
  engine->RelabelZones(*state->todam, affected, state->pois, key.cost,
                       next.interval().day, &state->labels);
  state->build_spqs = engine->spq_count() - spq_before;
  state->relabeled_zones = static_cast<uint32_t>(affected.size());
  return state;
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::ApplyTimetable(
    scenario::TransformResult transformed, uint32_t target,
    util::Stopwatch watch) {
  auto current = Acquire();

  // Screen on the OLD timetable: only zones that could have reached a
  // removed departure event can change label.
  scenario::ImpactInputs impact;
  impact.city = network_city_.get();
  impact.feed = &network_city_->feed;
  RelabelEngine();  // builds relabel_router_ on first use
  impact.walk = &relabel_router_->walk_table();
  impact.interval = current->interval();
  impact.removed_trips = std::move(transformed.removed_trips);
  impact.closed_stop = transformed.closed_stop;
  const std::vector<uint32_t> affected = scenario::AffectedZones(impact);

  // Fault site: the network patch failing before any member state changes.
  // Everything below is built aside; an abort here (or in any patch) leaves
  // the current epoch and network untouched.
  STAQ_FAILPOINT("serve.scenario.patch_network");

  synth::City disrupted = *network_city_;
  disrupted.feed = std::move(transformed.feed);
  auto city = std::make_shared<const synth::City>(std::move(disrupted));
  router::RouterOptions router_opts =
      RebindConnections(network_router_, &city->feed);
  auto router = std::make_unique<router::Router>(&city->feed, router_opts);
  auto engine =
      std::make_unique<core::LabelingEngine>(city.get(), router.get());
  auto offline = RebuildOfflineKeepingIsochrones(*city, current->offline());

  auto next = std::make_shared<Scenario>(current->epoch() + 1, city,
                                         current->pois(), std::move(offline));
  next->SetNetwork(network_version_ + 1, router_opts);

  MutationReport report;
  report.epoch = next->epoch();
  report.poi_id = target;
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  for (const auto& [key, state] : current->MaterializedStates()) {
    auto patched = PatchNetwork(*next, key, *state, affected, engine.get());
    report.spqs += patched->build_spqs;
    report.zones_relabeled += patched->relabeled_zones;
    ++report.states_patched;
    next->SeedLabelState(key, std::move(patched));
  }

  // Commit: every patch succeeded, so the new network becomes the store's
  // current one in the same breath as the epoch install.
  network_city_ = std::move(city);
  network_router_ = std::move(router_opts);
  relabel_router_ = std::move(router);
  relabel_engine_ = std::move(engine);
  ++network_version_;
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::SuspendRoute(
    uint32_t route) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto transformed = scenario::SuspendRoute(network_city_->feed, route);
  if (!transformed.ok()) return transformed.status();
  return ApplyTimetable(std::move(transformed).value(), route, watch);
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::CloseStop(
    uint32_t stop) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto transformed = scenario::CloseStop(network_city_->feed, stop);
  if (!transformed.ok()) return transformed.status();
  return ApplyTimetable(std::move(transformed).value(), stop, watch);
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::ScaleHeadway(
    uint32_t route, uint32_t factor) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto transformed =
      scenario::ScaleHeadway(network_city_->feed, route, factor);
  if (!transformed.ok()) return transformed.status();
  return ApplyTimetable(std::move(transformed).value(), route, watch);
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::SetFare(
    uint32_t route, double fare) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto transformed = scenario::SetFlatFare(network_city_->feed, route, fare);
  if (!transformed.ok()) return transformed.status();
  auto current = Acquire();

  // Same fault site as the timetable path: nothing below mutates store
  // state until the commit block.
  STAQ_FAILPOINT("serve.scenario.patch_network");

  synth::City disrupted = *network_city_;
  disrupted.feed = std::move(transformed).value();
  auto city = std::make_shared<const synth::City>(std::move(disrupted));
  router::RouterOptions router_opts =
      RebindConnections(network_router_, &city->feed);
  auto router = std::make_unique<router::Router>(&city->feed, router_opts);
  auto engine =
      std::make_unique<core::LabelingEngine>(city.get(), router.get());
  auto offline = RebuildOfflineKeepingIsochrones(*city, current->offline());

  auto next = std::make_shared<Scenario>(current->epoch() + 1, city,
                                         current->pois(), std::move(offline));
  next->SetNetwork(network_version_ + 1, router_opts);

  // Fares enter GAC only: journey-time states are shared verbatim (their
  // rebuild over the new feed would reproduce the same bits), while every
  // generalized-cost state relabels all zones — any trip may board the
  // repriced route mid-journey, so no cheaper screen is sound.
  const std::vector<uint32_t> all = AllZones(base_->zones.size());
  MutationReport report;
  report.epoch = next->epoch();
  report.poi_id = route;
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  for (const auto& [key, state] : current->MaterializedStates()) {
    if (key.cost != core::CostKind::kGeneralizedCost) {
      next->SeedLabelState(key, state);
      ++report.states_shared;
      continue;
    }
    auto patched = PatchNetwork(*next, key, *state, all, engine.get());
    report.spqs += patched->build_spqs;
    report.zones_relabeled += patched->relabeled_zones;
    ++report.states_patched;
    next->SeedLabelState(key, std::move(patched));
  }

  network_city_ = std::move(city);
  network_router_ = std::move(router_opts);
  relabel_router_ = std::move(router);
  relabel_engine_ = std::move(engine);
  ++network_version_;
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::ScaleWalkSpeed(
    double factor) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    return util::Status::InvalidArgument(
        "walk-speed factor must be positive and finite");
  }
  auto current = Acquire();

  STAQ_FAILPOINT("serve.scenario.patch_network");

  // Same city and feed (the connection array is shared); only the walk
  // parameters change — the router's walk table and the isochrone speed ω
  // scale together so online routing and the offline reachability
  // structures describe the same pedestrian.
  router::RouterOptions router_opts = network_router_;
  router_opts.walk.speed_mps *= factor;
  core::IsochroneConfig iso = network_iso_;
  iso.omega_kph *= factor;
  auto router =
      std::make_unique<router::Router>(&network_city_->feed, router_opts);
  auto engine = std::make_unique<core::LabelingEngine>(network_city_.get(),
                                                       router.get());
  // The isochrone config changed, so this is a full offline build.
  auto offline = std::make_shared<const OfflineState>(
      *network_city_, current->interval(), iso);

  auto next = std::make_shared<Scenario>(current->epoch() + 1, network_city_,
                                         current->pois(), std::move(offline));
  next->SetNetwork(network_version_ + 1, router_opts);

  // Every journey has walk legs, so every zone of every state relabels.
  const std::vector<uint32_t> all = AllZones(base_->zones.size());
  MutationReport report;
  report.epoch = next->epoch();
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  for (const auto& [key, state] : current->MaterializedStates()) {
    auto patched = PatchNetwork(*next, key, *state, all, engine.get());
    report.spqs += patched->build_spqs;
    report.zones_relabeled += patched->relabeled_zones;
    ++report.states_patched;
    next->SeedLabelState(key, std::move(patched));
  }

  network_router_ = std::move(router_opts);
  network_iso_ = iso;
  walk_scale_.store(walk_scale_.load(std::memory_order_relaxed) * factor,
                    std::memory_order_release);
  relabel_router_ = std::move(router);
  relabel_engine_ = std::move(engine);
  ++network_version_;
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

}  // namespace staq::serve
