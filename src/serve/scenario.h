// Epoch-versioned city scenarios with incremental relabeling.
//
// A Scenario is an immutable snapshot of one city configuration: the POI
// set, the analysis interval, and the interval's offline structures
// (isochrones, hop trees, feature extractor). Scenarios are published
// RCU-style by a ScenarioStore: readers Acquire() a shared_ptr to the
// current snapshot and keep using it for as long as they like; a mutation
// (POI add/remove, interval switch) builds the *next* snapshot off to the
// side and installs it with one pointer swap. In-flight queries never
// observe a half-mutated scenario and never block writers.
//
// Incremental relabeling (the reason mutations are cheap): exact answers
// are derived from an ExactLabelState — the edit-stable TODAM plus every
// zone's exact label. The edit-stable construction (core/todam.h) keys
// each (zone, POI) RNG stream by the POI's *stable id* and freezes the
// gravity normaliser over the base city's POI set, which makes the TODAM
// history-independent: editing one POI perturbs only that POI's trips.
// A mutation therefore patches the parent epoch's materialised states —
// sample the one new/removed POI column, splice it in, and relabel only
// the zones whose trip sequence changed (= zones with at least one sampled
// trip to the edited POI; exact, not a conservative superset). The patched
// state is bit-identical to a from-scratch build over the edited POI set,
// which the golden tests assert, and a scenario edit costs O(affected
// zones) SPQs instead of O(all zones).
//
// Timetable disruptions (scenario subsystem) extend the same contract to
// the supply side. SuspendRoute / CloseStop / ScaleHeadway build a
// disrupted feed through the pure transforms of scenario/transform.h,
// screen the zones that could have used a removed connection on the OLD
// timetable (scenario/impact.h), and install the next epoch with only the
// screened zones relabeled; SetFare relabels every zone of the
// generalized-cost states and shares journey-time states verbatim;
// ScaleWalkSpeed rescales the walk parameters (router and isochrone ω) and
// rebuilds everything. Each disrupted epoch carries its own city copy —
// zones and base POIs preserved, so the frozen gravity normalisers (and
// with them the TODAM) never shift — plus a network version stamp worker
// pools key their routers on. Every patched state is bit-identical to a
// full rebuild from the mutated feed (golden-tested), and mutations stay
// all-or-nothing: the new network is built entirely aside and committed
// only after every patch has succeeded.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/features.h"
#include "core/hoptree.h"
#include "core/isochrone.h"
#include "core/labeling.h"
#include "core/todam.h"
#include "router/router.h"
#include "scenario/transform.h"
#include "serve/request.h"
#include "synth/city_builder.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace staq::serve {

/// Offline structures of one analysis interval. They depend only on zones,
/// the road graph, and the GTFS feed — never on POIs — so every POI-edit
/// epoch shares its parent's OfflineState; only an interval switch builds
/// a new one.
struct OfflineState {
  OfflineState(const synth::City& city, const gtfs::TimeInterval& interval,
               core::IsochroneConfig iso_config = {});

  /// Snapshot restore: adopts persisted isochrones and hop trees verbatim
  /// and rebuilds the (cheap, deterministic) feature extractor against
  /// `city`, which must outlive the state exactly as for the building ctor.
  OfflineState(const synth::City& city, const gtfs::TimeInterval& interval,
               std::unique_ptr<core::IsochroneSet> isochrones,
               std::unique_ptr<core::HopTreeSet> hop_trees);

  gtfs::TimeInterval interval;
  std::unique_ptr<core::IsochroneSet> isochrones;
  std::unique_ptr<core::HopTreeSet> hop_trees;
  std::unique_ptr<core::FeatureExtractor> features;
  double build_seconds = 0.0;
};

/// One exact labeling of one scenario under one LabelKey: the edit-stable
/// TODAM over the key's category POIs and the exact label of every zone.
/// Immutable once published; patches copy-then-modify.
struct ExactLabelState {
  /// The category's POIs in scenario order (stable-id ascending).
  std::vector<synth::Poi> pois;
  /// Frozen gravity normalisers (StableGravityNorms over the *base* city's
  /// category POIs) — shared verbatim by every epoch so keep probabilities
  /// never shift under edits.
  std::vector<double> zone_norm;
  core::Todam todam;
  std::vector<core::ZoneLabel> labels;  // indexed by zone

  /// SPQs spent producing this state from its predecessor: a full build
  /// charges every zone, a patch only the affected ones.
  uint64_t build_spqs = 0;
  /// Zones labeled in that step (== all zones for a full build).
  uint32_t relabeled_zones = 0;
};

/// Router configuration serve runs by default: the Connection Scan engine.
/// Exact journey times, feasibility, and MAC/ACSD match the
/// label-correcting engine (asserted by the golden equivalence suites);
/// window scans make cold label builds and relabels far cheaper.
inline router::RouterOptions DefaultServeRouterOptions() {
  router::RouterOptions options;
  options.engine = router::RoutingEngine::kCsa;
  return options;
}

/// Immutable scenario snapshot. Thread-safe: all mutable state is the
/// internal label-state memo, which is guarded and memoised per key.
class Scenario {
 public:
  Scenario(uint64_t epoch, std::shared_ptr<const synth::City> base,
           std::vector<synth::Poi> pois,
           std::shared_ptr<const OfflineState> offline);

  uint64_t epoch() const { return epoch_; }
  /// The scenario's city — the disrupted copy once timetable mutations have
  /// run. Every disruption preserves zones and base POIs, so the frozen
  /// gravity normalisers read off this city never shift across epochs.
  const synth::City& base_city() const { return *base_; }
  /// Shared handle on the scenario's city; worker contexts hold it as a
  /// keepalive so their routers survive later network mutations.
  std::shared_ptr<const synth::City> city_ptr() const { return base_; }
  const std::vector<synth::Poi>& pois() const { return pois_; }
  const OfflineState& offline() const { return *offline_; }
  /// The shared offline handle, for deriving POI-edit epochs that reuse it
  /// (sharing the handle, not aliasing the scenario, so dead epochs free).
  std::shared_ptr<const OfflineState> offline_ptr() const { return offline_; }
  const gtfs::TimeInterval& interval() const { return offline_->interval; }

  /// Network stamp: increments with every timetable, fare, or walk
  /// mutation. Pooled worker contexts built for a different version are
  /// discarded rather than reused.
  uint64_t network_version() const { return network_version_; }
  /// Router options matching this scenario's network: the (possibly
  /// rescaled) walk parameters plus the connection array of the scenario's
  /// own feed.
  const router::RouterOptions& router_options() const {
    return router_options_;
  }

  /// Stamps the network version and router options (mutation derivation,
  /// ScenarioStore only). Must only be called before the scenario is
  /// installed.
  void SetNetwork(uint64_t version, const router::RouterOptions& options);

  /// The scenario's POIs of one category, in stable-id order.
  std::vector<synth::Poi> PoisOf(synth::PoiCategory category) const;

  /// Memoised exact label state: the first caller for a key builds it with
  /// `engine` (and sets *built_fresh when non-null); concurrent callers
  /// for the same key block until that build is published. `engine` is only
  /// used by the caller that actually builds.
  std::shared_ptr<const ExactLabelState> GetOrBuildLabelState(
      const LabelKey& key, core::LabelingEngine* engine,
      bool* built_fresh = nullptr) const;

  /// From-scratch build, bypassing the memo. This is the golden reference
  /// the incremental path is checked against (tests, bench gates).
  std::shared_ptr<const ExactLabelState> BuildLabelState(
      const LabelKey& key, core::LabelingEngine* engine) const;

  /// Label states the scenario currently holds materialised (ready, not
  /// in-flight). Mutations patch these into the next epoch; a state still
  /// being built during a mutation is simply not carried over — the next
  /// epoch rebuilds it on demand, and history-independence guarantees the
  /// rebuild equals the patch it missed.
  std::vector<std::pair<LabelKey, std::shared_ptr<const ExactLabelState>>>
  MaterializedStates() const;

  /// Pre-publishes a label state (mutation derivation). Must only be
  /// called before the scenario is installed.
  void SeedLabelState(const LabelKey& key,
                      std::shared_ptr<const ExactLabelState> state);

 private:
  struct StateEntry {
    LabelKey key;
    std::shared_future<std::shared_ptr<const ExactLabelState>> future;
  };

  uint64_t epoch_;
  std::shared_ptr<const synth::City> base_;
  std::vector<synth::Poi> pois_;
  std::shared_ptr<const OfflineState> offline_;
  uint64_t network_version_ = 0;
  router::RouterOptions router_options_ = DefaultServeRouterOptions();

  mutable std::mutex states_mu_;
  mutable std::unordered_map<std::string, StateEntry> states_;
};

/// Everything store::LoadSnapshot recovers from disk: the ingredients of a
/// ScenarioStore that skips the offline cold build. The city is already in
/// its final shared_ptr home because the offline state's feature extractor
/// points into it — moving the city after building the extractor would
/// dangle that pointer.
struct RestoredScenario {
  std::shared_ptr<const synth::City> city;
  std::vector<synth::Poi> pois;
  std::shared_ptr<const OfflineState> offline;
  std::vector<std::pair<LabelKey, std::shared_ptr<const ExactLabelState>>>
      label_states;
  /// Epoch the snapshot was exported from (diagnostic only: a restored
  /// store republishes as epoch 0).
  uint64_t source_epoch = 0;
  /// POI id cursor at export time. Persisted — not recomputed from the live
  /// POIs — because removed POIs leave no trace, and reusing their ids
  /// would splice new POIs onto dead RNG streams.
  uint32_t next_poi_id = 0;
};

/// Owns the current scenario and serialises mutations. Readers are
/// wait-free with respect to writers apart from one pointer-load mutex.
class ScenarioStore {
 public:
  struct Options {
    // Explicit constructor rather than a default member initializer: GCC
    // defers nested-class member initializers to the end of the enclosing
    // class, which would reject Options() in ScenarioStore's own defaulted
    // arguments.
    Options() : router(DefaultServeRouterOptions()) {}
    core::IsochroneConfig iso;
    router::RouterOptions router;
  };

  /// Takes ownership of the city; builds the offline state for `interval`
  /// and installs epoch 0 over the city's own POIs.
  ScenarioStore(synth::City city, const gtfs::TimeInterval& interval,
                Options options = Options());

  /// Warm start from a loaded snapshot (store/snapshot.h): installs the
  /// restored scenario as epoch 0 with its label states pre-seeded,
  /// skipping the offline cold build entirely.
  ScenarioStore(RestoredScenario restored, Options options = Options());

  /// The current snapshot. The returned scenario stays fully usable after
  /// any number of subsequent mutations.
  std::shared_ptr<const Scenario> Acquire() const;

  uint64_t epoch() const { return Acquire()->epoch(); }
  const synth::City& base_city() const { return *base_; }

  /// Sequence offset of epoch 0: a warm-started store restarts its local
  /// epochs at 0, but the mutation history continues where the snapshot's
  /// source left off. base_sequence() + epoch() is the store's absolute
  /// scenario sequence — the number the WAL and replication speak
  /// (wal/record.h). Cold-built stores sit at 0.
  uint64_t base_sequence() const { return base_sequence_; }

  /// The store's router options with the shared connection array injected
  /// (kCsa only; built once in the constructor). Per-worker Routers built
  /// from these share the array instead of rebuilding it — mutations never
  /// edit the feed, so one array serves every scenario epoch.
  const router::RouterOptions& router_options() const {
    return options_.router;
  }

  /// What one mutation did and what it cost.
  struct MutationReport {
    uint64_t epoch = 0;  // the epoch the mutation installed
    /// AddPoi: id of the new POI; RemovePoi: the removed id; disruptions:
    /// the target route/stop id (scenario::kAllRoutes for "all").
    uint32_t poi_id = 0;
    uint32_t states_patched = 0;  // label states carried over by patching
    uint32_t states_shared = 0;   // carried over untouched (other category)
    uint32_t zones_relabeled = 0;
    uint32_t zones_total = 0;     // per patched state
    uint64_t spqs = 0;            // SPQs spent on relabeling
    double seconds = 0.0;
  };

  /// Adds a POI and installs the next epoch. Every materialised label
  /// state of the POI's category is patched incrementally.
  MutationReport AddPoi(synth::PoiCategory category,
                        const geo::Point& position);

  /// Removes a POI by id. NotFound when absent.
  util::Result<MutationReport> RemovePoi(uint32_t poi_id);

  /// The id the next AddPoi will assign. Replication validates a replayed
  /// record against this *before* applying it, so an id mismatch leaves
  /// the store untouched instead of installing a forked epoch.
  uint32_t next_poi_id() const {
    return next_poi_id_.load(std::memory_order_acquire);
  }

  /// Switches the analysis interval: rebuilds the offline structures and
  /// installs a fresh epoch. Label states are interval-dependent and are
  /// not carried over.
  MutationReport SetInterval(const gtfs::TimeInterval& interval);

  /// Timetable disruptions (scenario subsystem). Each builds the disrupted
  /// feed through scenario/transform.h, screens the zones that could have
  /// used a removed connection on the old timetable (scenario/impact.h),
  /// and installs the next epoch with every materialised label state
  /// patched: only the screened zones relabel, and the result is
  /// bit-identical to a full rebuild from the mutated feed (golden-tested).
  /// All-or-nothing: on any error the current epoch and network stay
  /// exactly as they were.
  util::Result<MutationReport> SuspendRoute(uint32_t route);
  util::Result<MutationReport> CloseStop(uint32_t stop);
  /// Service thinning; factor >= 2, route may be scenario::kAllRoutes.
  util::Result<MutationReport> ScaleHeadway(uint32_t route, uint32_t factor);
  /// Fare shock: relabels every zone of the generalized-cost states;
  /// journey-time states are shared verbatim (fares never enter JT).
  util::Result<MutationReport> SetFare(uint32_t route, double fare);
  /// "Snow day": scales walking speed (router walk params and isochrone ω)
  /// by `factor`, cumulatively. Rebuilds the offline state and relabels
  /// every zone of every materialised state.
  util::Result<MutationReport> ScaleWalkSpeed(double factor);

  /// Network stamp of the current epoch (0 until the first disruption).
  uint64_t network_version() const { return Acquire()->network_version(); }
  /// Cumulative walk-speed factor applied by ScaleWalkSpeed (diagnostic).
  double walk_scale() const {
    return walk_scale_.load(std::memory_order_acquire);
  }

  /// Serialises `scenario` — any epoch a caller still retains — plus the
  /// store's POI id cursor to `path` (store/snapshot.h format). Safe under
  /// concurrent queries and mutations: the scenario is immutable and the
  /// cursor is read atomically, so the export never takes mutation_mu_.
  util::Status ExportSnapshot(const Scenario& scenario,
                              const std::string& path) const;

  /// Convenience: exports the current epoch.
  util::Status ExportSnapshot(const std::string& path) const {
    return ExportSnapshot(*Acquire(), path);
  }

 private:
  std::shared_ptr<const ExactLabelState> PatchAdd(
      const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
      const synth::Poi& poi);
  std::shared_ptr<const ExactLabelState> PatchRemove(
      const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
      uint32_t poi_id);
  /// Carries one label state across a network mutation: the TODAM is
  /// demand-side and moves verbatim; `affected` zones relabel against
  /// `engine` (built over the new network).
  std::shared_ptr<const ExactLabelState> PatchNetwork(
      const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
      const std::vector<uint32_t>& affected, core::LabelingEngine* engine);
  /// Shared tail of SuspendRoute / CloseStop / ScaleHeadway: screens the
  /// affected zones on the old timetable, builds the new network aside,
  /// patches every state, and commits. Caller holds mutation_mu_.
  util::Result<MutationReport> ApplyTimetable(
      scenario::TransformResult transformed, uint32_t target,
      util::Stopwatch watch);
  void Install(std::shared_ptr<const Scenario> next);
  /// The writer-side labeling engine, built over the current network on
  /// first use. Caller holds mutation_mu_.
  core::LabelingEngine* RelabelEngine();

  std::shared_ptr<const synth::City> base_;
  Options options_;
  /// Absolute sequence of epoch 0 (the snapshot's source sequence at warm
  /// start, else 0). Immutable after construction.
  uint64_t base_sequence_ = 0;

  /// The current network: the city the latest epoch serves (== base_ until
  /// the first timetable disruption), its effective router options (walk
  /// rescaled, connection array over the current feed), the effective
  /// isochrone config, and the monotone version stamp. Written only under
  /// mutation_mu_, and only after every patch of a mutation succeeded.
  std::shared_ptr<const synth::City> network_city_;
  router::RouterOptions network_router_;
  core::IsochroneConfig network_iso_;
  uint64_t network_version_ = 0;
  std::atomic<double> walk_scale_{1.0};

  /// Writer-side labeling context over the current network, used only
  /// under mutation_mu_; built by the first mutation that relabels (a store
  /// that is only queried never pays for it) and rebuilt (and committed
  /// together with network_city_) whenever the network changes.
  std::unique_ptr<router::Router> relabel_router_;
  std::unique_ptr<core::LabelingEngine> relabel_engine_;

  /// Serialises mutations; never held while readers run queries.
  std::mutex mutation_mu_;
  /// Next stable POI id (monotonic, never reused: a reused id would splice
  /// a new POI onto a removed POI's RNG stream). Written under mutation_mu_;
  /// atomic so ExportSnapshot can read it without joining the writer queue.
  std::atomic<uint32_t> next_poi_id_{0};

  mutable std::mutex current_mu_;
  std::shared_ptr<const Scenario> current_;
};

}  // namespace staq::serve
