// Temporal origin-destination access matrix (paper §III-C).
//
// The TODAM is conceptually |Z| x |P| x |R|: every (zone, POI, start-time)
// trip. Materialising the full matrix M_f is exactly the bottleneck the
// paper attacks, so this type supports both:
//   * materialised construction (full or gravity-masked M_g) — trips are
//     stored grouped by origin zone, which is the access pattern of both
//     labeling and aggregation;
//   * counting-only construction, which reproduces Table I's matrix sizes
//     at full city scale without allocating hundreds of millions of trips.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gravity.h"
#include "gtfs/time.h"
#include "synth/city_builder.h"
#include "util/rng.h"
#include "util/status.h"

namespace staq::core {

/// One sampled trip from a zone: destination POI index (into the POI set
/// the TODAM was built over) and start time.
struct TripEntry {
  uint32_t poi = 0;        // index into the builder's POI vector
  gtfs::TimeOfDay depart = 0;

  bool operator==(const TripEntry& other) const {
    return poi == other.poi && depart == other.depart;
  }
};

/// |R|: start-time samples per (zone, POI) pair for one (gravity, interval)
/// combination. Shared by TodamBuilder and the incremental TODAM patch path
/// (serve/scenario.cc), which samples a single POI column without
/// constructing a builder.
uint32_t TodamSamplesPerPair(const GravityConfig& config,
                             const gtfs::TimeInterval& interval);

/// Frozen per-zone gravity normalisers for the *edit-stable* TODAM mode
/// (serve scenario store): Σ_j decay(d_ij) over a fixed reference POI set.
/// Freezing the normaliser — instead of re-normalising α over the current
/// POI set — is what makes a POI add/remove perturb only that POI's trips,
/// so incremental relabeling can be exact (see serve/scenario.h).
///
/// Columnar: one decay column per POI (DistanceDecayColumn) accumulated
/// with an Axpy over all zones. Each norms[z] sums the same decays in the
/// same ascending-POI order as a per-zone scalar loop, so the result is
/// bit-identical to it (tests/testing/gravity_reference.h keeps that loop
/// as the oracle).
std::vector<double> StableGravityNorms(const std::vector<synth::Zone>& zones,
                                       const std::vector<synth::Poi>& pois,
                                       double decay_scale_m);

/// Samples the trips of one (zone, poi) pair in the edit-stable mode. The
/// RNG stream is keyed by the POI's *stable id* (not its index or the POI
/// count), so the same pair draws the same trips regardless of which other
/// POIs exist — the property both BuildGravityStable and the incremental
/// TODAM patch rely on for bit-identical agreement. Appends kept trips
/// (with `poi_index` as the stored index) to `out`.
void SampleStablePairTrips(uint64_t seed, uint32_t zone, uint32_t poi_id,
                           uint32_t poi_index, double keep_probability,
                           const gtfs::TimeInterval& interval,
                           uint32_t samples, std::vector<TripEntry>* out);

/// Keep probability of one pair in the edit-stable mode. A zero frozen
/// normaliser (reference set had no POIs of the category) degenerates to
/// keeping every sample — still deterministic and history-independent.
inline double StableKeepProbability(double decay, double zone_norm,
                                    double keep_scale) {
  if (zone_norm <= 0.0) return 1.0;
  double p = keep_scale * decay / zone_norm;
  return p > 1.0 ? 1.0 : p;
}

/// The α entry recorded for one pair in the edit-stable mode (decay over
/// the frozen normaliser; rows sum to 1 exactly at the reference POI set).
inline double StableAlphaValue(double decay, double zone_norm) {
  return zone_norm <= 0.0 ? 0.0 : decay / zone_norm;
}

/// Materialised TODAM over one POI set and one time interval.
class Todam {
 public:
  /// Trips originating at `zone`, grouped contiguously.
  const std::vector<TripEntry>& TripsFor(uint32_t zone) const {
    return trips_[zone];
  }
  size_t num_zones() const { return trips_.size(); }
  uint64_t num_trips() const { return num_trips_; }

  /// α_ij weights used during construction (row-normalised); needed again
  /// for the gravity-weighted feature aggregation.
  const std::vector<std::vector<double>>& alpha() const { return alpha_; }

  /// Fraction of trips whose POI is within the walking reach `reach_m` of
  /// the origin centroid (the paper's walk-only share diagnostic, §V-B2).
  double WalkOnlyFraction(const std::vector<synth::Zone>& zones,
                          const std::vector<synth::Poi>& pois,
                          double reach_m) const;

  // --- scenario mutation hooks (serve subsystem) ------------------------
  //
  // Both hooks keep the invariant that a patched TODAM equals the one
  // BuildGravityStable would produce from scratch over the edited POI set:
  // within a zone, trips stay grouped per POI in POI-vector order, so
  // removing a column erases one contiguous block and appending a column
  // extends the tail. Zones whose trip sequence changed are recorded in
  // `affected` (ascending) — exactly the zones whose labels can change.

  /// Removes every trip targeting POI index `poi_index` and shifts higher
  /// indices down by one (mirroring erasure from the POI vector). Also
  /// drops the α column when α is populated.
  void RemovePoiColumn(uint32_t poi_index, std::vector<uint32_t>* affected);

  /// Appends a new POI column: `per_zone_trips[z]` are the new trips of
  /// zone z (their `poi` must be the new index == old POI count), appended
  /// after the zone's existing trips. `alpha_column[z]`, when non-empty,
  /// extends the α row of each zone.
  void AppendPoiColumn(const std::vector<std::vector<TripEntry>>& per_zone_trips,
                       const std::vector<double>& alpha_column,
                       std::vector<uint32_t>* affected);

  /// Reassembles a TODAM from persisted columns (snapshot restore).
  /// `trips[z]` / `alpha[z]` become zone z's rows verbatim, so the
  /// restored matrix is bit-identical to the built one (the property the
  /// snapshot golden tests assert end to end).
  static Todam FromParts(std::vector<std::vector<TripEntry>> trips,
                         std::vector<std::vector<double>> alpha);

 private:
  friend class TodamBuilder;
  std::vector<std::vector<TripEntry>> trips_;
  std::vector<std::vector<double>> alpha_;
  uint64_t num_trips_ = 0;
};

/// Builds full and gravity TODAMs and their trip counts.
class TodamBuilder {
 public:
  /// `zones`/`pois` must outlive the builder call; `interval` gives the
  /// start-time window, `config` the gravity parameters.
  TodamBuilder(const std::vector<synth::Zone>& zones,
               const std::vector<synth::Poi>& pois,
               const gtfs::TimeInterval& interval, GravityConfig config);

  /// |R|: start-time samples per (zone, POI) pair.
  uint32_t SamplesPerPair() const;

  /// Size of the full matrix M_f = |Z| x |P| x |R| (no materialisation).
  uint64_t FullTripCount() const;

  /// Materialises the full TODAM M_f. Use only at small scales.
  Todam BuildFull(uint64_t seed) const;

  /// Materialises the gravity TODAM M_g: per pair (i,j), each of the |R|
  /// start times is kept with probability min(1, keep_scale * α_ij).
  Todam BuildGravity(uint64_t seed) const;

  /// Edit-stable variant for the serve scenario store: keep probability is
  /// min(1, keep_scale * decay_ij / zone_norm[i]) with `zone_norm` frozen
  /// (StableGravityNorms over a reference POI set), and the per-pair RNG is
  /// keyed by the POI's stable id. At the reference POI set this draws the
  /// same keep probabilities as BuildGravity; under POI edits it is
  /// history-independent: rebuilding from scratch equals patching via
  /// Remove/AppendPoiColumn, trip for trip.
  Todam BuildGravityStable(uint64_t seed,
                           const std::vector<double>& zone_norm) const;

  /// Trip count of M_g under `seed` without materialising the start times
  /// (draws only the per-pair binomial counts). Matches BuildGravity's
  /// count for the same seed.
  uint64_t GravityTripCount(uint64_t seed) const;

 private:
  double KeepProbability(double alpha_ij) const;

  const std::vector<synth::Zone>& zones_;
  const std::vector<synth::Poi>& pois_;
  gtfs::TimeInterval interval_;
  GravityConfig config_;
  std::vector<std::vector<double>> alpha_;
};

}  // namespace staq::core
