#include "core/todam.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/kernels.h"

namespace staq::core {

namespace {

/// Independent per-(zone, poi) generator so counting and materialisation
/// agree and pairs can be processed in any order.
util::Rng PairRng(uint64_t seed, uint32_t zone, uint32_t poi,
                  uint32_t num_pois) {
  uint64_t pair_index =
      static_cast<uint64_t>(zone) * num_pois + poi;
  util::SplitMix64 mixer(seed ^ (pair_index * 0x9e3779b97f4a7c15ULL +
                                 0x2545f4914f6cdd1dULL));
  return util::Rng(mixer.Next());
}

/// Independent per-(zone, poi-id) generator for the edit-stable mode: the
/// key ignores the POI's index and the POI count, so a pair's stream
/// survives any edit to the rest of the POI set.
util::Rng StablePairRng(uint64_t seed, uint32_t zone, uint32_t poi_id) {
  uint64_t pair_key =
      (static_cast<uint64_t>(zone) << 32) | static_cast<uint64_t>(poi_id);
  util::SplitMix64 mixer(seed ^ (pair_key * 0x9e3779b97f4a7c15ULL +
                                 0x94d049bb133111ebULL));
  return util::Rng(mixer.Next());
}

}  // namespace

uint32_t TodamSamplesPerPair(const GravityConfig& config,
                             const gtfs::TimeInterval& interval) {
  double samples = config.sample_rate_per_hour * interval.DurationHours();
  return static_cast<uint32_t>(std::lround(std::max(1.0, samples)));
}

std::vector<double> StableGravityNorms(const std::vector<synth::Zone>& zones,
                                       const std::vector<synth::Poi>& pois,
                                       double decay_scale_m) {
  std::vector<double> norms(zones.size(), 0.0);
  std::vector<double> column(zones.size());
  // Ascending-POI accumulation per element: each norms[z] sees the exact
  // addition sequence of the per-zone scalar loop (1.0 * x == x bitwise).
  for (const synth::Poi& poi : pois) {
    DistanceDecayColumn(zones, poi.position, decay_scale_m, column.data());
    ml::kernels::Axpy(zones.size(), 1.0, column.data(), norms.data());
  }
  return norms;
}

void SampleStablePairTrips(uint64_t seed, uint32_t zone, uint32_t poi_id,
                           uint32_t poi_index, double keep_probability,
                           const gtfs::TimeInterval& interval,
                           uint32_t samples, std::vector<TripEntry>* out) {
  double keep = keep_probability > 1.0 ? 1.0 : keep_probability;
  if (keep <= 0.0) return;  // α = 0: no trips for this pair
  util::Rng rng = StablePairRng(seed, zone, poi_id);
  double span = static_cast<double>(interval.end - interval.start);
  for (uint32_t r = 0; r < samples; ++r) {
    // Same draw discipline as BuildGravity: one Bernoulli + one time draw
    // per candidate, so a pair's trips depend only on its own stream.
    bool kept = rng.Bernoulli(keep);
    gtfs::TimeOfDay t =
        interval.start + static_cast<gtfs::TimeOfDay>(rng.UniformDouble() * span);
    if (kept) out->push_back(TripEntry{poi_index, t});
  }
}

void Todam::RemovePoiColumn(uint32_t poi_index,
                            std::vector<uint32_t>* affected) {
  if (affected != nullptr) affected->clear();
  for (uint32_t z = 0; z < trips_.size(); ++z) {
    auto& zone_trips = trips_[z];
    size_t before = zone_trips.size();
    size_t w = 0;
    for (size_t i = 0; i < zone_trips.size(); ++i) {
      TripEntry t = zone_trips[i];
      if (t.poi == poi_index) continue;
      if (t.poi > poi_index) --t.poi;
      zone_trips[w++] = t;
    }
    zone_trips.resize(w);
    num_trips_ -= before - w;
    if (w != before && affected != nullptr) affected->push_back(z);
  }
  if (!alpha_.empty()) {
    for (auto& row : alpha_) {
      if (poi_index < row.size()) row.erase(row.begin() + poi_index);
    }
  }
}

void Todam::AppendPoiColumn(
    const std::vector<std::vector<TripEntry>>& per_zone_trips,
    const std::vector<double>& alpha_column, std::vector<uint32_t>* affected) {
  if (affected != nullptr) affected->clear();
  for (uint32_t z = 0; z < trips_.size(); ++z) {
    const auto& added = per_zone_trips[z];
    if (!added.empty()) {
      trips_[z].insert(trips_[z].end(), added.begin(), added.end());
      num_trips_ += added.size();
      if (affected != nullptr) affected->push_back(z);
    }
  }
  if (!alpha_.empty() && !alpha_column.empty()) {
    for (size_t z = 0; z < alpha_.size(); ++z) {
      alpha_[z].push_back(alpha_column[z]);
    }
  }
}

double Todam::WalkOnlyFraction(const std::vector<synth::Zone>& zones,
                               const std::vector<synth::Poi>& pois,
                               double reach_m) const {
  uint64_t walkable = 0;
  uint64_t total = 0;
  for (size_t z = 0; z < trips_.size(); ++z) {
    for (const TripEntry& trip : trips_[z]) {
      double d = geo::Distance(zones[z].centroid, pois[trip.poi].position);
      if (d <= reach_m) ++walkable;
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(walkable) / static_cast<double>(total)
                   : 0.0;
}

TodamBuilder::TodamBuilder(const std::vector<synth::Zone>& zones,
                           const std::vector<synth::Poi>& pois,
                           const gtfs::TimeInterval& interval,
                           GravityConfig config)
    : zones_(zones), pois_(pois), interval_(interval), config_(config) {
  alpha_ = AttractivenessMatrix(zones_, pois_, config_.decay_scale_m);
}

uint32_t TodamBuilder::SamplesPerPair() const {
  return TodamSamplesPerPair(config_, interval_);
}

uint64_t TodamBuilder::FullTripCount() const {
  return static_cast<uint64_t>(zones_.size()) * pois_.size() *
         SamplesPerPair();
}

double TodamBuilder::KeepProbability(double alpha_ij) const {
  double p = config_.keep_scale * alpha_ij;
  return p > 1.0 ? 1.0 : p;
}

Todam Todam::FromParts(std::vector<std::vector<TripEntry>> trips,
                       std::vector<std::vector<double>> alpha) {
  Todam todam;
  todam.trips_ = std::move(trips);
  todam.alpha_ = std::move(alpha);
  todam.num_trips_ = 0;
  for (const auto& zone_trips : todam.trips_) {
    todam.num_trips_ += zone_trips.size();
  }
  return todam;
}

Todam TodamBuilder::BuildFull(uint64_t seed) const {
  Todam todam;
  todam.alpha_ = alpha_;
  todam.trips_.resize(zones_.size());
  uint32_t samples = SamplesPerPair();
  for (uint32_t z = 0; z < zones_.size(); ++z) {
    auto& zone_trips = todam.trips_[z];
    zone_trips.reserve(static_cast<size_t>(pois_.size()) * samples);
    for (uint32_t p = 0; p < pois_.size(); ++p) {
      util::Rng rng = PairRng(seed, z, p, static_cast<uint32_t>(pois_.size()));
      double span = static_cast<double>(interval_.end - interval_.start);
      for (uint32_t r = 0; r < samples; ++r) {
        gtfs::TimeOfDay t = interval_.start +
                            static_cast<gtfs::TimeOfDay>(rng.UniformDouble() * span);
        zone_trips.push_back(TripEntry{p, t});
      }
    }
    todam.num_trips_ += zone_trips.size();
  }
  return todam;
}

Todam TodamBuilder::BuildGravity(uint64_t seed) const {
  Todam todam;
  todam.alpha_ = alpha_;
  todam.trips_.resize(zones_.size());
  uint32_t samples = SamplesPerPair();
  for (uint32_t z = 0; z < zones_.size(); ++z) {
    auto& zone_trips = todam.trips_[z];
    for (uint32_t p = 0; p < pois_.size(); ++p) {
      double keep = KeepProbability(alpha_[z][p]);
      if (keep <= 0.0) continue;  // α = 0: no trips for this pair (M_b row 0)
      util::Rng rng = PairRng(seed, z, p, static_cast<uint32_t>(pois_.size()));
      double span = static_cast<double>(interval_.end - interval_.start);
      for (uint32_t r = 0; r < samples; ++r) {
        // One Bernoulli + one time draw per candidate, both single-word,
        // so counting and building stay in RNG lockstep.
        bool kept = rng.Bernoulli(keep);
        gtfs::TimeOfDay t = interval_.start +
                            static_cast<gtfs::TimeOfDay>(rng.UniformDouble() * span);
        if (kept) zone_trips.push_back(TripEntry{p, t});
      }
    }
    todam.num_trips_ += zone_trips.size();
  }
  return todam;
}

Todam TodamBuilder::BuildGravityStable(
    uint64_t seed, const std::vector<double>& zone_norm) const {
  Todam todam;
  todam.trips_.resize(zones_.size());
  todam.alpha_.resize(zones_.size());
  uint32_t samples = SamplesPerPair();
  for (uint32_t z = 0; z < zones_.size(); ++z) {
    auto& zone_trips = todam.trips_[z];
    auto& alpha_row = todam.alpha_[z];
    alpha_row.reserve(pois_.size());
    for (uint32_t p = 0; p < pois_.size(); ++p) {
      double decay =
          DistanceDecay(geo::Distance(zones_[z].centroid, pois_[p].position),
                        config_.decay_scale_m);
      alpha_row.push_back(StableAlphaValue(decay, zone_norm[z]));
      double keep =
          StableKeepProbability(decay, zone_norm[z], config_.keep_scale);
      SampleStablePairTrips(seed, z, pois_[p].id, p, keep, interval_, samples,
                            &zone_trips);
    }
    todam.num_trips_ += zone_trips.size();
  }
  return todam;
}

uint64_t TodamBuilder::GravityTripCount(uint64_t seed) const {
  uint64_t count = 0;
  uint32_t samples = SamplesPerPair();
  for (uint32_t z = 0; z < zones_.size(); ++z) {
    for (uint32_t p = 0; p < pois_.size(); ++p) {
      double keep = KeepProbability(alpha_[z][p]);
      if (keep <= 0.0) continue;
      if (keep >= 1.0) {
        count += samples;
        continue;
      }
      util::Rng rng = PairRng(seed, z, p, static_cast<uint32_t>(pois_.size()));
      for (uint32_t r = 0; r < samples; ++r) {
        if (rng.Bernoulli(keep)) ++count;
        (void)rng.NextU64();  // skip the time draw to stay in lockstep
      }
    }
  }
  return count;
}

}  // namespace staq::core
