// The scalar gravity normaliser: per zone, the decays to every POI summed
// in ascending POI order. It is the oracle core::StableGravityNorms (a
// columnar Axpy over per-POI decay columns) is checked bit-identical
// against.
#pragma once

#include <vector>

#include "core/gravity.h"
#include "geo/latlon.h"
#include "synth/city_builder.h"

namespace staq::testing {

inline std::vector<double> ReferenceStableGravityNorms(
    const std::vector<synth::Zone>& zones, const std::vector<synth::Poi>& pois,
    double decay_scale_m) {
  std::vector<double> norms(zones.size(), 0.0);
  for (size_t z = 0; z < zones.size(); ++z) {
    for (const synth::Poi& poi : pois) {
      norms[z] += core::DistanceDecay(
          geo::Distance(zones[z].centroid, poi.position), decay_scale_m);
    }
  }
  return norms;
}

}  // namespace staq::testing
