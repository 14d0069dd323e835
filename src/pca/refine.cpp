#include "pca/refine.hpp"

#include <algorithm>

namespace scod {

double grid_search_radius(double cell_size, double slower_speed_km_s) {
  return 2.0 * cell_size / slower_speed_km_s;
}

std::vector<Encounter> merge_encounters(std::vector<Encounter> encounters,
                                        double time_tolerance) {
  std::sort(encounters.begin(), encounters.end(),
            [](const Encounter& x, const Encounter& y) { return x.tca < y.tca; });
  std::vector<Encounter> merged;
  for (const Encounter& e : encounters) {
    if (!merged.empty() && e.tca - merged.back().tca <= time_tolerance) {
      if (e.pca < merged.back().pca) merged.back() = e;
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

}  // namespace scod
