/// Mega-constellation screening — the workload motivating the paper's
/// introduction (Starlink-scale fleets joining an already crowded LEO).
///
/// Builds two Walker-delta shells plus catalog-like background traffic,
/// runs the hybrid variant (the fast choice when memory is available) and
/// reports which constellation planes see the most conjunction traffic.

#include <cstdio>
#include <map>
#include <vector>

#include "core/screener.hpp"
#include "population/generator.hpp"
#include "util/constants.hpp"

int main() {
  using namespace scod;

  // Shell 1: 24 planes x 22 satellites at 550 km / 53 deg (Starlink-like).
  // Shell 2: 12 planes x 20 satellites at 1200 km / 87.9 deg (OneWeb-like).
  const std::size_t planes1 = 24, per_plane1 = 22;
  auto fleet = generate_constellation_shell(planes1, per_plane1, 550.0,
                                            53.0 * kPi / 180.0, 0.5, 0);
  const auto first_id2 = static_cast<std::uint32_t>(fleet.size());
  const auto shell2 = generate_constellation_shell(12, 20, 1200.0,
                                                   87.9 * kPi / 180.0, 0.3,
                                                   first_id2);
  fleet.insert(fleet.end(), shell2.begin(), shell2.end());

  // Background: 1500 catalog-like objects with ids above the fleet.
  PopulationConfig background_cfg;
  background_cfg.count = 1500;
  background_cfg.seed = 2026;
  auto background = generate_population(background_cfg);
  const auto fleet_size = static_cast<std::uint32_t>(fleet.size());
  for (Satellite& sat : background) sat.id += fleet_size;

  std::vector<Satellite> all = fleet;
  all.insert(all.end(), background.begin(), background.end());
  std::printf("population: %zu constellation satellites + %zu background "
              "objects\n", fleet.size(), background.size());

  ScreeningConfig config;
  config.threshold_km = 5.0;  // operator screening volumes are generous
  config.t_end = 6.0 * 3600.0;

  const ScreeningReport report = make_screener(Variant::kHybrid)->screen(all, config);
  std::printf("hybrid screening: %zu conjunctions in %.2f s "
              "(%zu candidates, %zu pairs filtered by apogee/perigee)\n\n",
              report.conjunctions.size(), report.timings.total(),
              report.stats.candidates, report.stats.filtered_apogee_perigee);

  // Attribute conjunctions to constellation planes.
  auto plane_of = [&](std::uint32_t id) -> int {
    if (id < planes1 * per_plane1) return static_cast<int>(id / per_plane1);
    return -1;  // shell 2 or background
  };
  std::map<int, std::size_t> per_plane_hits;
  std::size_t fleet_involved = 0, fleet_vs_background = 0;
  for (const Conjunction& c : report.conjunctions) {
    const bool a_fleet = c.sat_a < fleet_size;
    const bool b_fleet = c.sat_b < fleet_size;
    if (a_fleet || b_fleet) ++fleet_involved;
    if (a_fleet != b_fleet) ++fleet_vs_background;
    if (const int p = plane_of(c.sat_a); p >= 0) ++per_plane_hits[p];
    if (const int p = plane_of(c.sat_b); p >= 0) ++per_plane_hits[p];
  }

  std::printf("conjunctions involving the fleet: %zu (of which %zu against "
              "background objects)\n", fleet_involved, fleet_vs_background);
  if (!per_plane_hits.empty()) {
    std::printf("shell-1 planes with conjunction traffic:\n");
    for (const auto& [plane, hits] : per_plane_hits) {
      std::printf("  plane %2d: %zu encounters\n", plane, hits);
    }
  }

  // The deepest approaches are what an operator would hand to the
  // follow-up risk assessment.
  auto sorted = report.conjunctions;
  std::sort(sorted.begin(), sorted.end(),
            [](const Conjunction& x, const Conjunction& y) { return x.pca < y.pca; });
  std::printf("\nclosest approaches:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sorted.size()); ++i) {
    std::printf("  %5u - %5u : %.3f km at t = %.0f s\n", sorted[i].sat_a,
                sorted[i].sat_b, sorted[i].pca, sorted[i].tca);
  }
  return 0;
}
