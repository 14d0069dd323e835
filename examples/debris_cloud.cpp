/// Fragmentation-event screening — the paper's Section III-B scenario: a
/// catastrophic breakup creates a debris cloud that starts concentrated
/// and spreads along the orbit. We screen the cloud against a
/// constellation shell at increasing cloud ages and watch the conjunction
/// pressure evolve; the grid variant is the right tool because the cloud's
/// density blows up the pair counts that filter chains must enumerate.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/screener.hpp"
#include "population/generator.hpp"
#include "util/constants.hpp"

int main() {
  using namespace scod;

  // A constellation shell at 780 km / 86.4 deg (Iridium-like).
  const auto shell = generate_constellation_shell(6, 11, 780.0,
                                                  86.4 * kPi / 180.0, 0.0, 0);
  const auto shell_size = static_cast<std::uint32_t>(shell.size());

  // The parent object breaks up in a crossing orbit at the same altitude.
  KeplerElements parent;
  parent.semi_major_axis = kEarthRadius + 780.0;
  parent.eccentricity = 0.002;
  parent.inclination = 74.0 * kPi / 180.0;
  parent.raan = 0.7;
  parent.arg_perigee = 0.3;
  parent.mean_anomaly = 2.0;

  std::printf("shell: %u satellites at 780 km; breakup parent in a crossing "
              "74-deg orbit\n\n", shell_size);
  std::printf("%-12s %-10s %-14s %-14s %-10s\n", "cloud age", "fragments",
              "conjunctions", "shell hits", "time [s]");

  // "spread" scales the element dispersion: young clouds are compact and
  // hot; older clouds have smeared along the whole orbit.
  for (const double spread : {0.3, 0.6, 1.0, 2.0, 4.0}) {
    const auto cloud =
        generate_debris_cloud(parent, 250, spread, 0xC10D, shell_size);
    std::vector<Satellite> all = shell;
    all.insert(all.end(), cloud.begin(), cloud.end());

    ScreeningConfig config;
    config.threshold_km = 2.0;
    config.t_end = 2.0 * 3600.0;

    const ScreeningReport report = make_screener(Variant::kGrid)->screen(all, config);

    // Count conjunctions that involve a constellation satellite (the ones
    // an operator must act on; cloud-internal encounters are unavoidable).
    std::size_t shell_hits = 0;
    for (const Conjunction& c : report.conjunctions) {
      if (c.sat_a < shell_size || c.sat_b < shell_size) ++shell_hits;
    }
    std::printf("%-12.1f %-10zu %-14zu %-14zu %-10.2f\n", spread, cloud.size(),
                report.conjunctions.size(), shell_hits, report.timings.total());
    std::fflush(stdout);
  }

  std::printf(
      "\nreading: a young, compact cloud produces a burst of internal\n"
      "encounters; as it disperses along the orbital shell the internal\n"
      "count falls while crossings with the constellation persist — the\n"
      "Kessler-style pressure the screening exists to monitor.\n");
  return 0;
}
