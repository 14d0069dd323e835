/// Quickstart: screen a synthetic satellite population for conjunctions.
///
/// Demonstrates the one-call API: generate a population, configure the
/// screening (threshold, span), run the grid-based variant and inspect the
/// report. Build and run:
///
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart

#include <cstdio>

#include "core/screener.hpp"
#include "population/generator.hpp"

int main() {
  using namespace scod;

  // 1. A population of 2000 synthetic objects with the catalog-like
  //    (a, e) distribution of the paper's Section V-A.
  PopulationConfig population;
  population.count = 2000;
  population.seed = 7;
  const std::vector<Satellite> satellites = generate_population(population);

  // 2. Screening setup: find every encounter closer than 2 km within the
  //    next two hours.
  ScreeningConfig config;
  config.threshold_km = 2.0;
  config.t_begin = 0.0;
  config.t_end = 2.0 * 3600.0;

  // 3. Run the grid-based variant (lock-free spatial hash grids; use
  //    Variant::kHybrid for the filter-assisted variant, Variant::kLegacy
  //    for the all-on-all baseline).
  const ScreeningReport report =
      make_screener(Variant::kGrid)->screen(satellites, config);

  // 4. Consume the results.
  std::printf("screened %zu satellites over %.0f s: %zu conjunctions, "
              "%zu distinct pairs\n",
              report.stats.satellites, config.span_seconds(),
              report.conjunctions.size(), report.colliding_pairs().size());
  for (const Conjunction& c : report.conjunctions) {
    std::printf("  objects %5u and %5u: closest approach %.3f km at t = %.1f s\n",
                c.sat_a, c.sat_b, c.pca, c.tca);
  }

  std::printf("\npipeline: %zu sample steps (s_ps = %.1f s, cells %.1f km), "
              "%zu candidate pairs, %.2f s total\n",
              report.stats.total_samples, report.stats.seconds_per_sample,
              report.stats.cell_size_km, report.stats.candidates,
              report.timings.total());
  return 0;
}
