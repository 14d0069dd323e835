/// Long-horizon streaming screening: a week of conjunctions in the memory
/// of a single round.
///
/// The batch API holds every candidate of the whole span before refining;
/// for multi-day horizons on a constrained machine that is exactly the
/// memory wall the paper hits in Fig. 10c. screen_streaming() composes the
/// paper's sample-parallel rounds with the time-slicing strategy of the
/// related work [23]: each round's candidates are refined and emitted
/// immediately, and the round's grids and candidate buffers are recycled.

#include <cstdio>
#include <vector>

#include "core/grid_screener.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"

int main() {
  using namespace scod;

  const auto sats = generate_population({1000, 77});
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);

  ScreeningConfig config;
  config.threshold_km = 2.0;
  config.t_end = 7.0 * 86400.0;      // one week
  config.seconds_per_sample = 16.0;  // coarser sampling for the long span
  config.memory_budget = 64ull << 20;  // pretend we only have 64 MiB

  std::printf("streaming screening of %zu objects over %.0f days "
              "(memory budget %llu MiB)\n\n",
              sats.size(), config.span_seconds() / 86400.0,
              static_cast<unsigned long long>(config.memory_budget >> 20));

  std::size_t total = 0;
  std::vector<std::size_t> per_day(8, 0);
  const ScreeningReport report = GridScreener().screen_streaming(
      propagator, config,
      [&](std::size_t round, std::span<const Conjunction> found) {
        for (const Conjunction& c : found) {
          ++total;
          ++per_day[static_cast<std::size_t>(c.tca / 86400.0)];
          if (total <= 5) {
            std::printf("  first events: round %4zu  %4u-%4u  t=%9.0f s  "
                        "pca=%.3f km\n",
                        round, c.sat_a, c.sat_b, c.tca, c.pca);
          }
        }
      });

  std::printf("\nconjunctions per day:");
  for (std::size_t day = 0; day < 7; ++day) std::printf(" %zu", per_day[day]);
  std::printf("\ntotal %zu conjunctions over the week\n", total);
  std::printf("pipeline: %zu samples in %zu rounds of %zu parallel grids; "
              "%.1f MiB of grids + %.1f MiB candidate reservation planned; "
              "%.1f s wall\n",
              report.stats.total_samples, report.stats.rounds,
              report.stats.parallel_samples,
              static_cast<double>(report.stats.grid_memory_bytes) / (1 << 20),
              static_cast<double>(report.stats.candidate_memory_bytes) / (1 << 20),
              report.timings.total());
  return 0;
}
