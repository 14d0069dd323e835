#include "core/screener.hpp"

#include <stdexcept>

#include "core/grid_screener.hpp"
#include "core/hybrid_screener.hpp"
#include "core/legacy_screener.hpp"
#include "core/sieve_screener.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/stopwatch.hpp"

namespace scod {

std::string variant_name(Variant variant) {
  switch (variant) {
    case Variant::kGrid: return "grid";
    case Variant::kHybrid: return "hybrid";
    case Variant::kLegacy: return "legacy";
    case Variant::kSieve: return "sieve";
  }
  return "unknown";
}

std::optional<Variant> parse_variant(std::string_view name) {
  if (name == "grid") return Variant::kGrid;
  if (name == "hybrid") return Variant::kHybrid;
  if (name == "legacy") return Variant::kLegacy;
  if (name == "sieve") return Variant::kSieve;
  return std::nullopt;
}

ScreeningReport Screener::screen(std::span<const Satellite> satellites,
                                 const ScreeningConfig& config) const {
  Stopwatch alloc_watch;
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(satellites, solver);
  const double setup = alloc_watch.seconds();

  ScreeningReport report = screen(propagator, config);
  report.timings.allocation += setup;
  return report;
}

std::unique_ptr<Screener> make_screener(Variant variant,
                                        ScreeningContext* context,
                                        const ScreenerOptions& options) {
  switch (variant) {
    case Variant::kGrid:
      return std::make_unique<GridScreener>(
          options.pipeline.value_or(GridScreener::default_options()), context);
    case Variant::kHybrid:
      return std::make_unique<HybridScreener>(
          options.pipeline.value_or(HybridScreener::default_options()), context);
    case Variant::kLegacy:
      return std::make_unique<LegacyScreener>(
          options.legacy.value_or(LegacyScreenerOptions{}), context);
    case Variant::kSieve:
      return std::make_unique<SieveScreener>(
          options.sieve.value_or(SieveScreenerOptions{}), context);
  }
  throw std::invalid_argument("make_screener: unknown variant");
}

}  // namespace scod
