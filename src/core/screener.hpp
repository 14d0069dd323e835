#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "core/config.hpp"
#include "core/grid_pipeline.hpp"
#include "core/report.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

class ScreeningContext;

/// The conjunction-detection variants of the paper's evaluation.
enum class Variant {
  kGrid,    ///< purely grid-based (Section III, first variant)
  kHybrid,  ///< grid + classical orbital filters (second variant)
  kLegacy,  ///< single-threaded all-on-all filter chain (baseline)
  kSieve,   ///< all-on-all smart sieve (related-work baseline [16], [17])
};

std::string variant_name(Variant variant);

/// Inverse of variant_name; nullopt for an unknown name. The one parser
/// every tool shares (CLI, fuzz, benches) — no per-tool string switches.
std::optional<Variant> parse_variant(std::string_view name);

/// Common interface of the four screening variants. A screener is an
/// immutable strategy object: screen() is const and safe to call
/// repeatedly; all per-run state lives on the stack or in the attached
/// ScreeningContext. Obtain instances through make_screener.
class Screener {
 public:
  virtual ~Screener() = default;

  virtual Variant variant() const = 0;

  /// Screens a satellite population: builds the Contour-solver two-body
  /// propagator (timed as allocation) and screens it. Derived classes
  /// bring it into scope with `using Screener::screen;`.
  ScreeningReport screen(std::span<const Satellite> satellites,
                         const ScreeningConfig& config) const;

  /// Screens with a caller-supplied propagator (e.g. the J2 secular
  /// propagator); the propagator must be thread-safe.
  virtual ScreeningReport screen(const Propagator& propagator,
                                 const ScreeningConfig& config) const = 0;
};

/// Options of the legacy (all-on-all filter chain) variant.
struct LegacyScreenerOptions {
  /// Sampling step of the dense encounter scan used for coplanar pairs,
  /// where the node-window construction degenerates [s].
  double dense_scan_step = 16.0;
};

/// Options of the smart-sieve variant.
struct SieveScreenerOptions {
  /// The coarse sieve threshold is `coarse_factor` * screening threshold;
  /// below it the pair is considered inside a proximity window and a Brent
  /// search runs. Larger values find windows earlier (fewer, longer skips)
  /// at the cost of more refinements.
  double coarse_factor = 8.0;
  /// Lower bound on a skip [s]; prevents pathological crawling when a pair
  /// hovers just outside the coarse threshold.
  double min_skip = 1.0;
};

/// Per-variant construction options of make_screener. An unset field means
/// the variant's own defaults; fields of other variants are ignored.
struct ScreenerOptions {
  std::optional<GridPipelineOptions> pipeline;    ///< grid + hybrid
  std::optional<LegacyScreenerOptions> legacy;    ///< legacy
  std::optional<SieveScreenerOptions> sieve;      ///< sieve
};

/// Convenience for the common "grid variant with these pipeline options"
/// call: make_screener(Variant::kGrid, ctx, pipeline_options(p)).
inline ScreenerOptions pipeline_options(GridPipelineOptions pipeline) {
  ScreenerOptions options;
  options.pipeline = std::move(pipeline);
  return options;
}

/// Factory behind every variant dispatch site. With a context the returned
/// screener borrows its scratch from the context's arena (warm repeat
/// screens, bit-identical reports); without one each screen() call
/// allocates and frees as before. The context must outlive the screener.
std::unique_ptr<Screener> make_screener(Variant variant,
                                        ScreeningContext* context = nullptr,
                                        const ScreenerOptions& options = {});

}  // namespace scod
