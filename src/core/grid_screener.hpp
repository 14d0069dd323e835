#pragma once

#include <functional>
#include <span>

#include "core/config.hpp"
#include "core/grid_pipeline.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The purely grid-based conjunction-detection variant (Section III):
/// small sampling steps, small cells, every grid candidate goes straight
/// to the Brent TCA/PCA refinement — no orbital filters. Lower memory
/// footprint than the hybrid variant at the cost of more refinement work.
class GridScreener final : public Screener {
 public:
  /// Default sampling period of the grid variant [s]; Eq. (1) then gives
  /// cells of threshold + 7.8 * s_ps km. Overridden by
  /// ScreeningConfig::seconds_per_sample when that is positive.
  static constexpr double kDefaultSecondsPerSample = 4.0;

  /// With a context, pipeline scratch and refinement slots are borrowed
  /// from its arena across calls; the context must outlive the screener.
  explicit GridScreener(GridPipelineOptions options = default_options(),
                        ScreeningContext* context = nullptr);

  static GridPipelineOptions default_options();

  Variant variant() const override { return Variant::kGrid; }

  using Screener::screen;

  /// Screens with a caller-supplied propagator (e.g. the J2 secular
  /// propagator); the propagator must be thread-safe.
  ScreeningReport screen(const Propagator& propagator,
                         const ScreeningConfig& config) const override;

  /// Conjunctions found in one streaming round.
  using ConjunctionSink =
      std::function<void(std::size_t round, std::span<const Conjunction>)>;

  /// Bounded-memory streaming mode: candidates are refined and emitted
  /// round by round instead of being held for the whole span, so
  /// arbitrarily long screening horizons run in the memory of a single
  /// round (the time-slicing parallelization strategy of the related work
  /// [23], composed with the paper's sample-parallel rounds). Conjunctions
  /// arrive through `sink` in round order, sorted within each round;
  /// duplicates of a minimum straddling a round boundary are suppressed.
  /// The returned report carries timings/stats only (empty conjunctions).
  ScreeningReport screen_streaming(const Propagator& propagator,
                                   const ScreeningConfig& config,
                                   const ConjunctionSink& sink) const;

 private:
  GridPipelineOptions options_;
  ScreeningContext* context_ = nullptr;
};

}  // namespace scod
