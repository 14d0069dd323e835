#pragma once

#include <span>

#include "core/config.hpp"
#include "core/grid_pipeline.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The hybrid conjunction-detection variant (Section III): the same grid
/// front-end, but sampled less frequently (larger cells), with the
/// candidate pairs passed through the classical orbital filter chain —
/// apogee/perigee overlap, coplanarity classification, node-miss (orbit
/// path) check and the node time-window filter — before the Brent
/// refinement. "The additional checks reduce the number of pairs we have
/// to examine for their PCAs and TCAs, so we sample less frequently ...
/// effectively trading time for space."
class HybridScreener final : public Screener {
 public:
  /// Default sampling period [s]; four times the grid variant's, i.e.
  /// four-times-fewer sample steps with correspondingly larger cells.
  static constexpr double kDefaultSecondsPerSample = 16.0;

  /// With a context, pipeline scratch and refinement slots are borrowed
  /// from its arena across calls; the context must outlive the screener.
  explicit HybridScreener(GridPipelineOptions options = default_options(),
                          ScreeningContext* context = nullptr);

  static GridPipelineOptions default_options();

  Variant variant() const override { return Variant::kHybrid; }

  using Screener::screen;
  ScreeningReport screen(const Propagator& propagator,
                         const ScreeningConfig& config) const override;

 private:
  GridPipelineOptions options_;
  ScreeningContext* context_ = nullptr;
};

}  // namespace scod
