#pragma once

#include <span>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// The traditional deterministic all-on-all baseline the paper measures
/// against ("legacy", [45]): every pair of satellites is pushed through a
/// chain of orbital filters — apogee/perigee, coplanarity, orbit-path /
/// node-miss, node time windows — and the survivors get a Brent TCA/PCA
/// search. Deliberately single-threaded, like the paper's numba-JIT Python
/// baseline, so the quadratic pair loop is undiluted.
class LegacyScreener final : public Screener {
 public:
  using Options = LegacyScreenerOptions;

  LegacyScreener();
  explicit LegacyScreener(Options options, ScreeningContext* context = nullptr);

  Variant variant() const override { return Variant::kLegacy; }

  using Screener::screen;
  ScreeningReport screen(const Propagator& propagator,
                         const ScreeningConfig& config) const override;

 private:
  Options options_;
  ScreeningContext* context_ = nullptr;  ///< telemetry handle only; the
                                         ///< chain needs no sized scratch
};

}  // namespace scod
