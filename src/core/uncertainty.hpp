#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/screener.hpp"
#include "orbit/elements.hpp"

namespace scod {

/// Per-object position uncertainty driving pair-specific screening
/// thresholds.
///
/// The paper screens with a uniform threshold "which size should include
/// the largest typical uncertainties" (Section III). This layer makes that
/// link explicit: with 1-sigma position uncertainties per object, the pair
/// (i, j) is screened at
///
///     d_ij = hard_body_km + k_sigma * sqrt(sigma_i^2 + sigma_j^2),
///
/// i.e. a k-sigma miss plus the physical size budget. Objects without an
/// entry use `default_sigma_km`.
struct UncertaintyModel {
  std::vector<double> sigma_km;    ///< indexed by satellite index
  double default_sigma_km = 0.5;
  double k_sigma = 3.0;
  double hard_body_km = 0.02;

  double sigma_of(std::uint32_t index) const {
    return index < sigma_km.size() ? sigma_km[index] : default_sigma_km;
  }

  /// Pair-specific screening threshold d_ij [km].
  double pair_threshold(std::uint32_t a, std::uint32_t b) const;

  /// The largest pair threshold any two objects can produce — the uniform
  /// threshold the paper's screening phase would have to use to be as
  /// conservative as the per-pair rule.
  double max_threshold() const;
};

/// Screens with per-pair uncertainty thresholds: runs the chosen variant
/// at the model's max_threshold() (a superset of every per-pair result —
/// screening at a larger threshold can only add encounters), then keeps
/// each conjunction only if its PCA is below its own pair's threshold.
/// Stats/timings are the inner run's; conjunctions are the filtered set.
ScreeningReport screen_with_uncertainty(std::span<const Satellite> satellites,
                                        ScreeningConfig config, Variant variant,
                                        const UncertaintyModel& model);

}  // namespace scod
