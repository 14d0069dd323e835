#include "core/uncertainty.hpp"

#include <algorithm>
#include <cmath>

namespace scod {

double UncertaintyModel::pair_threshold(std::uint32_t a, std::uint32_t b) const {
  const double sa = sigma_of(a);
  const double sb = sigma_of(b);
  return hard_body_km + k_sigma * std::sqrt(sa * sa + sb * sb);
}

double UncertaintyModel::max_threshold() const {
  double top1 = default_sigma_km;
  double top2 = default_sigma_km;
  for (double s : sigma_km) {
    if (s > top1) {
      top2 = top1;
      top1 = s;
    } else if (s > top2) {
      top2 = s;
    }
  }
  return hard_body_km + k_sigma * std::sqrt(top1 * top1 + top2 * top2);
}

ScreeningReport screen_with_uncertainty(std::span<const Satellite> satellites,
                                        ScreeningConfig config, Variant variant,
                                        const UncertaintyModel& model) {
  // Superset screening at the most conservative threshold any pair needs.
  config.threshold_km = model.max_threshold();
  ScreeningReport report = make_screener(variant)->screen(satellites, config);

  std::erase_if(report.conjunctions, [&](const Conjunction& c) {
    return c.pca > model.pair_threshold(c.sat_a, c.sat_b);
  });
  return report;
}

}  // namespace scod
