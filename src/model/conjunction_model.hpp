#pragma once

#include <cstddef>

namespace scod {

/// Empirical model of the expected candidate count, used to reserve
/// candidate memory in the sample-parallelism plan (Section V-B). The paper
/// sizes its conjunction hash map with it; this library emits each
/// candidate once into per-chunk buffers and keeps the prediction as a
/// planning reservation only. The paper obtains these models with
/// Extra-P; Eqs. (3) and (4) give
///
///   grid:   c' = 2.32e-9 * n^2 * s^(4/3) * t * d^(7/4)
///   hybrid: c' = 2.14e-9 * n^2 * s^(5/3) * t * d
///
/// with n the satellite count, s the seconds per sample, t the simulated
/// time span [s] and d the screening threshold [km].
struct ConjunctionCountModel {
  double coefficient = 0.0;
  double satellites_exponent = 2.0;
  double sps_exponent = 1.0;
  double span_exponent = 1.0;
  double threshold_exponent = 1.0;

  double predict(double satellites, double seconds_per_sample, double span_seconds,
                 double threshold_km) const;

  /// Eq. (3), the paper's fitted model for the grid-based variant.
  static ConjunctionCountModel paper_grid();

  /// Eq. (4), the paper's fitted model for the hybrid variant.
  static ConjunctionCountModel paper_hybrid();
};

/// The sizing rule around the model: "we ensure that at least 10,000
/// elements fit into the conjunction hash map ... we double the hash map
/// size again" (one factor of two; the paper's second factor is the
/// slot-table headroom, which candidate_map_bytes adds to the reservation).
std::size_t candidate_capacity_from_model(const ConjunctionCountModel& model,
                                          double satellites, double seconds_per_sample,
                                          double span_seconds, double threshold_km);

}  // namespace scod
