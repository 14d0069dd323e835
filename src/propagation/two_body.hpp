#pragma once

#include <array>
#include <span>
#include <vector>

#include "orbit/frames.hpp"
#include "propagation/fast_trig.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// Per-satellite data precomputed once at construction — the paper's
/// "Kepler solver data" a_k (Section V-B) that the GPU adaptation stores in
/// global memory so each (satellite, time) thread is independent: mean
/// motion, eccentricity terms, and the perifocal->ECI rotation.
struct TwoBodyCache {
  double mean_anomaly0 = 0.0;   ///< M at epoch [rad]
  double mean_motion = 0.0;     ///< n [rad/s]
  double eccentricity = 0.0;
  double semi_latus = 0.0;      ///< p = a(1-e^2) [km]
  double semi_major = 0.0;      ///< a [km]
  double semi_minor = 0.0;      ///< b = a sqrt(1-e^2) [km]
  double vis_viva_factor = 0.0; ///< sqrt(mu/p) [km/s]
  Mat3 rotation;                ///< perifocal -> ECI
};

/// Structure-of-arrays mirror of the TwoBodyCache table: one contiguous
/// array per field (rotation as nine cell arrays), so the batched
/// propagation kernels stream satellite-major with stride-1 loads and the
/// compiler vectorizes across satellites.
struct TwoBodySoA {
  std::vector<double> mean_anomaly0;
  std::vector<double> mean_motion;
  std::vector<double> eccentricity;
  std::vector<double> semi_major;
  std::vector<double> semi_minor;
  /// rotation[3*r + c] holds cell (r, c) of every satellite's
  /// perifocal->ECI matrix.
  std::array<std::vector<double>, 9> rotation;

  std::size_t size() const { return mean_anomaly0.size(); }
};

namespace detail {

/// Perifocal position from the solved eccentric anomaly, rotated to ECI:
/// x_pf = a (cos E - e), y_pf = b sin E. Shared (and inlined) by the
/// scalar path, the batched kernel and the devirtualized pair evaluator so
/// all three produce bit-identical coordinates. `Solver` is either the
/// abstract KeplerSolver (one virtual call) or a concrete solver type
/// (direct call).
template <typename Solver>
inline Vec3 cache_position(const TwoBodyCache& c, const Solver& solver, double time) {
  const double m = c.mean_anomaly0 + c.mean_motion * time;
  const double big_e = solver.eccentric_anomaly(m, c.eccentricity);
  double se, ce;
  sincos_bounded(big_e, se, ce);
  const double x = c.semi_major * (ce - c.eccentricity);
  const double y = c.semi_minor * se;
  return c.rotation * Vec3{x, y, 0.0};
}

/// Position and velocity from the eccentric anomaly. With w = 1 - e cos E:
/// v_pf = sqrt(mu/p)/(a w) * (-b sin E, p cos E), the E-form of the
/// classic (-sin f, e + cos f) expression.
template <typename Solver>
inline StateVector cache_state(const TwoBodyCache& c, const Solver& solver, double time) {
  const double m = c.mean_anomaly0 + c.mean_motion * time;
  const double big_e = solver.eccentric_anomaly(m, c.eccentricity);
  double se, ce;
  sincos_bounded(big_e, se, ce);
  const double x = c.semi_major * (ce - c.eccentricity);
  const double y = c.semi_minor * se;
  const double w = 1.0 - c.eccentricity * ce;
  const double u = c.vis_viva_factor / (w * c.semi_major);
  const Vec3 vel_pf{-u * c.semi_minor * se, u * c.semi_latus * ce, 0.0};
  return {c.rotation * Vec3{x, y, 0.0}, c.rotation * vel_pf};
}

}  // namespace detail

/// Unperturbed Keplerian (two-body) propagation, the paper's propagation
/// model. Advances the mean anomaly linearly, solves Kepler's equation
/// with the configured solver, and rotates the perifocal state into ECI.
class TwoBodyPropagator final : public Propagator {
 public:
  /// The solver must outlive the propagator. Satellites with invalid
  /// elements (hyperbolic, sub-surface perigee) are rejected with
  /// std::invalid_argument — the screening pipeline requires every index
  /// to be propagatable at any time.
  TwoBodyPropagator(std::span<const Satellite> satellites, const KeplerSolver& solver);

  std::size_t size() const override { return satellites_.size(); }
  Vec3 position(std::size_t index, double time) const override;
  StateVector state(std::size_t index, double time) const override;
  const KeplerElements& elements(std::size_t index) const override;

  /// Batched positions: out[i - begin] = position(i, time) for every i in
  /// [begin, end), bit-identical to the per-call path. Runs blocked over
  /// the SoA mirror — one virtual solver dispatch per block instead of two
  /// per satellite — and is the insertion-phase kernel of the grid
  /// pipeline. Safe to call concurrently for disjoint output ranges.
  void positions_at(double time, std::size_t begin, std::size_t end, Vec3* out) const;

  /// True anomaly at `time`; exposed for the filter chain's anomaly-window
  /// computations.
  double true_anomaly(std::size_t index, double time) const;

  const TwoBodyCache& cache(std::size_t index) const { return cache_[index]; }
  const TwoBodySoA& soa() const { return soa_; }
  const KeplerSolver& solver() const { return *solver_; }

 private:
  std::vector<Satellite> satellites_;
  std::vector<TwoBodyCache> cache_;
  TwoBodySoA soa_;
  const KeplerSolver* solver_;
};

}  // namespace scod
