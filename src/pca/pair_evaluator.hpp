#pragma once

#include <cstdint>

#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"

namespace scod {

/// Devirtualized objective function for the Brent refinement (Section
/// IV-C). The legacy path pays two virtual dispatches (Propagator::position
/// -> KeplerSolver::eccentric_anomaly) plus a cache-line-scattered
/// TwoBodyCache load for BOTH satellites on EVERY objective evaluation —
/// and Brent evaluates the objective dozens of times per candidate. This
/// evaluator snapshots both satellites' cache entries and binds the
/// concrete ContourKeplerSolver once per candidate, so each evaluation is a
/// direct call on local data. It routes through the same
/// detail::cache_position/cache_state helpers as TwoBodyPropagator, so the
/// refined TCAs/PCAs are unchanged.
class PairStateEvaluator {
 public:
  PairStateEvaluator(const TwoBodyPropagator& propagator,
                     const ContourKeplerSolver& solver, std::uint32_t sat_a,
                     std::uint32_t sat_b)
      : cache_a_(propagator.cache(sat_a)),
        cache_b_(propagator.cache(sat_b)),
        solver_(&solver) {}

  /// Pairwise distance [km] at `time` — the Brent objective.
  double distance(double time) const {
    return detail::cache_position(cache_a_, *solver_, time)
        .distance(detail::cache_position(cache_b_, *solver_, time));
  }

  /// Orbital speeds [km/s], for the cell-crossing search radius.
  double speed_a(double time) const {
    return detail::cache_state(cache_a_, *solver_, time).velocity.norm();
  }
  double speed_b(double time) const {
    return detail::cache_state(cache_b_, *solver_, time).velocity.norm();
  }

 private:
  TwoBodyCache cache_a_;
  TwoBodyCache cache_b_;
  const ContourKeplerSolver* solver_;
};

/// The virtual-path objective behind the same interface as
/// PairStateEvaluator: every evaluation goes through Propagator::distance /
/// Propagator::state. Refinement uses it for the propagators that have no
/// devirtualized evaluator (J2, ephemeris, TLE, or a wrapped TwoBody).
class PropagatorPairEvaluator {
 public:
  PropagatorPairEvaluator(const Propagator& propagator, std::uint32_t sat_a,
                          std::uint32_t sat_b)
      : propagator_(&propagator), sat_a_(sat_a), sat_b_(sat_b) {}

  double distance(double time) const {
    return propagator_->distance(sat_a_, sat_b_, time);
  }
  double speed_a(double time) const {
    return propagator_->state(sat_a_, time).velocity.norm();
  }
  double speed_b(double time) const {
    return propagator_->state(sat_b_, time).velocity.norm();
  }

 private:
  const Propagator* propagator_;
  std::uint32_t sat_a_;
  std::uint32_t sat_b_;
};

/// Resolves the concrete (TwoBodyPropagator, ContourKeplerSolver) pair
/// behind an abstract Propagator — once per refinement phase, so the
/// per-candidate hot loop never touches RTTI. When the screener runs a
/// different propagator or solver, `available()` is false.
struct RefineFastPath {
  const TwoBodyPropagator* propagator = nullptr;
  const ContourKeplerSolver* solver = nullptr;
  /// The probed propagator, for the virtual path.
  const Propagator* source = nullptr;

  static RefineFastPath probe(const Propagator& p) {
    RefineFastPath fast;
    fast.source = &p;
    fast.propagator = dynamic_cast<const TwoBodyPropagator*>(&p);
    if (fast.propagator != nullptr) {
      fast.solver = dynamic_cast<const ContourKeplerSolver*>(&fast.propagator->solver());
      if (fast.solver == nullptr) fast.propagator = nullptr;
    }
    return fast;
  }

  bool available() const { return solver != nullptr; }

  PairStateEvaluator pair(std::uint32_t sat_a, std::uint32_t sat_b) const {
    return {*propagator, *solver, sat_a, sat_b};
  }

  /// The one place the refinement objective is chosen: calls `body(eval)`
  /// with the devirtualized PairStateEvaluator of (sat_a, sat_b) when
  /// available(), else with a PropagatorPairEvaluator over the probed
  /// propagator. `body` is generic over the evaluator, so each search is
  /// written once for both paths.
  template <typename Body>
  auto visit_pair(std::uint32_t sat_a, std::uint32_t sat_b, Body&& body) const {
    if (available()) return body(pair(sat_a, sat_b));
    return body(PropagatorPairEvaluator(*source, sat_a, sat_b));
  }
};

}  // namespace scod
