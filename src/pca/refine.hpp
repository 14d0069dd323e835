#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "obs/telemetry.hpp"
#include "pca/brent.hpp"

namespace scod {

/// A refined close approach of a satellite pair: the Time of Closest
/// Approach (TCA) and the distance at that time (PCA). See Fig. 2 of the
/// paper — an encounter is one local minimum of the pairwise distance.
struct Encounter {
  double tca = 0.0;  ///< [s] past epoch
  double pca = 0.0;  ///< [km]
};

/// Options for the Brent-based TCA/PCA search (Section IV-C).
struct RefineOptions {
  /// Absolute time tolerance of the Brent search [s].
  double time_tolerance = 1e-4;
  /// Maximum Brent iterations per candidate.
  int max_iterations = 80;
  /// How far beyond an interval edge to probe when the minimum lands on
  /// the boundary, as a fraction of the interval radius.
  double edge_probe_fraction = 0.05;
};

/// Radius of the search interval for a grid candidate: "t is the time it
/// takes the slower of both satellites to cross two cells" (Section IV-C).
double grid_search_radius(double cell_size, double slower_speed_km_s);

namespace detail {

/// The one Brent search of step 4 (Section IV-C) on [t_lo, t_hi], with the
/// paper's boundary-discard rule: when the minimum stops at an interval
/// edge, probe slightly beyond it. If the distance keeps falling, the local
/// minimum lies outside this interval — discard; the neighbouring
/// interval's search will find it. Otherwise the edge really is the
/// (clamped) minimum. Past `span_lo`/`span_hi` there is no neighbouring
/// interval, so an edge sitting on them is never discarded and the probe
/// never crosses them. `radius` scales the probe distance.
template <typename DistanceFn>
std::optional<Encounter> refine_within(DistanceFn&& distance, double t_lo, double t_hi,
                                       double radius, double span_lo, double span_hi,
                                       const RefineOptions& options) {
  const MinimizeResult min =
      brent_minimize(distance, t_lo, t_hi, options.time_tolerance, options.max_iterations);
  obs::count(obs::Counter::kRefinements);
  obs::count(obs::Counter::kBrentIterations,
             static_cast<std::uint64_t>(min.iterations));

  const double probe =
      std::max(options.edge_probe_fraction * radius, 4.0 * options.time_tolerance);
  const double edge_tol = 2.0 * options.time_tolerance;

  if (min.x - t_lo <= edge_tol && t_lo > span_lo) {
    if (distance(std::max(t_lo - probe, span_lo)) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  } else if (t_hi - min.x <= edge_tol && t_hi < span_hi) {
    if (distance(std::min(t_hi + probe, span_hi)) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  }

  return Encounter{min.x, min.value};
}

}  // namespace detail

/// Minimizes the pairwise distance `distance(t)` on the grid-style interval
/// [center - radius, center + radius], clamped to [t_min, t_max].
///
/// Returns the encounter, or std::nullopt when the minimum lies on the
/// interval boundary and the distance keeps decreasing just beyond it — in
/// that case the true local minimum belongs to a neighbouring interval and
/// will be found from there. At the span edges t_min/t_max the clamped
/// minimum is reported instead.
template <typename DistanceFn>
std::optional<Encounter> refine_candidate_fn(DistanceFn&& distance, double center,
                                             double radius, double t_min, double t_max,
                                             const RefineOptions& options = {}) {
  const double t_lo = std::max(center - radius, t_min);
  const double t_hi = std::min(center + radius, t_max);
  if (!(t_lo < t_hi)) return std::nullopt;
  if (center - radius < t_min || center + radius > t_max) {
    obs::count(obs::Counter::kWindowClamps);
  }
  return detail::refine_within(distance, t_lo, t_hi, radius, t_min, t_max, options);
}

/// Minimizes the pairwise distance `distance(t)` on an explicit interval
/// [t_lo, t_hi] (the filter windows of the hybrid and legacy variants).
/// The boundary-discard rule applies at both edges.
template <typename DistanceFn>
std::optional<Encounter> refine_on_interval_fn(DistanceFn&& distance, double t_lo,
                                               double t_hi,
                                               const RefineOptions& options = {}) {
  if (!(t_lo < t_hi)) return std::nullopt;
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  return detail::refine_within(distance, t_lo, t_hi, 0.5 * (t_hi - t_lo), -kUnbounded,
                               kUnbounded, options);
}

/// Collapses encounters of one pair that describe the same physical local
/// minimum: candidates generated at adjacent sample steps refine to nearly
/// identical TCAs. Encounters within `time_tolerance` of each other are
/// merged, keeping the smallest PCA. Returns the list sorted by TCA.
std::vector<Encounter> merge_encounters(std::vector<Encounter> encounters,
                                        double time_tolerance);

}  // namespace scod
