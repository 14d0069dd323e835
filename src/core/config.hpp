#pragma once

#include <cstdint>

#include "filters/coplanarity.hpp"
#include "filters/time_windows.hpp"
#include "parallel/thread_pool.hpp"
#include "pca/refine.hpp"

namespace scod {

/// Configuration of a conjunction-screening run, shared by all variants.
///
/// The defaults mirror the paper's evaluation setup scaled to laptop
/// hardware: a 2 km screening threshold ("typical for a rough screening
/// process") over a multi-hour span.
struct ScreeningConfig {
  /// Screening threshold d [km]: encounters with PCA below this are
  /// reported, everything above is discarded (Fig. 2).
  double threshold_km = 2.0;

  /// Screened time span [s] past epoch.
  double t_begin = 0.0;
  double t_end = 7200.0;

  /// Sampling period s_ps [s]. The grid variant wants small steps (small
  /// cells, few candidates); the hybrid variant samples less frequently
  /// and lets the orbital filters prune (Section III). Each screener has
  /// its own default; a value > 0 here overrides it.
  double seconds_per_sample = 0.0;

  /// Memory budget m [bytes] for the sizing model (Section V-B).
  std::uint64_t memory_budget = 2ull << 30;

  /// Plane angle below which a pair is handled by the coplanar path.
  double coplanar_tolerance = kDefaultCoplanarTolerance;

  /// Pad added to the threshold in the orbit-path and node-miss filters.
  double filter_pad_km = 0.5;

  /// Time-window construction for the node filter (hybrid + legacy).
  TimeWindowOptions time_windows;

  /// Brent search options for the TCA/PCA refinement.
  RefineOptions refine;

  /// Encounters of the same pair closer than this in TCA are merged
  /// (duplicates found from adjacent sample steps refine to the same
  /// minimum); <= 0 picks max(1 s, Brent tolerance * 8).
  double merge_tolerance = 0.0;

  /// Worker pool; nullptr uses the process-global pool (see pool_of).
  ThreadPool* pool = nullptr;

  double span_seconds() const { return t_end - t_begin; }

  double effective_merge_tolerance() const {
    return merge_tolerance > 0.0 ? merge_tolerance
                                 : (refine.time_tolerance * 8.0 > 1.0
                                        ? refine.time_tolerance * 8.0
                                        : 1.0);
  }
};

/// The pool a screening with `config` runs on.
inline ThreadPool& pool_of(const ScreeningConfig& config) {
  return config.pool != nullptr ? *config.pool : global_thread_pool();
}

}  // namespace scod
