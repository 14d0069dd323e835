#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace scod {

/// One detected conjunction: a pair of satellites whose distance reaches a
/// local minimum (the PCA) below the screening threshold at time TCA. A
/// pair can produce several conjunctions over the span (Fig. 2).
struct Conjunction {
  std::uint32_t sat_a = 0;  ///< smaller satellite index
  std::uint32_t sat_b = 0;  ///< larger satellite index
  double tca = 0.0;         ///< time of closest approach [s past epoch]
  double pca = 0.0;         ///< distance at TCA [km]
};

/// Wall-clock seconds per pipeline phase — the quantities behind the
/// paper's Section V-C1 relative-time-consumption breakdown.
struct PhaseTimings {
  double allocation = 0.0;  ///< step 1: grids, hash maps, caches
  double insertion = 0.0;   ///< step 2 (INS): propagation + grid insertion
  double detection = 0.0;   ///< step 2 (CD): per-cell candidate generation
  double filtering = 0.0;   ///< step 3: orbital filters (hybrid/legacy only)
  double refinement = 0.0;  ///< step 4: Brent TCA/PCA searches

  double total() const {
    return allocation + insertion + detection + filtering + refinement;
  }
};

/// Counters describing what the run did; every variant fills the subset
/// that applies to it.
struct ScreeningStats {
  std::size_t satellites = 0;
  std::size_t total_samples = 0;     ///< o
  std::size_t parallel_samples = 0;  ///< p
  std::size_t rounds = 0;            ///< r_c
  double seconds_per_sample = 0.0;   ///< possibly auto-adjusted
  double cell_size_km = 0.0;         ///< g_c (grid variants)
  std::size_t candidates = 0;        ///< distinct (pair, step) candidates
  std::size_t pairs_examined = 0;    ///< pairs entering the filter chain
  std::size_t filtered_apogee_perigee = 0;
  std::size_t filtered_path = 0;     ///< orbit-path / node-miss exclusions
  std::size_t filtered_windows = 0;  ///< pairs with no overlapping windows
  std::size_t coplanar_pairs = 0;
  std::size_t refinements = 0;       ///< Brent searches executed
  std::uint64_t grid_memory_bytes = 0;
  std::uint64_t candidate_memory_bytes = 0;  ///< planned reservation
};

/// Result of one screening run.
struct ScreeningReport {
  std::vector<Conjunction> conjunctions;  ///< sorted by (sat_a, sat_b, tca)
  PhaseTimings timings;
  ScreeningStats stats;

  /// Distinct colliding pairs (the paper's accuracy metric distinguishes
  /// conjunction events from colliding pairs, Section V-D).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> colliding_pairs() const;
};

/// Sorts conjunctions into the canonical (sat_a, sat_b, tca) order.
void sort_conjunctions(std::vector<Conjunction>& conjunctions);

/// Sorts and deduplicates raw per-candidate conjunctions: events of the
/// same pair whose TCAs are within `time_tolerance` describe the same
/// physical minimum (found from adjacent sample steps) and are collapsed,
/// keeping the smallest PCA.
std::vector<Conjunction> merge_conjunctions(std::vector<Conjunction> conjunctions,
                                            double time_tolerance);

/// Set comparison helpers for the accuracy experiment (Section V-D).
struct PairSetDiff {
  std::size_t common = 0;
  std::size_t only_in_first = 0;
  std::size_t only_in_second = 0;
};

PairSetDiff compare_pair_sets(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& first,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& second);

/// Tolerances for event-level conjunction-set matching: two events of the
/// same pair whose TCAs fall within `tca_window` describe the same physical
/// minimum (the paper's V-D accuracy study matches events, not just pairs).
struct ConjunctionMatchOptions {
  double tca_window = 5.0;     ///< [s] TCA distance treated as "same event"
  double pca_tolerance = 0.05; ///< [km] matched events must agree to this
};

/// Event-level diff of two conjunction sets. Each input is canonicalized
/// (sorted, duplicates within the window merged) before matching; matching
/// is greedy in TCA order within each pair.
struct ConjunctionSetDiff {
  std::size_t matched = 0;  ///< events paired up within the tolerances
  std::vector<Conjunction> only_in_first;
  std::vector<Conjunction> only_in_second;
  /// Events matched in (pair, TCA) whose PCAs disagree beyond
  /// pca_tolerance: (first's event, second's event).
  std::vector<std::pair<Conjunction, Conjunction>> pca_mismatches;

  bool identical() const {
    return only_in_first.empty() && only_in_second.empty() &&
           pca_mismatches.empty();
  }
};

ConjunctionSetDiff compare_conjunction_sets(std::vector<Conjunction> first,
                                            std::vector<Conjunction> second,
                                            const ConjunctionMatchOptions& options = {});

}  // namespace scod
