#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "model/conjunction_model.hpp"
#include "model/sizing.hpp"
#include "propagation/propagator.hpp"

namespace scod {

class ScreeningContext;

/// A screening candidate: an unordered satellite pair plus the sample step
/// at which the grid saw them in neighbouring cells.
struct Candidate {
  std::uint32_t sat_a = 0;  ///< smaller index
  std::uint32_t sat_b = 0;  ///< larger index
  std::uint32_t step = 0;   ///< global sample-step number

  constexpr bool operator==(const Candidate&) const = default;
};

/// Options of the shared grid front-end (steps 1-2 of Section III: memory
/// allocation, parallel propagation + insertion, parallel candidate
/// detection).
struct GridPipelineOptions {
  /// Sampling period s_ps [s]; the cell size follows from Eq. (1).
  double seconds_per_sample = 4.0;
  /// Candidate-count model (Eq. 3 for grid, Eq. 4 for hybrid). The memory
  /// plan reserves room for the predicted candidates when it chooses the
  /// sample parallelism and the automatic s_ps reduction; detection itself
  /// is not bounded by it.
  ConjunctionCountModel count_model = ConjunctionCountModel::paper_grid();
  /// Candidate pairs farther apart than threshold + (v_max_a + v_max_b) *
  /// s_ps / 2 at the sample cannot dip below the threshold near it; when
  /// true they are dropped during detection instead of being refined.
  /// Purely an optimization — it never changes the reported conjunctions.
  bool distance_prefilter = true;
  /// Overrides the Eq. (1) cell size [km] when positive. ONLY for the
  /// worst-case ablation (bench_eq1_cellsize): cells smaller than Eq. (1)
  /// void the no-skip guarantee of Fig. 4.
  double cell_size_override = 0.0;
  /// Incremental re-screening hook (src/service): when non-empty it must
  /// have one entry per satellite, and only candidate pairs with at least
  /// one marked ("dirty") member are emitted by the detection phase. The
  /// full population is still inserted into the grid, so dirty-vs-clean
  /// candidates are found exactly as in a full screen; clean-vs-clean
  /// pairs are skipped because their conjunctions are unchanged from the
  /// cached baseline report. Empty (the default) screens every pair.
  std::span<const std::uint8_t> dirty_mask = {};
  /// Long-lived screening context to borrow step-1 scratch from (grids,
  /// candidate buffers, vmax table). Checked-out buffers are reset to exactly
  /// the state a fresh allocation would have, so results are bit-identical
  /// either way; warm repeat screens just skip the allocation cost. With
  /// nullptr (the default) the pipeline allocates per call as before.
  ScreeningContext* context = nullptr;
};

/// Everything the grid front-end produced for the refinement/filter stages.
struct GridPipelineResult {
  /// Distinct (pair, step) candidates ordered by (step, sat_a, sat_b);
  /// empty in streaming mode.
  std::vector<Candidate> candidates;
  std::size_t total_candidates = 0;   ///< count across all rounds
  double cell_size = 0.0;             ///< g_c [km]
  double sample_period = 0.0;         ///< s_ps actually used (auto-adjusted)
  SizingPlan plan;
  std::uint64_t grid_memory_bytes = 0;
  /// Candidate memory the plan reserved from the Eq. 3/4 prediction.
  std::uint64_t candidate_memory_bytes = 0;
  double allocation_seconds = 0.0;
  double insertion_seconds = 0.0;
  double detection_seconds = 0.0;

  /// Wall-clock time of the sample step with global index `step`.
  double sample_time(std::size_t step, double t_begin, double t_end) const {
    const double t = t_begin + static_cast<double>(step) * sample_period;
    return t < t_end ? t : t_end;
  }
};

/// Runs the grid front-end over the whole span: plans the sample
/// parallelism from config.memory_budget, then for each round propagates
/// all satellites into the per-step grids (through the batched SoA kernel
/// when the propagator is a TwoBodyPropagator, else one position() call
/// per tuple; the positions are bit-identical) and scans every occupied
/// cell plus its 13 forward neighbours (cell_half_neighborhood) for
/// candidate pairs. Every pair of neighbouring cells is visited from
/// exactly one side, so each (pair, step) is emitted once and needs no
/// deduplication. The output order is a function of the input alone,
/// independent of the thread count and scheduling.
///
/// Throws std::runtime_error when even a single grid does not fit into the
/// memory budget.
GridPipelineResult run_grid_pipeline(const Propagator& propagator,
                                     const ScreeningConfig& config,
                                     const GridPipelineOptions& options);

/// Per-round candidate sink for streaming consumption. Receives the round
/// index, the candidates detected in that round (moved), and the pipeline
/// result as populated so far (cell_size, sample_period and plan are final
/// before the first round). A (pair, step) key can only occur in the round
/// owning that step, so the rounds concatenated are exactly the candidate
/// vector of run_grid_pipeline.
using GridRoundSink = std::function<void(
    std::size_t round, std::vector<Candidate>&& candidates,
    const GridPipelineResult& pipeline)>;

/// Streaming variant of run_grid_pipeline: each round's candidates are
/// handed to `sink` as soon as the round is detected, so memory stays
/// bounded by one round's activity regardless of the span length. The returned
/// result's `candidates` vector is empty; counters cover the whole run.
GridPipelineResult run_grid_pipeline_streaming(const Propagator& propagator,
                                               const ScreeningConfig& config,
                                               const GridPipelineOptions& options,
                                               const GridRoundSink& sink);

}  // namespace scod
