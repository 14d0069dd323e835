#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/grid_pipeline.hpp"
#include "core/report.hpp"
#include "propagation/propagator.hpp"

namespace scod {

class ScratchArena;

namespace detail {

/// One Brent search of step 4: grid-style around a sample time with the
/// cell-crossing radius, or on an interval the orbital filters built.
struct RefineTask {
  std::uint32_t sat_a = 0;
  std::uint32_t sat_b = 0;
  bool grid_style = true;
  double center = 0.0;  ///< grid-style: the sample time [s]
  double t_lo = 0.0;    ///< filter window [s]
  double t_hi = 0.0;
};

/// Step 4 (Section IV-C) of the grid and hybrid variants: one Brent search
/// per task_at(i), i < count, on the pool. Each task owns a fixed output
/// slot borrowed from `arena`, so the phase is lock-free. Returns the
/// encounters with PCA within the threshold and TCA inside the span, in
/// task order, unmerged; grid-style radii follow from `cell_size`.
std::vector<Conjunction> refine_tasks(
    const Propagator& propagator, const ScreeningConfig& config, double cell_size,
    std::size_t count, const std::function<RefineTask(std::size_t)>& task_at,
    ScratchArena& arena);

/// Copies the grid front-end's timings, sizes and candidate count into
/// `report`; every candidate counts as one refinement.
void fill_pipeline_stats(ScreeningReport& report, const Propagator& propagator,
                         const GridPipelineResult& pipeline);

}  // namespace detail
}  // namespace scod
