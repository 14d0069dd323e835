#include "core/refine_step.hpp"

#include <algorithm>
#include <optional>

#include "core/context.hpp"
#include "obs/telemetry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"

namespace scod::detail {

std::vector<Conjunction> refine_tasks(
    const Propagator& propagator, const ScreeningConfig& config, double cell_size,
    std::size_t count, const std::function<RefineTask(std::size_t)>& task_at,
    ScratchArena& arena) {
  std::vector<Conjunction>& slots = arena.conjunction_slots(count);
  std::vector<std::uint8_t>& valid = arena.valid_flags(count);

  const RefineFastPath fast = RefineFastPath::probe(propagator);
  pool_of(config).parallel_for(count, [&](std::size_t i) {
    const RefineTask task = task_at(i);
    const std::optional<Encounter> encounter =
        fast.visit_pair(task.sat_a, task.sat_b, [&](const auto& eval) {
          const auto distance = [&eval](double t) { return eval.distance(t); };
          if (!task.grid_style) {
            return refine_on_interval_fn(distance, task.t_lo, task.t_hi, config.refine);
          }
          // "t is the time it takes the slower of both satellites to cross
          // two cells, which we can calculate simply by using the velocity
          // vector at that time step" (Section IV-C).
          const double radius = grid_search_radius(
              cell_size, std::min(eval.speed_a(task.center), eval.speed_b(task.center)));
          return refine_candidate_fn(distance, task.center, radius, config.t_begin,
                                     config.t_end, config.refine);
        });
    // Grid-style intervals are clamped to the span already; a filter window
    // may reach past it.
    if (encounter.has_value() && encounter->pca <= config.threshold_km &&
        encounter->tca >= config.t_begin && encounter->tca <= config.t_end) {
      slots[i] = {task.sat_a, task.sat_b, encounter->tca, encounter->pca};
      valid[i] = 1;
    }
  });

  std::vector<Conjunction> raw;
  raw.reserve(count / 4 + 1);
  for (std::size_t i = 0; i < count; ++i) {
    if (valid[i]) raw.push_back(slots[i]);
  }
  obs::count(obs::Counter::kConjunctionsRaw, raw.size());
  return raw;
}

void fill_pipeline_stats(ScreeningReport& report, const Propagator& propagator,
                         const GridPipelineResult& pipeline) {
  report.timings.allocation += pipeline.allocation_seconds;
  report.timings.insertion = pipeline.insertion_seconds;
  report.timings.detection = pipeline.detection_seconds;
  report.stats.satellites = propagator.size();
  report.stats.total_samples = pipeline.plan.total_samples;
  report.stats.parallel_samples = pipeline.plan.parallel_samples;
  report.stats.rounds = pipeline.plan.rounds;
  report.stats.seconds_per_sample = pipeline.sample_period;
  report.stats.cell_size_km = pipeline.cell_size;
  report.stats.candidates = pipeline.total_candidates;
  report.stats.refinements = pipeline.total_candidates;
  report.stats.grid_memory_bytes = pipeline.grid_memory_bytes;
  report.stats.candidate_memory_bytes = pipeline.candidate_memory_bytes;
}

}  // namespace scod::detail
