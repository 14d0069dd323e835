#include "core/grid_screener.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "core/context.hpp"
#include "obs/telemetry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// Step 4 for one batch of candidates: Brent refinement, one logical
/// thread per candidate (kernel-style fixed output slots keep the phase
/// lock-free). Returns the raw (unmerged) sub-threshold conjunctions.
/// When the propagator is the concrete TwoBody/Contour pair, each candidate
/// snapshots both cache entries into a PairStateEvaluator so every Brent
/// objective evaluation is a direct call instead of two virtual dispatches.
std::vector<Conjunction> refine_candidates(const Propagator& propagator,
                                           const ScreeningConfig& config,
                                           const GridPipelineResult& pipeline,
                                           const std::vector<Candidate>& candidates,
                                           ScratchArena& arena) {
  std::vector<Conjunction>& slots = arena.conjunction_slots(candidates.size());
  std::vector<std::uint8_t>& valid = arena.valid_flags(candidates.size());

  const RefineFastPath fast = RefineFastPath::probe(propagator);
  pool_of(config).parallel_for(candidates.size(), [&](std::size_t i) {
    const Candidate& c = candidates[i];
    const double t_s = pipeline.sample_time(c.step, config.t_begin, config.t_end);
    // "t is the time it takes the slower of both satellites to cross two
    // cells, which we can calculate simply by using the velocity vector at
    // that time step" (Section IV-C).
    std::optional<Encounter> encounter;
    if (fast.available()) {
      const PairStateEvaluator eval = fast.pair(c.sat_a, c.sat_b);
      const double radius = grid_search_radius(
          pipeline.cell_size, std::min(eval.speed_a(t_s), eval.speed_b(t_s)));
      encounter = refine_candidate_fn([&eval](double t) { return eval.distance(t); },
                                      t_s, radius, config.t_begin, config.t_end,
                                      config.refine);
    } else {
      const double speed_a = propagator.state(c.sat_a, t_s).velocity.norm();
      const double speed_b = propagator.state(c.sat_b, t_s).velocity.norm();
      const double radius =
          grid_search_radius(pipeline.cell_size, std::min(speed_a, speed_b));
      encounter = refine_candidate(propagator, c.sat_a, c.sat_b, t_s, radius,
                                   config.t_begin, config.t_end, config.refine);
    }
    if (encounter.has_value() && encounter->pca <= config.threshold_km) {
      slots[i] = {c.sat_a, c.sat_b, encounter->tca, encounter->pca};
      valid[i] = 1;
    }
  });

  std::vector<Conjunction> raw;
  raw.reserve(candidates.size() / 4 + 1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (valid[i]) raw.push_back(slots[i]);
  }
  obs::count(obs::Counter::kConjunctionsRaw, raw.size());
  return raw;
}

void fill_stats(ScreeningReport& report, const Propagator& propagator,
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

}  // namespace

GridPipelineOptions GridScreener::default_options() {
  GridPipelineOptions options;
  options.seconds_per_sample = kDefaultSecondsPerSample;
  options.count_model = ConjunctionCountModel::paper_grid();
  return options;
}

GridScreener::GridScreener(GridPipelineOptions options, ScreeningContext* context)
    : options_(options),
      context_(context != nullptr ? context : options.context) {
  options_.context = nullptr;  // resolved per call through context_
}

ScreeningReport GridScreener::screen(std::span<const Satellite> satellites,
                                     const ScreeningConfig& config) const {
  Stopwatch alloc_watch;
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(satellites, solver);
  const double setup = alloc_watch.seconds();

  ScreeningReport report = screen(propagator, config);
  report.timings.allocation += setup;
  return report;
}

ScreeningReport GridScreener::screen(const Propagator& propagator,
                                     const ScreeningConfig& caller_config) const {
  detail::ContextLease lease(context_);
  ScreeningContext::Use use(*lease);
  const ScreeningConfig config = lease->apply(caller_config);

  GridPipelineOptions options = options_;
  if (config.seconds_per_sample > 0.0) {
    options.seconds_per_sample = config.seconds_per_sample;
  }
  options.context = lease.get();

  const GridPipelineResult pipeline = run_grid_pipeline(propagator, config, options);

  ScreeningReport report;
  Stopwatch refine_watch;
  report.conjunctions =
      merge_conjunctions(refine_candidates(propagator, config, pipeline,
                                           pipeline.candidates, lease->arena()),
                         config.effective_merge_tolerance());
  report.timings.refinement = refine_watch.seconds();
  obs::add_seconds(obs::Counter::kTimeRefinementNs, report.timings.refinement);
  obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  fill_stats(report, propagator, pipeline);
  return report;
}

ScreeningReport GridScreener::screen_streaming(const Propagator& propagator,
                                               const ScreeningConfig& caller_config,
                                               const ConjunctionSink& sink) const {
  detail::ContextLease lease(context_);
  ScreeningContext::Use use(*lease);
  const ScreeningConfig config = lease->apply(caller_config);

  GridPipelineOptions options = options_;
  if (config.seconds_per_sample > 0.0) {
    options.seconds_per_sample = config.seconds_per_sample;
  }
  options.context = lease.get();

  const double merge_tolerance = config.effective_merge_tolerance();
  double refine_seconds = 0.0;
  // Last emitted TCA per pair, to suppress duplicates of a minimum found
  // from both sides of a round boundary.
  std::unordered_map<std::uint64_t, double> last_emitted;

  const GridRoundSink round_sink = [&](std::size_t round,
                                       std::vector<Candidate>&& candidates,
                                       const GridPipelineResult& pipeline) {
    Stopwatch watch;
    std::vector<Conjunction> merged = merge_conjunctions(
        refine_candidates(propagator, config, pipeline, candidates,
                          lease->arena()),
        merge_tolerance);

    std::vector<Conjunction> fresh;
    fresh.reserve(merged.size());
    for (const Conjunction& c : merged) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(c.sat_a) << 32) | c.sat_b;
      const auto it = last_emitted.find(key);
      if (it == last_emitted.end() || c.tca - it->second > merge_tolerance) {
        fresh.push_back(c);
        last_emitted[key] = c.tca;
      }
    }
    const double round_seconds = watch.seconds();
    refine_seconds += round_seconds;
    obs::add_seconds(obs::Counter::kTimeRefinementNs, round_seconds);
    obs::count(obs::Counter::kConjunctionsReported, fresh.size());
    sink(round, fresh);
  };

  const GridPipelineResult pipeline =
      run_grid_pipeline_streaming(propagator, config, options, round_sink);

  ScreeningReport report;
  report.timings.refinement = refine_seconds;
  fill_stats(report, propagator, pipeline);
  return report;
}

}  // namespace scod
