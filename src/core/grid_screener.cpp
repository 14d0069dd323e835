#include "core/grid_screener.hpp"

#include <cstdint>
#include <unordered_map>

#include "core/context.hpp"
#include "core/refine_step.hpp"
#include "obs/telemetry.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// Step 4 for one batch of grid candidates: one grid-style Brent search
/// per candidate, centred on its sample time.
std::vector<Conjunction> refine_candidates(const Propagator& propagator,
                                           const ScreeningConfig& config,
                                           const GridPipelineResult& pipeline,
                                           const std::vector<Candidate>& candidates,
                                           ScratchArena& arena) {
  return detail::refine_tasks(
      propagator, config, pipeline.cell_size, candidates.size(),
      [&](std::size_t i) {
        const Candidate& c = candidates[i];
        return detail::RefineTask{
            c.sat_a, c.sat_b, /*grid_style=*/true,
            pipeline.sample_time(c.step, config.t_begin, config.t_end)};
      },
      arena);
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
  detail::fill_pipeline_stats(report, propagator, pipeline);
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
  detail::fill_pipeline_stats(report, propagator, pipeline);
  return report;
}

}  // namespace scod
