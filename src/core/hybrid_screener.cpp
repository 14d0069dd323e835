#include "core/hybrid_screener.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "core/context.hpp"
#include "core/refine_step.hpp"
#include "filters/apogee_perigee.hpp"
#include "obs/telemetry.hpp"
#include "filters/coplanarity.hpp"
#include "filters/orbit_path.hpp"
#include "filters/time_windows.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

enum class PairClass : std::uint8_t {
  kRejectedApogeePerigee,
  kRejectedPath,
  kRejectedWindows,
  kCoplanar,
  kWindows,
};

struct PairVerdict {
  PairClass cls = PairClass::kRejectedApogeePerigee;
  std::vector<Interval> windows;
};

}  // namespace

GridPipelineOptions HybridScreener::default_options() {
  GridPipelineOptions options;
  options.seconds_per_sample = kDefaultSecondsPerSample;
  options.count_model = ConjunctionCountModel::paper_hybrid();
  return options;
}

HybridScreener::HybridScreener(GridPipelineOptions options,
                               ScreeningContext* context)
    : options_(options),
      context_(context != nullptr ? context : options.context) {
  options_.context = nullptr;  // resolved per call through context_
}

ScreeningReport HybridScreener::screen(const Propagator& propagator,
                                       const ScreeningConfig& caller_config) const {
  detail::ContextLease lease(context_);
  ScreeningContext::Use use(*lease);
  const ScreeningConfig config = lease->apply(caller_config);

  GridPipelineOptions options = options_;
  if (config.seconds_per_sample > 0.0) {
    options.seconds_per_sample = config.seconds_per_sample;
  }
  options.context = lease.get();

  GridPipelineResult pipeline = run_grid_pipeline(propagator, config, options);

  ScreeningReport report;

  // ---- Step 3: orbital filters on the distinct pairs --------------------
  Stopwatch filter_watch;

  std::vector<Candidate> candidates = std::move(pipeline.candidates);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.sat_a != y.sat_a) return x.sat_a < y.sat_a;
              if (x.sat_b != y.sat_b) return x.sat_b < y.sat_b;
              return x.step < y.step;
            });

  // Index ranges of the distinct pairs in the sorted candidate list.
  std::vector<std::pair<std::size_t, std::size_t>> pair_ranges;
  for (std::size_t i = 0; i < candidates.size();) {
    std::size_t j = i + 1;
    while (j < candidates.size() && candidates[j].sat_a == candidates[i].sat_a &&
           candidates[j].sat_b == candidates[i].sat_b) {
      ++j;
    }
    pair_ranges.emplace_back(i, j);
    i = j;
  }

  std::vector<PairVerdict> verdicts(pair_ranges.size());
  std::atomic<std::size_t> rejected_ap{0}, rejected_path{0}, rejected_windows{0},
      coplanar_count{0};

  pool_of(config).parallel_for(pair_ranges.size(), [&](std::size_t pi) {
    const Candidate& c = candidates[pair_ranges[pi].first];
    const KeplerElements& ea = propagator.elements(c.sat_a);
    const KeplerElements& eb = propagator.elements(c.sat_b);
    PairVerdict& v = verdicts[pi];

    if (!apogee_perigee_overlap(ea, eb, config.threshold_km + config.filter_pad_km)) {
      v.cls = PairClass::kRejectedApogeePerigee;
      rejected_ap.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    if (are_coplanar(ea, eb, config.coplanar_tolerance)) {
      coplanar_count.fetch_add(1, std::memory_order_relaxed);
      if (!orbit_path_overlap(ea, eb, config.threshold_km, config.filter_pad_km)) {
        v.cls = PairClass::kRejectedPath;
        rejected_path.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      v.cls = PairClass::kCoplanar;
      return;
    }

    // Non-coplanar: the node-miss check is the (analytic) orbit path
    // filter — the orbits can only approach near the relative nodes.
    const auto crossings = node_crossings(ea, eb);
    const double reach = config.threshold_km + config.filter_pad_km;
    if (crossings[0].miss_distance > reach && crossings[1].miss_distance > reach) {
      v.cls = PairClass::kRejectedPath;
      rejected_path.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    v.windows = conjunction_time_windows(ea, eb, config.t_begin, config.t_end,
                                         config.threshold_km, config.time_windows);
    if (v.windows.empty()) {
      v.cls = PairClass::kRejectedWindows;
      rejected_windows.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    v.cls = PairClass::kWindows;
  });

  // Turn surviving pairs into refinement tasks. Window tasks are emitted
  // once per (pair, window) that is reachable from a candidate sample;
  // coplanar pairs get one grid-style task per candidate step.
  std::vector<detail::RefineTask> tasks;
  std::size_t coplanar_survivors = 0, window_survivors = 0;
  for (std::size_t pi = 0; pi < pair_ranges.size(); ++pi) {
    const PairVerdict& v = verdicts[pi];
    if (v.cls != PairClass::kCoplanar && v.cls != PairClass::kWindows) continue;
    if (v.cls == PairClass::kCoplanar) ++coplanar_survivors;
    else ++window_survivors;
    const auto [begin, end] = pair_ranges[pi];
    const std::uint32_t sat_a = candidates[begin].sat_a;
    const std::uint32_t sat_b = candidates[begin].sat_b;

    if (v.cls == PairClass::kCoplanar) {
      for (std::size_t k = begin; k < end; ++k) {
        const double t_s =
            pipeline.sample_time(candidates[k].step, config.t_begin, config.t_end);
        tasks.push_back({sat_a, sat_b, /*grid_style=*/true, t_s});
      }
      continue;
    }

    // A candidate at sample t_s flags a minimum within +- the cell-crossing
    // radius; mark every window overlapping that reach.
    std::vector<std::uint8_t> used(v.windows.size(), 0);
    for (std::size_t k = begin; k < end; ++k) {
      const double t_s =
          pipeline.sample_time(candidates[k].step, config.t_begin, config.t_end);
      // Cell-crossing reach at a very conservative 1 km/s lower speed
      // bound; matching only gates which windows get refined, so erring
      // wide costs a few extra Brent calls, never a missed encounter.
      constexpr double kMinCrossSpeed = 1.0;  // km/s
      const double reach_time = 2.0 * pipeline.cell_size / kMinCrossSpeed;
      for (std::size_t w = 0; w < v.windows.size(); ++w) {
        if (v.windows[w].lo <= t_s + reach_time && v.windows[w].hi >= t_s - reach_time) {
          used[w] = 1;
        }
      }
    }
    for (std::size_t w = 0; w < v.windows.size(); ++w) {
      if (!used[w]) continue;
      // Extend the filter window slightly so a minimum grazing its edge is
      // found inside the search interval rather than discarded.
      const double ext = 0.25 * v.windows[w].length() + 5.0;
      tasks.push_back({sat_a, sat_b, /*grid_style=*/false, 0.0, v.windows[w].lo - ext,
                       v.windows[w].hi + ext});
    }
  }
  report.timings.filtering = filter_watch.seconds();

  // ---- Step 4: Brent refinement -----------------------------------------
  Stopwatch refine_watch;
  std::vector<Conjunction> raw = detail::refine_tasks(
      propagator, config, pipeline.cell_size, tasks.size(),
      [&tasks](std::size_t i) { return tasks[i]; }, lease->arena());
  report.conjunctions =
      merge_conjunctions(std::move(raw), config.effective_merge_tolerance());
  report.timings.refinement = refine_watch.seconds();

  if (obs::enabled()) {
    // Filter-chain funnel: every distinct pair lands in exactly one of
    // {ap-reject, path-reject, window-reject, survivor}, so the telemetry
    // buckets partition filter_pairs_in. Path checks run on all ap-pass
    // pairs; only non-coplanar node-pass pairs reach the window filter.
    obs::count(obs::Counter::kFilterPairsIn, pair_ranges.size());
    obs::count(obs::Counter::kFilterApogeePerigeeRejects, rejected_ap.load());
    obs::count(obs::Counter::kFilterPathChecks,
               pair_ranges.size() - rejected_ap.load());
    obs::count(obs::Counter::kFilterPathRejects, rejected_path.load());
    obs::count(obs::Counter::kFilterCoplanarPairs, coplanar_count.load());
    obs::count(obs::Counter::kFilterWindowChecks,
               rejected_windows.load() + window_survivors);
    obs::count(obs::Counter::kFilterWindowRejects, rejected_windows.load());
    obs::count(obs::Counter::kFilterSurvivors,
               coplanar_survivors + window_survivors);
    obs::add_seconds(obs::Counter::kTimeFilteringNs, report.timings.filtering);
    obs::add_seconds(obs::Counter::kTimeRefinementNs, report.timings.refinement);
    obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  }

  detail::fill_pipeline_stats(report, propagator, pipeline);
  report.stats.pairs_examined = pair_ranges.size();
  report.stats.filtered_apogee_perigee = rejected_ap.load();
  report.stats.filtered_path = rejected_path.load();
  report.stats.filtered_windows = rejected_windows.load();
  report.stats.coplanar_pairs = coplanar_count.load();
  report.stats.refinements = tasks.size();
  return report;
}

}  // namespace scod
