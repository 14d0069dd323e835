#include "core/legacy_screener.hpp"

#include <stdexcept>
#include <vector>

#include "core/context.hpp"
#include "filters/apogee_perigee.hpp"
#include "filters/coplanarity.hpp"
#include "filters/dense_scan.hpp"
#include "filters/orbit_path.hpp"
#include "filters/time_windows.hpp"
#include "obs/telemetry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "util/constants.hpp"
#include "util/stopwatch.hpp"

namespace scod {

LegacyScreener::LegacyScreener() : options_(Options{}) {}

LegacyScreener::LegacyScreener(Options options, ScreeningContext* context)
    : options_(options), context_(context) {}

ScreeningReport LegacyScreener::screen(const Propagator& propagator,
                                       const ScreeningConfig& config) const {
  // The single-threaded chain carries no sized scratch; the context is
  // only the telemetry handle (and the cross-thread misuse guard).
  detail::ContextLease lease(context_);
  ScreeningContext::Use use(*lease);

  ScreeningReport report;
  const std::size_t n = propagator.size();
  if (n >= 2 && !(config.t_begin < config.t_end)) {
    throw std::invalid_argument("LegacyScreener: empty time span");
  }
  const double reach = config.threshold_km + config.filter_pad_km;

  std::vector<Conjunction> raw;
  double filter_seconds = 0.0;
  double refine_seconds = 0.0;

  DenseScanOptions scan_options;
  scan_options.step = options_.dense_scan_step;
  scan_options.refine = config.refine;
  const RefineFastPath fast = RefineFastPath::probe(propagator);

  std::size_t pairs = 0, rejected_ap = 0, rejected_path = 0, rejected_windows = 0,
              coplanar_count = 0, refinements = 0, window_pass = 0, survivors = 0;

  Stopwatch section;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const KeplerElements& ea = propagator.elements(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const KeplerElements& eb = propagator.elements(j);
      ++pairs;

      if (!apogee_perigee_overlap(ea, eb, reach)) {
        ++rejected_ap;
        continue;
      }

      const auto sat_a = static_cast<std::uint32_t>(i);
      const auto sat_b = static_cast<std::uint32_t>(j);

      if (are_coplanar(ea, eb, config.coplanar_tolerance)) {
        ++coplanar_count;
        if (!orbit_path_overlap(ea, eb, config.threshold_km, config.filter_pad_km)) {
          ++rejected_path;
          continue;
        }
        ++survivors;
        filter_seconds += section.seconds();
        section.restart();
        // Coplanar survivor: exhaustive sampled encounter search.
        scan_options.refine_below = 8.0 * reach + 2.0 * kLeoSpeed * scan_options.step;
        for (const Encounter& e :
             scan_encounters(propagator, sat_a, sat_b, config.t_begin, config.t_end,
                             scan_options)) {
          ++refinements;
          if (e.pca <= config.threshold_km) raw.push_back({sat_a, sat_b, e.tca, e.pca});
        }
        refine_seconds += section.seconds();
        section.restart();
        continue;
      }

      // Non-coplanar: node-miss check (the analytic orbit path filter).
      const auto crossings = node_crossings(ea, eb);
      if (crossings[0].miss_distance > reach && crossings[1].miss_distance > reach) {
        ++rejected_path;
        continue;
      }

      const std::vector<Interval> windows = conjunction_time_windows(
          ea, eb, config.t_begin, config.t_end, config.threshold_km,
          config.time_windows);
      if (windows.empty()) {
        ++rejected_windows;
        continue;
      }
      ++window_pass;
      ++survivors;

      filter_seconds += section.seconds();
      section.restart();
      fast.visit_pair(sat_a, sat_b, [&](const auto& eval) {
        const auto distance = [&eval](double t) { return eval.distance(t); };
        for (const Interval& window : windows) {
          const double ext = 0.25 * window.length() + 5.0;
          const auto encounter = refine_on_interval_fn(distance, window.lo - ext,
                                                       window.hi + ext, config.refine);
          ++refinements;
          if (encounter.has_value() && encounter->pca <= config.threshold_km &&
              encounter->tca >= config.t_begin && encounter->tca <= config.t_end) {
            raw.push_back({sat_a, sat_b, encounter->tca, encounter->pca});
          }
        }
      });
      refine_seconds += section.seconds();
      section.restart();
    }
  }
  filter_seconds += section.seconds();

  if (obs::enabled()) {
    obs::count(obs::Counter::kFilterPairsIn, pairs);
    obs::count(obs::Counter::kFilterApogeePerigeeRejects, rejected_ap);
    obs::count(obs::Counter::kFilterPathChecks, pairs - rejected_ap);
    obs::count(obs::Counter::kFilterPathRejects, rejected_path);
    obs::count(obs::Counter::kFilterCoplanarPairs, coplanar_count);
    obs::count(obs::Counter::kFilterWindowChecks, rejected_windows + window_pass);
    obs::count(obs::Counter::kFilterWindowRejects, rejected_windows);
    obs::count(obs::Counter::kFilterSurvivors, survivors);
    obs::count(obs::Counter::kConjunctionsRaw, raw.size());
    obs::add_seconds(obs::Counter::kTimeFilteringNs, filter_seconds);
    obs::add_seconds(obs::Counter::kTimeRefinementNs, refine_seconds);
  }

  report.conjunctions =
      merge_conjunctions(std::move(raw), config.effective_merge_tolerance());
  obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  report.timings.filtering = filter_seconds;
  report.timings.refinement = refine_seconds;

  report.stats.satellites = n;
  report.stats.pairs_examined = pairs;
  report.stats.filtered_apogee_perigee = rejected_ap;
  report.stats.filtered_path = rejected_path;
  report.stats.filtered_windows = rejected_windows;
  report.stats.coplanar_pairs = coplanar_count;
  report.stats.refinements = refinements;
  return report;
}

}  // namespace scod
