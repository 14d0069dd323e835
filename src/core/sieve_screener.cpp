#include "core/sieve_screener.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/context.hpp"
#include "filters/apogee_perigee.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "util/stopwatch.hpp"

namespace scod {

SieveScreener::SieveScreener() : options_(Options{}) {}

SieveScreener::SieveScreener(Options options, ScreeningContext* context)
    : options_(options), context_(context) {}

ScreeningReport SieveScreener::screen(const Propagator& propagator,
                                      const ScreeningConfig& caller_config) const {
  detail::ContextLease lease(context_);
  ScreeningContext::Use use(*lease);
  const ScreeningConfig config = lease->apply(caller_config);

  ScreeningReport report;
  const std::size_t n = propagator.size();
  if (n < 2) return report;
  if (!(config.t_begin < config.t_end)) {
    throw std::invalid_argument("SieveScreener: empty time span");
  }

  Stopwatch alloc_watch;
  std::vector<double>& vmax = lease->arena().vmax(n);
  for (std::size_t i = 0; i < n; ++i) vmax[i] = max_speed(propagator.elements(i));

  // Enumerate the upper-triangle pairs once so the parallel loop is flat.
  std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs =
      lease->arena().pair_buffer(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  report.timings.allocation += alloc_watch.seconds();

  const double coarse = options_.coarse_factor * config.threshold_km;
  std::atomic<std::size_t> rejected_ap{0}, refinements{0}, distance_evals{0};

  Stopwatch sieve_watch;
  std::vector<Conjunction> all;
  std::mutex merge_mutex;

  // The sieve evaluates the pairwise distance in a tight skipping loop, so
  // the devirtualized evaluator pays off even more than in refinement: one
  // snapshot per pair covers the whole time scan.
  const RefineFastPath fast = RefineFastPath::probe(propagator);

  pool_of(config).parallel_for_ranges(
      pairs.size(), [&](std::size_t begin, std::size_t end) {
        std::vector<Conjunction> local;
        std::size_t local_evals = 0, local_refines = 0, local_ap = 0;

        for (std::size_t p = begin; p < end; ++p) {
          const auto [a, b] = pairs[p];
          // The apogee/perigee filter stays worthwhile: it removes the
          // radially separated pairs in O(1) before any propagation.
          if (!apogee_perigee_overlap(propagator.elements(a), propagator.elements(b),
                                      config.threshold_km + config.filter_pad_km)) {
            ++local_ap;
            continue;
          }

          const double closing_speed = vmax[a] + vmax[b];
          std::vector<Encounter> encounters;
          fast.visit_pair(a, b, [&](const auto& eval) {
            const auto pair_distance = [&eval](double t) { return eval.distance(t); };
            double t = config.t_begin;
            while (t <= config.t_end) {
              const double d = pair_distance(t);
              ++local_evals;
              if (d > coarse) {
                // Sieve step: the distance cannot shrink to the threshold
                // before the gap is closed at the maximum closing speed.
                t += std::max((d - config.threshold_km) / closing_speed,
                              options_.min_skip);
                continue;
              }
              // Proximity window: bracket the local minimum around t. The
              // window cannot be wider than the time to traverse the coarse
              // sphere at the lowest realistic speed. Clamp to the span so a
              // minimum sitting exactly on t_begin/t_end is reported instead
              // of being discarded toward a neighbouring interval that does
              // not exist.
              const double half = std::max(2.0 * coarse / closing_speed, 2.0);
              const auto enc =
                  refine_candidate_fn(pair_distance, t, half, config.t_begin,
                                      config.t_end, config.refine);
              ++local_refines;
              if (enc.has_value() && enc->pca <= config.threshold_km) {
                encounters.push_back(*enc);
              }
              t += half + options_.min_skip;  // move past this window
            }
          });
          for (const Encounter& e :
               merge_encounters(std::move(encounters),
                                config.effective_merge_tolerance())) {
            local.push_back({a, b, e.tca, e.pca});
            obs::count(obs::Counter::kConjunctionsRaw);
          }
        }

        distance_evals.fetch_add(local_evals, std::memory_order_relaxed);
        refinements.fetch_add(local_refines, std::memory_order_relaxed);
        rejected_ap.fetch_add(local_ap, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(merge_mutex);
        all.insert(all.end(), local.begin(), local.end());
      });

  report.conjunctions =
      merge_conjunctions(std::move(all), config.effective_merge_tolerance());
  report.timings.filtering = sieve_watch.seconds();

  if (obs::enabled()) {
    // The sieve's filter funnel is two-stage: the apogee/perigee test, then
    // the skipping distance scan — survivors are every pair the scan had to
    // examine (in == ap_rejects + survivors).
    obs::count(obs::Counter::kFilterPairsIn, pairs.size());
    obs::count(obs::Counter::kFilterApogeePerigeeRejects, rejected_ap.load());
    obs::count(obs::Counter::kFilterSurvivors,
               pairs.size() - rejected_ap.load());
    obs::count(obs::Counter::kSieveDistanceEvals, distance_evals.load());
    obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
    obs::add_seconds(obs::Counter::kTimeFilteringNs, report.timings.filtering);
  }

  report.stats.satellites = n;
  report.stats.pairs_examined = pairs.size();
  report.stats.filtered_apogee_perigee = rejected_ap.load();
  report.stats.refinements = refinements.load();
  // Repurpose the candidates counter for the sieve's distance evaluations
  // (its analogue of grid candidates: the work the skipping did not avoid).
  report.stats.candidates = distance_evals.load();
  return report;
}

}  // namespace scod
