/// ScreeningContext warm-vs-cold: what reusable scratch arenas buy.
///
/// The paper times step 1 ("memory allocation") as a real phase of every
/// screening run — at 100k objects hundreds of MiB of grids and candidate
/// slots are allocated, faulted in and zeroed per call. A long-lived
/// ScreeningContext turns that into a checkout: buffers are reset, not
/// reallocated, and the report stays bit-identical (the arena contract,
/// enforced here and in test_context).
///
/// Measured per population size: cold screens (fresh screener, no context)
/// vs warm screens (one context, primed once), reporting the step-1
/// allocation seconds and the end-to-end time; then the screening service's
/// incremental re-screen with a released (cold) vs retained (warm) arena.
/// Committed snapshot: BENCH_pr5.json.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench/common.hpp"
#include "core/context.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "service/screening_service.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace scod;
  using namespace scod::bench;

  HarnessOptions opt = parse_harness_options(argc, argv);
  // Same workload shape as the service bench: a dense catalog screened
  // over a 15-minute window, where the allocation share is visible.
  const HarnessOptions stock;
  if (opt.sizes == stock.sizes) opt.sizes = {10000, 100000};
  if (opt.span == stock.span) opt.span = 900.0;
  if (opt.threshold == stock.threshold) opt.threshold = 10.0;
  if (opt.sps_grid == stock.sps_grid) opt.sps_grid = 16.0;
  const auto repeats = static_cast<std::int64_t>(std::max<std::int64_t>(
      opt.repeats, 3));  // medians need a few samples

  print_banner("ScreeningContext reuse: cold vs warm allocation",
               "step-1 allocation cost of Section V-C1, amortized by the arena");
  std::printf("threshold %.1f km, span %.0f s, sps %.0f s, %lld repeats\n\n",
              opt.threshold, opt.span, opt.sps_grid,
              static_cast<long long>(repeats));

  JsonBenchWriter json(opt.json);
  TextTable table({"n", "mode", "alloc [s]", "e2e [s]", "alloc cut", "conj"});
  bool identical = true;

  const ContourKeplerSolver solver;
  for (const std::int64_t size : opt.sizes) {
    const auto n = static_cast<std::size_t>(size);
    const auto sats = generate_population({n, opt.seed});
    ScreeningConfig cfg = make_config(opt);
    cfg.seconds_per_sample = opt.sps_grid;
    // Screen through a pre-built propagator so report.timings.allocation
    // is exactly the pipeline's step-1 cost (no propagator-setup share).
    const TwoBodyPropagator propagator(sats, solver);

    const auto median_alloc = [&](auto&& one_run) {
      std::vector<double> allocs, totals;
      ScreeningReport last;
      for (std::int64_t r = 0; r < repeats; ++r) {
        Stopwatch watch;
        last = one_run();
        totals.push_back(watch.seconds());
        allocs.push_back(last.timings.allocation);
      }
      std::sort(allocs.begin(), allocs.end());
      std::sort(totals.begin(), totals.end());
      struct { double alloc, total; ScreeningReport report; } out{
          allocs[allocs.size() / 2], totals[totals.size() / 2], last};
      return out;
    };

    // Cold: a fresh screener per run, every buffer allocated from scratch.
    const auto cold = median_alloc(
        [&] { return make_screener(Variant::kGrid)->screen(propagator, cfg); });

    // Warm: one long-lived context, primed by a discarded first screen.
    ScreeningContext context;
    const auto screener = make_screener(Variant::kGrid, &context);
    screener->screen(propagator, cfg);
    const auto warm =
        median_alloc([&] { return screener->screen(propagator, cfg); });

    // The speedup is only admissible if the reports are bit-identical.
    bool same = cold.report.conjunctions.size() == warm.report.conjunctions.size();
    for (std::size_t i = 0; same && i < cold.report.conjunctions.size(); ++i) {
      const Conjunction& c = cold.report.conjunctions[i];
      const Conjunction& w = warm.report.conjunctions[i];
      same = c.sat_a == w.sat_a && c.sat_b == w.sat_b && c.tca == w.tca &&
             c.pca == w.pca;
    }
    same = same && cold.report.stats.candidates == warm.report.stats.candidates;
    if (!same) {
      std::fprintf(stderr, "n=%zu: warm report differs from cold — FAIL\n", n);
      identical = false;
    }

    const double cut = 1.0 - warm.alloc / cold.alloc;
    table.add_row({std::to_string(n), "cold", TextTable::num(cold.alloc, 4),
                   TextTable::num(cold.total, 3), "-",
                   std::to_string(cold.report.conjunctions.size())});
    table.add_row({std::to_string(n), "warm", TextTable::num(warm.alloc, 4),
                   TextTable::num(warm.total, 3),
                   TextTable::num(100.0 * cut, 1) + "%",
                   std::to_string(warm.report.conjunctions.size())});
    json.record("context_reuse", n, "grid-cold", cold.total,
                cold.report.conjunctions.size(), "",
                "\"allocation_seconds\": " + std::to_string(cold.alloc));
    json.record("context_reuse", n, "grid-warm", warm.total,
                warm.report.conjunctions.size(), "",
                "\"allocation_seconds\": " + std::to_string(warm.alloc) +
                    ", \"bit_identical\": " + (same ? "true" : "false"));
  }

  // Service path: the same delta re-screened with a cold arena (released
  // before the pass) vs the retained one the service naturally keeps.
  {
    const auto n = static_cast<std::size_t>(opt.sizes.front());
    ServiceOptions options;
    options.config = make_config(opt);
    options.config.seconds_per_sample = opt.sps_grid;
    ScreeningService service(options);
    service.upsert(generate_population({n, opt.seed}));
    service.screen();  // warm baseline

    Rng rng(opt.seed + 1);
    const auto dirty_delta = [&] {
      const auto snap = service.store().snapshot();
      const std::size_t k = std::max<std::size_t>(1, n / 100);
      std::vector<Satellite> delta;
      for (std::size_t i = 0; i < k; ++i) {
        Satellite sat = snap->satellites[(i * 97) % snap->size()];
        sat.elements.mean_anomaly += rng.uniform(-0.05, 0.05);
        delta.push_back(sat);
      }
      return delta;
    };

    service.upsert(dirty_delta());
    service.context().arena().release();  // force the cold "before"
    const ServiceReport before = service.screen(ScreenMode::kIncremental);

    service.upsert(dirty_delta());
    const ServiceReport after = service.screen(ScreenMode::kIncremental);

    table.add_row({std::to_string(n), "svc-incr-cold",
                   TextTable::num(before.timings.allocation, 4),
                   TextTable::num(before.total_seconds, 3), "-",
                   std::to_string(before.conjunctions.size())});
    table.add_row({std::to_string(n), "svc-incr-warm",
                   TextTable::num(after.timings.allocation, 4),
                   TextTable::num(after.total_seconds, 3),
                   TextTable::num(100.0 * (1.0 - after.timings.allocation /
                                                     before.timings.allocation),
                                  1) +
                       "%",
                   std::to_string(after.conjunctions.size())});
    json.record("context_reuse_service", n, "incremental-cold",
                before.total_seconds, before.conjunctions.size(), "",
                "\"allocation_seconds\": " +
                    std::to_string(before.timings.allocation));
    json.record("context_reuse_service", n, "incremental-warm",
                after.total_seconds, after.conjunctions.size(), "",
                "\"allocation_seconds\": " +
                    std::to_string(after.timings.allocation));
  }

  table.print(std::cout);
  std::printf(
      "\n'alloc cut' is the warm screen's step-1 allocation reduction vs\n"
      "cold at the same n; reports are bit-compared every run. Cold pays\n"
      "page faults + zeroing for every grid and candidate slot, warm pays\n"
      "only the clears.\n");
  if (!identical) return 1;
  return 0;
}
