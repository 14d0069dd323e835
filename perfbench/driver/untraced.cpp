// End-to-end runs: the public entry points timed with tracing off.

#include <optional>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// A screen workload's set-up takes milliseconds and runs on one thread, at
/// whatever speed the host gives one core at that moment; on a shared host
/// that speed flips between states about 1.6x apart every few seconds.
/// Before every screen, one batch of set-ups runs for at least this long and
/// is timed as a whole, so each batch averages over those states.
constexpr double kSetupBatchSeconds = 0.5;
constexpr int kMinBatchSetups = 21;
/// Service set-up includes the first full screen.
constexpr int kServiceSetups = 3;

RunResult run_screen(const Workload& workload, const RunOptions& options) {
  scod::ThreadPool pool(options.threads);
  const scod::ScreeningConfig config = make_config(workload, pool);

  RunResult result;
  std::vector<scod::Satellite> satellites;
  std::unique_ptr<scod::Propagator> propagator;
  std::unique_ptr<scod::Screener> screener;
  std::optional<std::vector<scod::Conjunction>> first;
  const scod::Stopwatch loop;
  while (another_operation(result.op_s, loop.seconds(), options.seconds)) {
    const scod::Stopwatch batch;
    int setups = 0;
    while (setups < kMinBatchSetups || batch.seconds() < kSetupBatchSeconds) {
      propagator.reset();
      satellites = make_population(workload, options.seed);
      propagator = make_propagator(workload, satellites);
      screener = scod::make_screener(workload.variant);
      ++setups;
    }
    result.setup_s.push_back(batch.seconds() / setups);
    // Every screen sees freshly built, identical inputs, so its output must
    // match the first screen's bit for bit.
    const scod::Stopwatch watch;
    scod::ScreeningReport report = screener->screen(*propagator, config);
    result.op_s.push_back(watch.seconds());
    if (!first) {
      first = std::move(report.conjunctions);
    } else if (diff_exact(*first, report.conjunctions).failed() != 0) {
      result.correct = false;
      result.failure = "repeated screens of one input differ";
    }
  }

  result.add_check(diff_reference(load_reference(workload, options),
                                  to_catalog_ids(*first, satellites)),
                   load_known_misses(workload, options), "screen vs reference");
  result.facts.add("screens", static_cast<double>(result.op_s.size()))
      .add("conjunctions", static_cast<double>(first->size()));
  return result;
}

RunResult run_service(const Workload& workload, const RunOptions& options) {
  scod::ThreadPool pool(options.threads);

  RunResult result;
  std::unique_ptr<scod::ScreeningService> service;
  scod::ServiceReport initial;
  for (int i = 0; i < kServiceSetups; ++i) {
    service.reset();
    const scod::Stopwatch watch;
    const std::vector<scod::Satellite> satellites =
        make_population(workload, options.seed);
    service = std::make_unique<scod::ScreeningService>(service_options(workload, pool));
    service->upsert(satellites);
    initial = service->screen(scod::ScreenMode::kFull);
    result.setup_s.push_back(watch.seconds());
  }
  result.add_check(diff_reference(load_reference(workload, options),
                                  from_ids(initial.conjunctions)),
                   {}, "initial full screen vs reference");

  // Closed loop, one driver: the next epoch's delta is sent only after the
  // previous screen returned. Building the delta is the client's work and
  // stays outside the timed region.
  scod::Rng rng(options.seed);
  scod::ServiceReport last;
  std::size_t not_incremental = 0;
  const scod::Stopwatch loop;
  while (another_operation(result.op_s, loop.seconds(), options.seconds)) {
    const std::vector<scod::Satellite> delta =
        epoch_delta(*service->store().snapshot(), workload.dirty_per_epoch, rng);
    const scod::Stopwatch watch;
    service->upsert(delta);
    last = service->screen(scod::ScreenMode::kIncremental);
    result.op_s.push_back(watch.seconds());
    if (!last.incremental) ++not_incremental;
  }
  if (not_incremental != 0) {
    result.correct = false;
    result.failure = std::to_string(not_incremental) + " epochs were not incremental";
  }

  result.add_check(diff_exact(from_ids(service->reference_conjunctions()),
                              from_ids(last.conjunctions)),
                   {}, "final merged report vs reference_conjunctions()");
  result.facts.add("epochs", static_cast<double>(result.op_s.size()))
      .add("initial_conjunctions", static_cast<double>(initial.conjunctions.size()))
      .add("final_conjunctions", static_cast<double>(last.conjunctions.size()));
  return result;
}

}  // namespace

RunResult run_untraced(const Workload& workload, const RunOptions& options) {
  scod::obs::set_enabled(false);
  RunResult result =
      workload.service ? run_service(workload, options) : run_screen(workload, options);
  result.peak_rss_mb = peak_rss_mib();
  return result;
}

}  // namespace perfbench
