// The traced run: the screening pipeline composed from each layer's public
// call, one span around each, with obs counters enabled. The composition
// must reproduce the program's own screen() before its numbers count.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "filters/apogee_perigee.hpp"
#include "filters/coplanarity.hpp"
#include "filters/orbit_path.hpp"
#include "filters/time_windows.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "propagation/two_body.hpp"
#include "trace.hpp"
#include "util/stopwatch.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using scod::obs::Counter;

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double count_of(const scod::obs::TelemetrySnapshot& snap, Counter c) {
  return static_cast<double>(snap.value(c));
}

/// Enough epochs for a p75 tail with ten epochs beyond it.
constexpr std::size_t kTracedMinEpochs = 40;

/// One Brent search: grid-style around a sample time, or on an interval the
/// filters built (the hybrid screener's two task kinds).
struct RefineTask {
  std::uint32_t sat_a = 0;
  std::uint32_t sat_b = 0;
  bool grid_style = true;
  double center = 0.0;
  double t_lo = 0.0;
  double t_hi = 0.0;
};

struct FilterOutcome {
  std::vector<RefineTask> tasks;
  std::size_t pairs_in = 0;
  std::size_t survivors = 0;
};

std::vector<RefineTask> grid_tasks(const scod::GridPipelineResult& pipeline,
                                   const scod::ScreeningConfig& config) {
  std::vector<RefineTask> tasks;
  tasks.reserve(pipeline.candidates.size());
  for (const scod::Candidate& c : pipeline.candidates) {
    tasks.push_back({c.sat_a, c.sat_b, true,
                     pipeline.sample_time(c.step, config.t_begin, config.t_end)});
  }
  return tasks;
}

/// The hybrid variant's step 3 from the src/filters calls: apogee/perigee,
/// coplanarity + orbit path, node miss, node time windows, over the distinct
/// candidate pairs.
FilterOutcome run_filters(const scod::Propagator& propagator,
                          const scod::GridPipelineResult& pipeline,
                          const scod::ScreeningConfig& config) {
  std::vector<scod::Candidate> candidates = pipeline.candidates;
  std::sort(candidates.begin(), candidates.end(),
            [](const scod::Candidate& x, const scod::Candidate& y) {
              if (x.sat_a != y.sat_a) return x.sat_a < y.sat_a;
              if (x.sat_b != y.sat_b) return x.sat_b < y.sat_b;
              return x.step < y.step;
            });
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t i = 0; i < candidates.size();) {
    std::size_t j = i + 1;
    while (j < candidates.size() && candidates[j].sat_a == candidates[i].sat_a &&
           candidates[j].sat_b == candidates[i].sat_b) {
      ++j;
    }
    ranges.emplace_back(i, j);
    i = j;
  }

  enum class Verdict : std::uint8_t { kRejected, kCoplanar, kWindows };
  std::vector<Verdict> verdicts(ranges.size(), Verdict::kRejected);
  std::vector<std::vector<scod::Interval>> windows(ranges.size());
  config.pool->parallel_for(ranges.size(), [&](std::size_t pi) {
    const scod::Candidate& c = candidates[ranges[pi].first];
    const scod::KeplerElements& ea = propagator.elements(c.sat_a);
    const scod::KeplerElements& eb = propagator.elements(c.sat_b);
    const double reach = config.threshold_km + config.filter_pad_km;
    if (!scod::apogee_perigee_overlap(ea, eb, reach)) return;
    if (scod::are_coplanar(ea, eb, config.coplanar_tolerance)) {
      if (scod::orbit_path_overlap(ea, eb, config.threshold_km, config.filter_pad_km)) {
        verdicts[pi] = Verdict::kCoplanar;
      }
      return;
    }
    const auto crossings = scod::node_crossings(ea, eb);
    if (crossings[0].miss_distance > reach && crossings[1].miss_distance > reach) return;
    windows[pi] = scod::conjunction_time_windows(ea, eb, config.t_begin, config.t_end,
                                                 config.threshold_km, config.time_windows);
    if (!windows[pi].empty()) verdicts[pi] = Verdict::kWindows;
  });

  FilterOutcome out;
  out.pairs_in = ranges.size();
  for (std::size_t pi = 0; pi < ranges.size(); ++pi) {
    if (verdicts[pi] == Verdict::kRejected) continue;
    ++out.survivors;
    const auto [begin, end] = ranges[pi];
    const std::uint32_t a = candidates[begin].sat_a;
    const std::uint32_t b = candidates[begin].sat_b;
    if (verdicts[pi] == Verdict::kCoplanar) {
      for (std::size_t k = begin; k < end; ++k) {
        out.tasks.push_back({a, b, true,
                             pipeline.sample_time(candidates[k].step, config.t_begin,
                                                  config.t_end)});
      }
      continue;
    }
    // Refine each window a candidate sample can reach at a 1 km/s lower
    // speed bound, widened so a minimum grazing its edge stays inside.
    const std::vector<scod::Interval>& w = windows[pi];
    std::vector<std::uint8_t> used(w.size(), 0);
    const double reach_time = 2.0 * pipeline.cell_size / 1.0;
    for (std::size_t k = begin; k < end; ++k) {
      const double t_s =
          pipeline.sample_time(candidates[k].step, config.t_begin, config.t_end);
      for (std::size_t i = 0; i < w.size(); ++i) {
        if (w[i].lo <= t_s + reach_time && w[i].hi >= t_s - reach_time) used[i] = 1;
      }
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (!used[i]) continue;
      const double ext = 0.25 * w[i].length() + 5.0;
      out.tasks.push_back({a, b, false, 0.0, w[i].lo - ext, w[i].hi + ext});
    }
  }
  return out;
}

struct RefineOutcome {
  std::vector<scod::Conjunction> raw;
  std::uint64_t distance_evals = 0;
};

/// Step 4 from the pca calls: one Brent search per task, with the distance
/// functor wrapped to count its evaluations.
RefineOutcome run_refine(const scod::Propagator& propagator,
                         const scod::GridPipelineResult& pipeline,
                         const scod::ScreeningConfig& config,
                         const std::vector<RefineTask>& tasks, bool clamp_to_span) {
  std::vector<scod::Conjunction> slots(tasks.size());
  std::vector<std::uint8_t> valid(tasks.size(), 0);
  std::atomic<std::uint64_t> evals{0};
  const scod::RefineFastPath fast = scod::RefineFastPath::probe(propagator);

  config.pool->parallel_for(tasks.size(), [&](std::size_t i) {
    const RefineTask& task = tasks[i];
    std::uint64_t local_evals = 0;
    std::optional<scod::Encounter> encounter;
    const auto refine = [&](auto&& distance, double slower_speed) {
      const auto counted = [&](double t) {
        ++local_evals;
        return distance(t);
      };
      if (task.grid_style) {
        const double radius = scod::grid_search_radius(pipeline.cell_size, slower_speed);
        return scod::refine_candidate_fn(counted, task.center, radius, config.t_begin,
                                         config.t_end, config.refine);
      }
      return scod::refine_on_interval_fn(counted, task.t_lo, task.t_hi, config.refine);
    };
    if (fast.available()) {
      const scod::PairStateEvaluator eval = fast.pair(task.sat_a, task.sat_b);
      const double slower =
          task.grid_style ? std::min(eval.speed_a(task.center), eval.speed_b(task.center))
                          : 0.0;
      encounter = refine([&eval](double t) { return eval.distance(t); }, slower);
    } else {
      double slower = 0.0;
      if (task.grid_style) {
        slower = std::min(propagator.state(task.sat_a, task.center).velocity.norm(),
                          propagator.state(task.sat_b, task.center).velocity.norm());
      }
      encounter = refine(
          [&](double t) { return propagator.distance(task.sat_a, task.sat_b, t); },
          slower);
    }
    evals.fetch_add(local_evals, std::memory_order_relaxed);
    if (encounter && encounter->pca <= config.threshold_km &&
        (!clamp_to_span ||
         (encounter->tca >= config.t_begin && encounter->tca <= config.t_end))) {
      slots[i] = {task.sat_a, task.sat_b, encounter->tca, encounter->pca};
      valid[i] = 1;
    }
  });

  RefineOutcome out;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (valid[i]) out.raw.push_back(slots[i]);
  }
  out.distance_evals = evals.load();
  return out;
}

/// A full screen composed from layer calls, inside one "screen" span; the
/// same steps, in the same order, as the variant's screen(propagator).
struct Composed {
  std::vector<scod::Conjunction> conjunctions;
  scod::GridPipelineResult pipeline;
  std::size_t refinements = 0;
  std::size_t raw = 0;
  std::uint64_t distance_evals = 0;
  std::size_t filter_pairs_in = 0;
  std::size_t filter_survivors = 0;
  bool filtered = false;
};

Composed compose_screen(Trace& trace, scod::Variant variant,
                        const scod::Propagator& propagator,
                        const scod::ScreeningConfig& config,
                        const scod::GridPipelineOptions& options) {
  Composed out;
  Trace::Scope root(trace, "screen");
  {
    Trace::Scope span(trace, "core.pipeline");
    out.pipeline = scod::run_grid_pipeline(propagator, config, options);
  }
  std::vector<RefineTask> tasks;
  if (variant == scod::Variant::kHybrid) {
    Trace::Scope span(trace, "filters");
    FilterOutcome filtered = run_filters(propagator, out.pipeline, config);
    tasks = std::move(filtered.tasks);
    out.filter_pairs_in = filtered.pairs_in;
    out.filter_survivors = filtered.survivors;
    out.filtered = true;
  } else {
    tasks = grid_tasks(out.pipeline, config);
  }
  RefineOutcome refined;
  {
    Trace::Scope span(trace, "pca.refine");
    refined = run_refine(propagator, out.pipeline, config, tasks, out.filtered);
  }
  out.refinements = tasks.size();
  out.raw = refined.raw.size();
  out.distance_evals = refined.distance_evals;
  {
    Trace::Scope span(trace, "core.merge");
    out.conjunctions = scod::merge_conjunctions(std::move(refined.raw),
                                                config.effective_merge_tolerance());
  }
  return out;
}

/// Unit costs of the propagation layer over the screen's own sample grid
/// and candidate times, outside the composed screen.
void measure_propagation(Trace& trace, JsonObject& layers,
                         const scod::Propagator& propagator,
                         const scod::GridPipelineResult& pipeline,
                         const scod::ScreeningConfig& config) {
  const std::size_t n = propagator.size();
  const std::size_t steps = pipeline.plan.total_samples;
  const auto* kepler = dynamic_cast<const scod::TwoBodyPropagator*>(&propagator);
  std::atomic<std::uint64_t> sink{0};
  // One output buffer per worker, allocated and touched before the span so
  // that it times only the propagation calls.
  std::vector<std::vector<scod::Vec3>> buffers(
      config.pool->thread_count(), std::vector<scod::Vec3>(kepler != nullptr ? n : 0));
  {
    Trace::Scope span(trace, "propagation.samples");
    std::atomic<std::size_t> next{0};
    config.pool->run_on_all([&](std::size_t worker) {
      std::vector<scod::Vec3>& out = buffers[worker];
      for (;;) {
        const std::size_t step = next.fetch_add(1, std::memory_order_relaxed);
        if (step >= steps) break;
        const double t = pipeline.sample_time(step, config.t_begin, config.t_end);
        double acc = 0.0;
        if (kepler != nullptr) {
          kepler->positions_at(t, 0, n, out.data());
          for (const scod::Vec3& p : out) acc += p.x;
        } else {
          for (std::size_t i = 0; i < n; ++i) acc += propagator.position(i, t).x;
        }
        sink.fetch_add(static_cast<std::uint64_t>(acc != 0.0), std::memory_order_relaxed);
      }
    });
  }
  const std::vector<scod::Candidate>& candidates = pipeline.candidates;
  {
    Trace::Scope span(trace, "propagation.pair_evals");
    config.pool->parallel_for_ranges(candidates.size(), [&](std::size_t begin,
                                                            std::size_t end) {
      double acc = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const scod::Candidate& c = candidates[i];
        acc += propagator.distance(
            c.sat_a, c.sat_b, pipeline.sample_time(c.step, config.t_begin, config.t_end));
      }
      sink.fetch_add(static_cast<std::uint64_t>(acc >= 0.0), std::memory_order_relaxed);
    });
  }
  layers.add("propagation.ns_per_sample",
             ratio(trace.wall("propagation.samples") * 1e9,
                   static_cast<double>(n * steps)))
      .add("propagation.ns_per_pair_eval",
           ratio(trace.wall("propagation.pair_evals") * 1e9,
                 static_cast<double>(candidates.size())))
      .add("propagation.cpu_util", trace.cpu_util("propagation.samples"));
}

/// Per-layer values of a composed screen and the obs counters it left.
void add_screen_layers(JsonObject& layers, const Trace& trace, const Composed& c,
                       const scod::obs::TelemetrySnapshot& snap, double untraced_s) {
  const double samples = count_of(snap, Counter::kSamplesPropagated);
  const double cells = count_of(snap, Counter::kCellsScanned);
  const double tested = count_of(snap, Counter::kPairsTested);
  const double inserts = count_of(snap, Counter::kGridInserts);
  const double candidates = static_cast<double>(c.pipeline.total_candidates);
  const double refinements = static_cast<double>(c.refinements);
  const scod::GridPipelineResult& p = c.pipeline;

  layers.add("propagation.build_s", trace.wall("propagation.build"))
      .add("core.pipeline_s", trace.wall("core.pipeline"))
      .add("core.alloc_s", p.allocation_seconds)
      .add("core.ins_s", p.insertion_seconds)
      .add("core.cd_s", p.detection_seconds)
      .add("core.ins_ns_per_sample", ratio(p.insertion_seconds * 1e9, samples))
      .add("core.cd_ns_per_cell", ratio(p.detection_seconds * 1e9, cells))
      .add("core.cd_ns_per_pair", ratio(p.detection_seconds * 1e9, tested))
      .add("core.pairs_tested", tested)
      .add("core.candidates", candidates)
      .add("core.candidate_yield", ratio(candidates, tested))
      .add("core.dedup_share", ratio(count_of(snap, Counter::kCandidatesDeduplicated),
                                     count_of(snap, Counter::kCandidatesEmitted)))
      .add("core.merge_s", trace.wall("core.merge"))
      .add("core.cpu_util", trace.cpu_util("core.pipeline"))
      .add("spatial.inserts", inserts)
      .add("spatial.probe_steps_per_insert",
           ratio(count_of(snap, Counter::kGridProbeSteps), inserts))
      .add("spatial.cells_scanned", cells)
      .add("spatial.occupancy", snap.occupancy())
      .add("spatial.cas_retries", count_of(snap, Counter::kGridCasRetries))
      .add("filters.s", c.filtered ? trace.wall("filters") : 0.0)
      .add("filters.pairs_in", static_cast<double>(c.filter_pairs_in))
      .add("filters.ns_per_pair",
           c.filtered ? ratio(trace.wall("filters") * 1e9,
                              static_cast<double>(c.filter_pairs_in))
                      : 0.0)
      .add("filters.survivor_ratio", ratio(static_cast<double>(c.filter_survivors),
                                           static_cast<double>(c.filter_pairs_in)))
      .add("filters.cpu_util", c.filtered ? trace.cpu_util("filters") : 0.0)
      .add("pca.refine_s", trace.wall("pca.refine"))
      .add("pca.refinements", refinements)
      .add("pca.brent_iterations", count_of(snap, Counter::kBrentIterations))
      .add("pca.distance_evals", static_cast<double>(c.distance_evals))
      .add("pca.ns_per_refinement", ratio(trace.wall("pca.refine") * 1e9, refinements))
      .add("pca.yield", ratio(static_cast<double>(c.raw), refinements))
      .add("pca.cpu_util", trace.cpu_util("pca.refine"))
      .add("screen.cpu_util", trace.cpu_util("screen"))
      .add("trace_overhead", ratio(trace.wall("screen"), untraced_s) - 1.0)
      // The layer spans are leaves, so the root's self time is the traced
      // wall time no layer span covers.
      .add("trace.uncovered_s", trace.self("screen"));
}

void add_idle_service_layers(JsonObject& layers) {
  for (const char* name :
       {"service.upsert_s", "service.epoch_ins_s", "service.epoch_cd_s",
        "service.epoch_refine_s", "service.merge_s", "service.dirty", "service.carried",
        "service.evicted", "service.arena_bytes", "service.arena_reuses",
        "service.cpu_util"}) {
    layers.add(name, 0.0);
  }
}

void require_identical(const std::vector<scod::Conjunction>& composed,
                       const std::vector<scod::Conjunction>& program, bool exact,
                       const std::string& what) {
  const ReferenceDiff diff =
      exact ? diff_exact(program, composed) : diff_reference(program, composed);
  if (diff.failed() != 0) {
    throw std::runtime_error(
        "traced composition does not reproduce " + what + ": " +
        std::to_string(diff.missed.size()) + " missing, " +
        std::to_string(diff.extra.size()) + " extra of " +
        std::to_string(program.size()));
  }
}

RunResult traced_screen(const Workload& workload, const RunOptions& options) {
  scod::ThreadPool pool(options.threads);
  const scod::ScreeningConfig config = make_config(workload, pool);
  const scod::GridPipelineOptions pipeline = pipeline_options(workload);
  Trace trace(options.threads);
  RunResult result;

  std::vector<scod::Satellite> satellites;
  {
    Trace::Scope span(trace, "population");
    satellites = make_population(workload, options.seed);
  }
  std::unique_ptr<scod::Propagator> propagator;
  {
    Trace::Scope span(trace, "propagation.build");
    propagator = make_propagator(workload, satellites);
  }

  // The program's own screen, untraced: the output the composition must
  // reproduce. A second one, past the process's cold start like the
  // composition, is the time the tracing overhead is measured against.
  const std::unique_ptr<scod::Screener> screener = scod::make_screener(workload.variant);
  const scod::ScreeningReport program = screener->screen(*propagator, config);
  const scod::Stopwatch watch;
  screener->screen(*propagator, config);
  const double untraced_s = watch.seconds();

  scod::obs::reset();
  scod::obs::set_enabled(true);
  const Composed composed =
      compose_screen(trace, workload.variant, *propagator, config, pipeline);
  scod::obs::set_enabled(false);
  const scod::obs::TelemetrySnapshot snap = scod::obs::snapshot();

  // Grid must match bit for bit; the hybrid chain within fuzzer tolerances.
  require_identical(composed.conjunctions, program.conjunctions,
                    workload.variant == scod::Variant::kGrid, "screen()");
  result.add_check(diff_reference(load_reference(workload, options),
                                  to_catalog_ids(program.conjunctions, satellites)),
                   load_known_misses(workload, options), "screen vs reference");

  measure_propagation(trace, result.layers, *propagator, composed.pipeline, config);
  result.layers.add("population.generate_s", trace.wall("population"))
      .add("population.cpu_util", trace.cpu_util("population"));
  add_screen_layers(result.layers, trace, composed, snap, untraced_s);
  add_idle_service_layers(result.layers);
  result.facts.add("untraced_screen_s", untraced_s)
      .add("conjunctions", static_cast<double>(program.conjunctions.size()));
  result.spans = trace.to_json();
  return result;
}

RunResult traced_service(const Workload& workload, const RunOptions& options) {
  scod::ThreadPool pool(options.threads);
  Trace trace(options.threads);
  RunResult result;

  std::vector<scod::Satellite> satellites;
  {
    Trace::Scope span(trace, "population");
    satellites = make_population(workload, options.seed);
  }
  scod::ScreeningService service(service_options(workload, pool));
  scod::ServiceReport initial;
  {
    Trace::Scope span(trace, "service.setup");
    service.upsert(satellites);
    initial = service.screen(scod::ScreenMode::kFull);
  }
  result.add_check(diff_reference(load_reference(workload, options),
                                  from_ids(initial.conjunctions)),
                   {}, "initial full screen vs reference");

  scod::obs::reset();
  scod::obs::set_enabled(true);
  scod::Rng rng(options.seed);
  scod::ServiceReport last;
  std::vector<double> upsert_s, ins_s, cd_s, refine_s, merge_s, dirty, carried, evicted;
  {
    Trace::Scope epochs(trace, "service.epochs");
    const scod::Stopwatch loop;
    while (result.epoch_s.size() < kTracedMinEpochs ||
           another_operation(result.epoch_s, loop.seconds(), options.seconds)) {
      const std::vector<scod::Satellite> delta =
          epoch_delta(*service.store().snapshot(), workload.dirty_per_epoch, rng);
      {
        Trace::Scope epoch(trace, "service.epoch");
        {
          Trace::Scope span(trace, "service.upsert");
          service.upsert(delta);
        }
        Trace::Scope span(trace, "service.screen");
        last = service.screen(scod::ScreenMode::kIncremental);
      }
      result.epoch_s.push_back(trace.wall("service.epoch"));
      upsert_s.push_back(trace.wall("service.upsert"));
      ins_s.push_back(last.timings.insertion);
      cd_s.push_back(last.timings.detection);
      refine_s.push_back(last.timings.refinement);
      merge_s.push_back(last.merge_seconds);
      dirty.push_back(static_cast<double>(last.dirty));
      carried.push_back(static_cast<double>(last.carried));
      evicted.push_back(static_cast<double>(last.evicted));
    }
  }
  scod::obs::set_enabled(false);

  // The program's from-scratch reference of the final snapshot, untraced.
  const scod::Stopwatch watch;
  const std::vector<scod::Conjunction> reference = from_ids(service.reference_conjunctions());
  const double untraced_s = watch.seconds();
  result.add_check(diff_exact(reference, from_ids(last.conjunctions)), {},
                   "final merged report vs reference_conjunctions()");

  // The same full screen composed from layer calls, traced.
  const std::shared_ptr<const scod::CatalogSnapshot> snap = service.store().snapshot();
  std::unique_ptr<scod::Propagator> propagator;
  {
    Trace::Scope span(trace, "propagation.build");
    propagator = make_propagator(workload, snap->satellites);
  }
  scod::obs::reset();
  scod::obs::set_enabled(true);
  const Composed composed = compose_screen(trace, scod::Variant::kGrid, *propagator,
                                           service.options().config,
                                           service.options().pipeline);
  scod::obs::set_enabled(false);
  const scod::obs::TelemetrySnapshot counters = scod::obs::snapshot();
  require_identical(to_catalog_ids(composed.conjunctions, snap->satellites), reference,
                    true, "reference_conjunctions()");

  measure_propagation(trace, result.layers, *propagator, composed.pipeline,
                      service.options().config);
  const scod::ScratchArena& arena = service.context().arena();
  result.layers.add("population.generate_s", trace.wall("population"))
      .add("population.cpu_util", trace.cpu_util("population"));
  add_screen_layers(result.layers, trace, composed, counters, untraced_s);
  result.layers.add("service.upsert_s", scod::median(upsert_s))
      .add("service.epoch_ins_s", scod::median(ins_s))
      .add("service.epoch_cd_s", scod::median(cd_s))
      .add("service.epoch_refine_s", scod::median(refine_s))
      .add("service.merge_s", scod::median(merge_s))
      .add("service.dirty", scod::median(dirty))
      .add("service.carried", scod::median(carried))
      .add("service.evicted", scod::median(evicted))
      .add("service.arena_bytes", static_cast<double>(arena.memory_bytes()))
      .add("service.arena_reuses",
           static_cast<double>(arena.stats().grid_reuses + arena.stats().candidate_reuses))
      .add("service.cpu_util", trace.cpu_util("service.epochs"));
  result.facts.add("untraced_reference_s", untraced_s)
      .add("epochs", static_cast<double>(result.epoch_s.size()))
      .add("final_conjunctions", static_cast<double>(last.conjunctions.size()));
  result.spans = trace.to_json();
  return result;
}

}  // namespace

RunResult run_traced(const Workload& workload, const RunOptions& options) {
  if (!scod::obs::compiled()) {
    throw std::runtime_error(
        "the traced run needs the obs counters, which this build compiled out "
        "(SCOD_TELEMETRY_ENABLED=0)");
  }
  RunResult result = workload.service ? traced_service(workload, options)
                                      : traced_screen(workload, options);
  result.peak_rss_mb = peak_rss_mib();
  return result;
}

}  // namespace perfbench
