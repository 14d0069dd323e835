#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "core/grid_screener.hpp"
#include "core/hybrid_screener.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/j2_secular.hpp"
#include "propagation/two_body.hpp"
#include "util/stats.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w;
    {
      Workload g;
      g.name = "grid-kepler-32k";
      g.variant = scod::Variant::kGrid;
      g.count = 32000;
      g.span_s = 3600.0;
      g.threshold_km = 2.0;
      g.reference = "kepler-32k-2km-3600s.csv";
      w.push_back(g);
    }
    {
      Workload g;
      g.name = "grid-j2-16k";
      g.variant = scod::Variant::kGrid;
      g.propagator = PropagatorKind::kJ2;
      g.count = 16000;
      g.span_s = 3600.0;
      g.threshold_km = 10.0;
      g.seconds_per_sample = 16.0;
      g.reference = "j2-16k-10km-3600s.csv";
      w.push_back(g);
    }
    {
      Workload h;
      h.name = "hybrid-kepler-32k";
      h.variant = scod::Variant::kHybrid;
      h.count = 32000;
      h.span_s = 3600.0;
      h.threshold_km = 2.0;
      h.reference = "kepler-32k-2km-3600s.csv";
      h.known_misses = "hybrid-kepler-32k-known-misses.csv";
      h.shuffle = false;
      w.push_back(h);
    }
    {
      Workload s;
      s.name = "service-32k-1pct";
      s.service = true;
      s.count = 32000;
      s.span_s = 900.0;
      s.threshold_km = 10.0;
      s.seconds_per_sample = 16.0;
      s.dirty_per_epoch = 320;
      s.reference = "kepler-32k-10km-900s.csv";
      w.push_back(s);
    }
    return w;
  }();
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void RunResult::add_check(const ReferenceDiff& diff,
                          const std::vector<scod::Conjunction>& known,
                          const std::string& what) {
  attempted += diff.reference;
  missed += diff.missed.size();
  extra += diff.extra.size();
  if (diff.failed() == 0) return;
  if (!known.empty() && only_known_misses(diff, known)) {
    known_misses += diff.missed.size();
    return;
  }
  correct = false;
  if (!failure.empty()) failure += "; ";
  failure += what + ": " + std::to_string(diff.missed.size()) + " missed, " +
             std::to_string(diff.extra.size()) + " extra";
  // Name the first few events so a failing run can be reproduced.
  const auto describe = [&](const char* kind, const std::vector<scod::Conjunction>& events) {
    for (std::size_t i = 0; i < events.size() && i < 5; ++i) {
      char text[128];
      std::snprintf(text, sizeof text, " [%s %u-%u tca %.3f pca %.4f]", kind,
                    events[i].sat_a, events[i].sat_b, events[i].tca, events[i].pca);
      failure += text;
    }
  };
  describe("missed", diff.missed);
  describe("extra", diff.extra);
}

std::vector<scod::Satellite> make_population(const Workload& workload,
                                             std::uint64_t seed) {
  std::vector<scod::Satellite> satellites =
      scod::generate_population({workload.count, kPopulationSeed});
  if (!workload.shuffle) return satellites;
  // Fisher-Yates with the run's seed: the catalog order is the run's input.
  scod::Rng rng(seed);
  for (std::size_t i = satellites.size(); i > 1; --i) {
    std::swap(satellites[i - 1], satellites[rng.next() % i]);
  }
  return satellites;
}

scod::ScreeningConfig make_config(const Workload& workload, scod::ThreadPool& pool) {
  scod::ScreeningConfig config;
  config.threshold_km = workload.threshold_km;
  config.t_begin = 0.0;
  config.t_end = workload.span_s;
  config.seconds_per_sample = workload.seconds_per_sample;
  config.pool = &pool;
  return config;
}

scod::GridPipelineOptions pipeline_options(const Workload& workload) {
  scod::GridPipelineOptions options = workload.variant == scod::Variant::kHybrid
                                          ? scod::HybridScreener::default_options()
                                          : scod::GridScreener::default_options();
  if (workload.seconds_per_sample > 0.0) {
    options.seconds_per_sample = workload.seconds_per_sample;
  }
  return options;
}

const scod::KeplerSolver& kepler_solver() {
  static const scod::ContourKeplerSolver solver;
  return solver;
}

std::unique_ptr<scod::Propagator> make_propagator(
    const Workload& workload, std::span<const scod::Satellite> satellites) {
  if (workload.propagator == PropagatorKind::kJ2) {
    return std::make_unique<scod::J2SecularPropagator>(satellites, kepler_solver());
  }
  return std::make_unique<scod::TwoBodyPropagator>(satellites, kepler_solver());
}

scod::ServiceOptions service_options(const Workload& workload, scod::ThreadPool& pool) {
  scod::ServiceOptions options;
  options.config = make_config(workload, pool);
  return options;
}

std::vector<scod::Satellite> epoch_delta(const scod::CatalogSnapshot& snapshot,
                                         std::size_t count, scod::Rng& rng) {
  const std::size_t n = snapshot.size();
  const std::size_t step = std::max<std::size_t>(1, n / count);
  const std::size_t offset = rng.next() % n;
  std::vector<scod::Satellite> delta;
  delta.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    scod::Satellite sat = snapshot.satellites[(offset + i * step) % n];
    sat.elements.mean_anomaly += rng.uniform(-0.05, 0.05);
    sat.elements.arg_perigee += rng.uniform(-0.02, 0.02);
    delta.push_back(sat);
  }
  return delta;
}

std::vector<scod::Conjunction> from_ids(const std::vector<scod::IdConjunction>& events) {
  std::vector<scod::Conjunction> out;
  out.reserve(events.size());
  for (const scod::IdConjunction& e : events) {
    out.push_back({e.id_a, e.id_b, e.tca, e.pca});
  }
  return out;
}

std::vector<scod::Conjunction> load_reference(const Workload& workload,
                                              const RunOptions& options) {
  return load_conjunctions(options.reference_dir + "/" + workload.reference);
}

std::vector<scod::Conjunction> load_known_misses(const Workload& workload,
                                                 const RunOptions& options) {
  if (workload.known_misses.empty()) return {};
  return load_conjunctions(options.reference_dir + "/" + workload.known_misses);
}

bool another_operation(const std::vector<double>& op_s, double elapsed,
                       double seconds) {
  // The first operation in a process pays cold costs (fresh pages for the
  // grids, idle cores) that vary a lot from run to run; with three, the
  // median is a warm one.
  constexpr std::size_t kMinOperations = 3;
  if (op_s.size() < kMinOperations) return true;
  return elapsed + scod::median(op_s) <= seconds;
}

}  // namespace perfbench
