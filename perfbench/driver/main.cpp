// Screening benchmark driver. Runs one workload, timed with tracing off
// (--trace 0) or composed from layer calls with spans (--trace 1), checks
// the output against the committed reference, and prints one JSON record
// as its last line. perfbench/run.py builds it and turns the record into
// the benchmark's metrics.
//
//   scod_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--reference-dir DIR]
//   scod_perfbench --make-reference NAME [--reference-dir DIR]
//
// The pool has one thread per online CPU.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/screener.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "population/generator.hpp"
#include "util/cli.hpp"
#include "util/sysinfo.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::string make_reference;
  bool trace = false;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::size_t threads = 0;
  std::string reference_dir = "perfbench/reference";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "scod_perfbench: %s\n"
               "usage: scod_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reference-dir DIR]\n"
               "       scod_perfbench --make-reference NAME\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  const scod::CliArgs cli(argc, argv,
                          {"workload", "make-reference", "seed", "seconds", "trace",
                           "reference-dir"});
  if (!cli.unknown().empty()) usage("unknown argument " + cli.unknown().front());
  Args args;
  try {
    args.workload = cli.get_string("workload", args.workload);
    args.make_reference = cli.get_string("make-reference", args.make_reference);
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
    args.seconds = cli.get_double("seconds", args.seconds);
    args.reference_dir = cli.get_string("reference-dir", args.reference_dir);
  } catch (const std::logic_error&) {
    usage("bad numeric value");
  }
  const std::string trace = cli.get_string("trace", "0");
  if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
  args.trace = trace == "1";
  if (!(std::isfinite(args.seconds) && args.seconds > 0.0)) {
    usage("--seconds must be a positive number");
  }
  args.threads = std::max(1u, std::thread::hardware_concurrency());
  return args;
}

/// Why this build must not be timed, or empty when it may.
std::string untimeable_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (PERFBENCH_INSTRUMENTED) return "sanitizer or coverage instrumentation";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer instrumentation";
#endif
#ifndef __OPTIMIZE__
  return "an unoptimized build";
#endif
  if (type != "Release" && type != "RelWithDebInfo") return "build type '" + type + "'";
  return {};
}

JsonObject run_record(const Args& args) {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return JsonObject()
      .add("workload", args.workload)
      .add("seed", static_cast<double>(args.seed))
      .add("seconds", args.seconds)
      .add("trace", args.trace)
      .add("threads", static_cast<double>(args.threads))
      .add("nproc", static_cast<double>(online > 0 ? online : 0))
      .add("host", std::string(host))
      .add("cpu", scod::query_system_info().cpu_name)
      .add("compiler", std::string("gcc ") + __VERSION__)
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("telemetry_compiled", scod::obs::compiled())
      .add("population_seed", static_cast<double>(kPopulationSeed));
}

/// Writes a workload's reference list: the all-on-all sieve, which does not
/// use the grid front end, confirmed event for event by the grid variant.
/// For a workload with a known-defect list, writes that list instead: the
/// reference events its variant misses at the unshuffled catalog order.
int make_reference(const Workload& workload, const Args& args) {
  scod::ThreadPool pool(args.threads);
  const scod::ScreeningConfig config = make_config(workload, pool);
  const std::vector<scod::Satellite> satellites =
      scod::generate_population({workload.count, kPopulationSeed});
  const std::unique_ptr<scod::Propagator> propagator =
      make_propagator(workload, satellites);
  RunOptions options;
  options.reference_dir = args.reference_dir;

  if (!workload.known_misses.empty()) {
    const std::vector<scod::Conjunction> reference = load_reference(workload, options);
    const scod::ScreeningReport report =
        scod::make_screener(workload.variant)->screen(*propagator, config);
    const ReferenceDiff diff = diff_reference(reference, report.conjunctions);
    std::printf("%s: %zu reference events, %zu missed, %zu extra\n",
                workload.name.c_str(), reference.size(), diff.missed.size(),
                diff.extra.size());
    if (!diff.extra.empty()) {
      std::fprintf(stderr, "extra events are not a documented defect; not written\n");
      return 1;
    }
    save_conjunctions(args.reference_dir + "/" + workload.known_misses, diff.missed);
    return 0;
  }

  const scod::ScreeningReport sieve =
      scod::make_screener(scod::Variant::kSieve)->screen(*propagator, config);
  // The grid variant at the workload's s_ps (for the service, the grid
  // options its passes pin).
  const scod::ScreeningReport grid =
      scod::make_screener(scod::Variant::kGrid, nullptr,
                          scod::pipeline_options(pipeline_options(workload)))
          ->screen(*propagator, config);
  const ReferenceDiff diff = diff_reference(sieve.conjunctions, grid.conjunctions);
  std::printf("%s: sieve %zu events (%.1f s), grid %zu events (%.1f s), "
              "%zu sieve events missed by grid, %zu grid events not in sieve\n",
              workload.name.c_str(), sieve.conjunctions.size(), sieve.timings.total(),
              grid.conjunctions.size(), grid.timings.total(), diff.missed.size(),
              diff.extra.size());
  if (diff.failed() != 0) {
    std::fprintf(stderr, "sieve and grid disagree; reference not written\n");
    return 1;
  }
  save_conjunctions(args.reference_dir + "/" + workload.reference, sieve.conjunctions);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string name = args.make_reference.empty() ? args.workload : args.make_reference;
  const Workload* workload = find_workload(name);
  if (workload == nullptr) usage("unknown workload '" + name + "'");

  try {
    if (!args.make_reference.empty()) return make_reference(*workload, args);

    const std::string refusal = untimeable_build();
    if (!refusal.empty()) {
      std::fprintf(stderr, "scod_perfbench: refusing to time %s\n", refusal.c_str());
      return 2;
    }
    RunOptions options;
    options.seed = args.seed;
    options.seconds = args.seconds;
    options.threads = args.threads;
    options.reference_dir = args.reference_dir;
    const RunResult result =
        args.trace ? run_traced(*workload, options) : run_untraced(*workload, options);

    JsonObject out;
    out.add("record", run_record(args))
        .add("correct", result.correct)
        .add("failure", result.failure)
        .add("attempted", static_cast<double>(result.attempted))
        .add("missed", static_cast<double>(result.missed))
        .add("extra", static_cast<double>(result.extra))
        .add("known_misses", static_cast<double>(result.known_misses))
        .add("op_s", result.op_s)
        .add("setup_s", result.setup_s)
        .add("epoch_s", result.epoch_s)
        .add("peak_rss_mb", result.peak_rss_mb)
        .add("layers", result.layers)
        .add("facts", result.facts)
        .add_raw("spans", result.spans);
    std::printf("%s\n", out.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scod_perfbench: %s\n", e.what());
    return 3;
  }
}
