/// Fig. 10 (a/b/c): runtime of the CPU conjunction-detection variants —
/// grid, hybrid, legacy — over growing satellite populations. The paper's
/// GPU series (RTX 3090) is not reproduced.
///
/// Size presets mirror the paper's three panels, scaled to laptop budgets:
///   --sizes small   -> 1000,2000,4000        (Fig. 10a regime, with legacy)
///   --sizes medium  -> 8000,16000            (Fig. 10b regime)
///   --sizes large   -> 32000,64000           (Fig. 10c regime, no legacy)
/// or any explicit list, e.g. --sizes 2000,4000,8000.

#include <cstdio>
#include <string>

#include "bench/common.hpp"

namespace {

using namespace scod;
using namespace scod::bench;

struct Row {
  std::size_t n;
  std::string variant;
  double seconds;
  std::size_t conjunctions;
  std::size_t candidates;
  double sps_used;
  std::string telemetry;  ///< snapshot JSON, cumulative over repeats, or empty
};

}  // namespace

int main(int argc, char** argv) {
  // Expand the size presets before the generic parser sees --sizes.
  std::vector<std::string> rewritten(argv, argv + argc);
  for (std::size_t i = 1; i < rewritten.size(); ++i) {
    if (rewritten[i] == "small") rewritten[i] = "1000,2000,4000";
    if (rewritten[i] == "medium") rewritten[i] = "8000,16000";
    if (rewritten[i] == "large") rewritten[i] = "32000,64000";
  }
  std::vector<const char*> argp;
  argp.reserve(rewritten.size());
  for (const auto& s : rewritten) argp.push_back(s.c_str());

  HarnessOptions opt =
      parse_harness_options(static_cast<int>(argp.size()), argp.data());
  print_banner("Fig. 10: runtime vs population size",
               "paper Section V-C, Fig. 10a-c");

  std::printf("span = %.0f s, threshold = %.1f km, s_ps grid/hybrid = %.0f/%.0f s\n\n",
              opt.span, opt.threshold, opt.sps_grid, opt.sps_hybrid);

  std::vector<Row> rows;
  for (std::int64_t n64 : opt.sizes) {
    const auto n = static_cast<std::size_t>(n64);
    const auto sats = generate_population({n, opt.seed});

    auto run = [&](const std::string& name, auto&& fn) {
      ScreeningReport report;
      if (opt.telemetry) obs::reset();
      const double secs = median_seconds([&] { report = fn(); }, opt.repeats);
      std::string telemetry;
      if (opt.telemetry) telemetry = obs::snapshot().to_json();
      rows.push_back({n, name, secs, report.conjunctions.size(),
                      report.stats.candidates, report.stats.seconds_per_sample,
                      std::move(telemetry)});
      std::printf("  n=%7zu %-16s %8.2f s  (%zu conjunctions)\n", n, name.c_str(),
                  secs, report.conjunctions.size());
      std::fflush(stdout);
    };

    ScreeningConfig grid_cfg = make_config(opt);
    grid_cfg.seconds_per_sample = opt.sps_grid;
    ScreeningConfig hybrid_cfg = make_config(opt);
    hybrid_cfg.seconds_per_sample = opt.sps_hybrid;

    const auto grid = make_screener(Variant::kGrid);
    const auto hybrid = make_screener(Variant::kHybrid);
    run("grid-cpu", [&] { return grid->screen(sats, grid_cfg); });
    run("hybrid-cpu", [&] { return hybrid->screen(sats, hybrid_cfg); });

    if (n64 <= opt.legacy_max) {
      run("legacy", [&] {
        return make_screener(Variant::kLegacy)->screen(sats, make_config(opt));
      });
    } else {
      std::printf("  n=%7zu %-16s   skipped (beyond --legacy-max %lld, the "
                  "regime where the paper's legacy runs out of memory/time)\n",
                  n, "legacy", static_cast<long long>(opt.legacy_max));
    }
  }

  // Summary table with speedups relative to legacy where available.
  std::printf("\n");
  TextTable table({"n", "variant", "time [s]", "conjunctions", "candidates",
                   "s_ps", "speedup vs legacy"});
  for (const Row& row : rows) {
    double legacy_time = 0.0;
    for (const Row& other : rows) {
      if (other.n == row.n && other.variant == "legacy") legacy_time = other.seconds;
    }
    table.add_row({TextTable::integer(static_cast<long long>(row.n)), row.variant,
                   TextTable::num(row.seconds, 3),
                   TextTable::integer(static_cast<long long>(row.conjunctions)),
                   TextTable::integer(static_cast<long long>(row.candidates)),
                   TextTable::num(row.sps_used, 1),
                   legacy_time > 0.0 ? TextTable::num(legacy_time / row.seconds, 2)
                                     : std::string("-")});
  }
  table.print(std::cout);

  if (!opt.csv.empty()) {
    CsvWriter csv(opt.csv, {"n", "variant", "seconds", "conjunctions", "candidates",
                            "seconds_per_sample"});
    for (const Row& row : rows) {
      csv.add_row({TextTable::integer(static_cast<long long>(row.n)), row.variant,
                   TextTable::num(row.seconds, 6),
                   TextTable::integer(static_cast<long long>(row.conjunctions)),
                   TextTable::integer(static_cast<long long>(row.candidates)),
                   TextTable::num(row.sps_used, 3)});
    }
    std::printf("\nresults written to %s\n", opt.csv.c_str());
  }

  if (!opt.json.empty()) {
    JsonBenchWriter json(opt.json);
    for (const Row& row : rows) {
      json.record("fig10_runtime", row.n, row.variant, row.seconds,
                  row.conjunctions, row.telemetry);
    }
    std::printf("JSON records written to %s\n", opt.json.c_str());
  }
  return 0;
}
