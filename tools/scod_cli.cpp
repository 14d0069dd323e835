/// scod — command-line front end to the conjunction-screening library.
///
///   scod generate --count 4000 --seed 7 --out catalog.csv
///   scod generate --count 800 --out catalog.tle
///   scod screen   --catalog catalog.csv --variant hybrid --span 7200
///                 --threshold 2 [--propagator kepler|j2|ephemeris] [--csv out.csv]
///   scod assess   --catalog catalog.csv --span 7200 --threshold 5 --top 3
///   scod cube     --catalog catalog.csv --span 7200 --cube-size 10
///   scod info
///
/// Catalog format is chosen by extension: .csv (catalog_io) or .tle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "assessment/cdm.hpp"
#include "core/grid_screener.hpp"
#include "core/screener.hpp"
#include "obs/telemetry.hpp"
#include "population/catalog_io.hpp"
#include "population/generator.hpp"
#include "orbit/geometry.hpp"
#include "population/tle.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/ephemeris.hpp"
#include "propagation/j2_secular.hpp"
#include "propagation/tle_secular.hpp"
#include "propagation/two_body.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/sysinfo.hpp"
#include "util/table.hpp"
#include "volumetric/cube.hpp"

namespace {

using namespace scod;

int usage() {
  std::fprintf(stderr,
               "usage: scod <command> [options]\n"
               "\n"
               "commands:\n"
               "  generate  --count N [--seed S] --out FILE(.csv|.tle)\n"
               "  screen    --catalog FILE [--variant grid|hybrid|legacy|sieve]\n"
               "            [--threshold KM] [--span S] [--sps S]\n"
               "            [--propagator kepler|j2|ephemeris|tle] [--csv OUT]\n"
               "            [--telemetry]\n"
               "  assess    --catalog FILE [--threshold KM] [--span S]\n"
               "            [--sigma KM] [--radius KM] [--top N]\n"
               "  cube      --catalog FILE [--span S] [--cube-size KM]\n"
               "            [--samples N] [--radius KM]\n"
               "  info\n");
  return 2;
}

/// A typo'd option must not fall back to a default: names the first
/// unknown option or stray argument and returns true when there is one.
bool reject_unknown(const char* command, const CliArgs& args) {
  if (args.unknown().empty()) return false;
  std::fprintf(stderr, "%s: unknown option: %s\n", command,
               args.unknown().front().c_str());
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_tle_path(const std::string& path) {
  return ends_with(path, ".tle") || ends_with(path, ".txt");
}

std::vector<Satellite> load_catalog(const std::string& path) {
  if (is_tle_path(path)) {
    const auto records = load_tle_file(path);
    std::vector<Satellite> sats;
    sats.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      sats.push_back(to_satellite(records[i], static_cast<std::uint32_t>(i)));
    }
    return sats;
  }
  return load_catalog_csv(path);
}

int cmd_generate(int argc, const char* const* argv) {
  const CliArgs args(argc, argv, {"count", "seed", "out"});
  if (reject_unknown("generate", args)) return 2;
  const auto count = static_cast<std::size_t>(args.get_int("count", 1000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }

  const auto sats = generate_population({count, seed});
  if (ends_with(out, ".tle") || ends_with(out, ".txt")) {
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "generate: cannot open %s\n", out.c_str());
      return 1;
    }
    for (const Satellite& sat : sats) {
      TleRecord rec;
      rec.name = "SYNTH-" + std::to_string(sat.id);
      rec.catalog_number = 70000 + sat.id;
      rec.intl_designator = "26001A";
      rec.epoch_year = 2026;
      rec.epoch_day = 187.5;
      rec.elements = sat.elements;
      rec.mean_motion_rev_day = 86400.0 / orbital_period(sat.elements);
      const auto [l1, l2] = format_tle(rec);
      file << rec.name << '\n' << l1 << '\n' << l2 << '\n';
    }
  } else {
    save_catalog_csv(out, sats);
  }
  std::printf("wrote %zu objects to %s\n", sats.size(), out.c_str());
  return 0;
}

int cmd_screen(int argc, const char* const* argv) {
  const CliArgs args(argc, argv, {"catalog", "variant", "threshold", "span", "sps",
                                  "propagator", "csv", "telemetry"});
  if (reject_unknown("screen", args)) return 2;
  const std::string catalog_path = args.get_string("catalog", "");
  if (catalog_path.empty()) {
    std::fprintf(stderr, "screen: --catalog is required\n");
    return 2;
  }
  const bool telemetry = args.get_bool("telemetry", false);
  if (telemetry && !obs::compiled()) {
    std::fprintf(stderr,
                 "screen: --telemetry requested but this build has "
                 "SCOD_TELEMETRY=OFF\n");
    return 2;
  }
  if (telemetry) {
    obs::reset();
    obs::set_enabled(true);
  }

  ScreeningConfig config;
  config.threshold_km = args.get_double("threshold", 2.0);
  config.t_end = args.get_double("span", 7200.0);
  config.seconds_per_sample = args.get_double("sps", 0.0);
  if (!(std::isfinite(config.threshold_km) && config.threshold_km > 0.0)) {
    std::fprintf(stderr, "screen: --threshold must be a positive number of km\n");
    return 2;
  }
  if (!(std::isfinite(config.seconds_per_sample) && config.seconds_per_sample >= 0.0)) {
    std::fprintf(stderr,
                 "screen: --sps must be a positive number of seconds "
                 "(0 picks the variant's default)\n");
    return 2;
  }
  const auto sats = load_catalog(catalog_path);

  const std::string variant_str = args.get_string("variant", "grid");
  const std::string prop_str = args.get_string("propagator", "kepler");

  const std::optional<Variant> variant = parse_variant(variant_str);
  if (!variant.has_value()) {
    std::fprintf(stderr, "screen: unknown variant '%s'\n", variant_str.c_str());
    return 2;
  }
  // One dispatch for all four variants: the factory hides which concrete
  // screener runs, and every variant accepts an external propagator.
  const std::unique_ptr<Screener> screener = make_screener(*variant);

  ScreeningReport report;
  const ContourKeplerSolver solver;
  if (prop_str == "kepler") {
    // The default path builds the two-body propagator inside the screener,
    // where its setup is timed as the paper's step-1 allocation.
    report = screener->screen(sats, config);
  } else if (prop_str == "j2") {
    const J2SecularPropagator prop(sats, solver);
    report = screener->screen(prop, config);
  } else if (prop_str == "ephemeris") {
    const auto prop = EphemerisPropagator::integrate(sats, config.t_begin,
                                                     config.t_end, ForceModel{});
    report = screener->screen(prop, config);
  } else if (prop_str == "tle") {
    if (!is_tle_path(catalog_path)) {
      std::fprintf(stderr, "screen: --propagator tle needs a .tle catalog\n");
      return 2;
    }
    const auto records = load_tle_file(catalog_path);
    const TleSecularPropagator prop(records, solver);
    report = screener->screen(prop, config);
  } else {
    std::fprintf(stderr, "screen: unknown propagator '%s'\n", prop_str.c_str());
    return 2;
  }

  std::printf("%s screening of %zu objects over %.0f s (d = %.2f km):\n",
              variant_str.c_str(), sats.size(), config.span_seconds(),
              config.threshold_km);
  std::printf("  %zu conjunctions, %zu pairs, %.2f s "
              "(alloc %.2f / ins %.2f / cd %.2f / filter %.2f / refine %.2f)\n",
              report.conjunctions.size(), report.colliding_pairs().size(),
              report.timings.total(), report.timings.allocation,
              report.timings.insertion, report.timings.detection,
              report.timings.filtering, report.timings.refinement);
  for (const Conjunction& c : report.conjunctions) {
    std::printf("  %6u %6u  tca=%10.2f s  pca=%8.4f km\n", c.sat_a, c.sat_b, c.tca,
                c.pca);
  }

  if (telemetry) {
    obs::set_enabled(false);
    std::printf("telemetry: %s\n", obs::snapshot().to_json().c_str());
  }

  const std::string csv_path = args.get_string("csv", "");
  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"sat_a", "sat_b", "tca_s", "pca_km"});
    for (const Conjunction& c : report.conjunctions) {
      csv.add_row({std::to_string(c.sat_a), std::to_string(c.sat_b),
                   TextTable::num(c.tca, 4), TextTable::num(c.pca, 6)});
    }
    std::printf("written to %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_assess(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"catalog", "threshold", "span", "sigma", "radius", "top"});
  if (reject_unknown("assess", args)) return 2;
  const std::string catalog_path = args.get_string("catalog", "");
  if (catalog_path.empty()) {
    std::fprintf(stderr, "assess: --catalog is required\n");
    return 2;
  }
  const auto sats = load_catalog(catalog_path);

  ScreeningConfig config;
  config.threshold_km = args.get_double("threshold", 5.0);
  config.t_end = args.get_double("span", 7200.0);

  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  const ScreeningReport report = GridScreener().screen(propagator, config);

  std::vector<CdmObject> objects(sats.size());
  for (std::size_t i = 0; i < sats.size(); ++i) {
    objects[i].designator = "OBJECT-" + std::to_string(sats[i].id);
    objects[i].position_sigma_km = args.get_double("sigma", 0.5);
    objects[i].hard_body_radius_km = args.get_double("radius", 0.005);
  }
  auto assessments = assess_conjunctions(propagator, report, objects);
  std::sort(assessments.begin(), assessments.end(),
            [](const ConjunctionAssessment& x, const ConjunctionAssessment& y) {
              return x.collision_probability > y.collision_probability;
            });

  const auto top = static_cast<std::size_t>(args.get_int("top", 5));
  std::printf("%zu conjunctions; emitting CDMs for the top %zu by Pc\n\n",
              assessments.size(), std::min(top, assessments.size()));
  for (std::size_t i = 0; i < std::min(top, assessments.size()); ++i) {
    write_cdm(std::cout, assessments[i], objects[assessments[i].conjunction.sat_a],
              objects[assessments[i].conjunction.sat_b]);
    std::printf("\n");
  }
  return 0;
}

int cmd_cube(int argc, const char* const* argv) {
  const CliArgs args(argc, argv, {"catalog", "span", "cube-size", "samples", "radius"});
  if (reject_unknown("cube", args)) return 2;
  const std::string catalog_path = args.get_string("catalog", "");
  if (catalog_path.empty()) {
    std::fprintf(stderr, "cube: --catalog is required\n");
    return 2;
  }
  const auto sats = load_catalog(catalog_path);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);

  CubeConfig config;
  config.cube_size_km = args.get_double("cube-size", 10.0);
  config.samples = static_cast<std::size_t>(args.get_int("samples", 2000));
  config.object_radius_km = args.get_double("radius", 0.005);
  const double span = args.get_double("span", 7200.0);

  const CubeResult result = cube_collision_estimate(propagator, 0.0, span, config);
  std::printf("Cube method (Liou et al. 2003): %zu samples, %.0f km cubes\n",
              result.samples, config.cube_size_km);
  std::printf("  expected collisions over %.0f s: %.3e\n", span,
              result.expected_collisions);
  std::printf("  mean co-resident pairs per sample: %.3f\n",
              result.mean_pairs_per_sample);
  std::printf("  pairs with any co-residency: %zu\n", result.pair_rates.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, result.pair_rates.size()); ++i) {
    const CubePairRate& r = result.pair_rates[i];
    std::printf("    %6u %6u: %zu co-residencies, E[collisions] = %.3e\n", r.sat_a,
                r.sat_b, r.co_residencies, r.expected_collisions);
  }
  return 0;
}

int cmd_info() {
  const SystemInfo info = query_system_info();
  std::printf("scod 1.0.0\n");
  std::printf("host: %s, %s (%zu logical CPUs), %.1f GiB RAM\n", info.os.c_str(),
              info.cpu_name.c_str(), info.logical_cpus, info.memory_gib);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "screen") return cmd_screen(argc - 1, argv + 1);
    if (command == "assess") return cmd_assess(argc - 1, argv + 1);
    if (command == "cube") return cmd_cube(argc - 1, argv + 1);
    if (command == "info") return cmd_info();
  } catch (const std::invalid_argument& e) {
    // A malformed option value or a configuration the library rejects
    // (e.g. an empty span): a usage error, like an unknown option.
    std::fprintf(stderr, "scod %s: %s\n", command.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scod %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "scod: unknown command '%s'\n", command.c_str());
  return usage();
}
