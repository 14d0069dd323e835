/// scod_serve — long-lived screening service driven by newline-delimited
/// commands on stdin. The process owns a versioned catalog and a warm
/// conjunction baseline; after each delta, `screen` re-screens only pairs
/// touching changed objects and merges with the baseline (see
/// src/service/screening_service.hpp).
///
///   $ scod_serve --threshold 5 --span 3600 <<'EOF'
///   ingest catalog.csv
///   screen
///   remove 17
///   update-tle delta.tle
///   screen
///   stats
///   quit
///   EOF
///
/// Commands:
///   ingest <file>        bulk upsert from .csv or .tle/.txt (by id)
///   update-tle <file>    upsert TLE records by NORAD catalog number
///   remove <id>          drop one object
///   screen [full|auto]   screen the current snapshot (default: auto)
///   stats                cumulative service counters
///   telemetry [reset]    pipeline counter snapshot as one JSON line
///   help                 command summary
///   quit                 exit
///
/// One line of `ok ...` / `error: ...` is printed per command, so the tool
/// can be driven by a pipe and scripted against.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/telemetry.hpp"
#include "service/screening_service.hpp"
#include "util/cli.hpp"

namespace {

using namespace scod;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void print_help() {
  std::printf(
      "commands:\n"
      "  ingest <file>        bulk upsert from .csv or .tle/.txt\n"
      "  update-tle <file>    upsert TLE records by catalog number\n"
      "  remove <id>          drop one object\n"
      "  screen [full|auto]   screen the current snapshot\n"
      "  stats                cumulative service counters\n"
      "  telemetry [reset]    pipeline counter snapshot as one JSON line\n"
      "  help                 this summary\n"
      "  quit                 exit\n");
}

void print_report(const ServiceReport& report, std::size_t top) {
  std::printf("ok epoch %llu: %zu conjunctions over %zu objects (%s",
              static_cast<unsigned long long>(report.epoch),
              report.conjunctions.size(), report.catalog_size,
              report.incremental ? "incremental" : "full");
  if (report.incremental) {
    std::printf(": dirty %zu, removed %zu, carried %zu, evicted %zu, "
                "refreshed %zu", report.dirty, report.removed, report.carried,
                report.evicted, report.refreshed);
  }
  std::printf(") in %.3f s\n", report.total_seconds);
  for (std::size_t i = 0; i < report.conjunctions.size() && i < top; ++i) {
    const IdConjunction& c = report.conjunctions[i];
    std::printf("  %6u %6u  tca=%10.2f s  pca=%8.4f km\n", c.id_a, c.id_b, c.tca,
                c.pca);
  }
  if (report.conjunctions.size() > top) {
    std::printf("  ... %zu more\n", report.conjunctions.size() - top);
  }
}

void print_stats(const ScreeningService& service) {
  const ServiceStats& s = service.stats();
  std::printf("ok epoch %llu, %zu objects\n",
              static_cast<unsigned long long>(service.store().epoch()),
              service.store().size());
  std::printf("  ingests %llu, upserts %llu, removals %llu\n",
              static_cast<unsigned long long>(s.ingests),
              static_cast<unsigned long long>(s.upserts),
              static_cast<unsigned long long>(s.removals));
  std::printf("  screens: %llu full, %llu incremental, %llu cached\n",
              static_cast<unsigned long long>(s.full_screens),
              static_cast<unsigned long long>(s.incremental_screens),
              static_cast<unsigned long long>(s.cached_screens));
  std::printf("  last screen: epoch %llu, dirty %zu, removed %zu, %.3f s "
              "(ins %.3f / cd %.3f / refine %.3f / merge %.3f)\n",
              static_cast<unsigned long long>(s.last_epoch_screened),
              s.last_dirty, s.last_removed, s.last_screen_seconds,
              s.last_timings.insertion, s.last_timings.detection,
              s.last_timings.refinement, s.last_merge_seconds);
  std::printf("  total screen time %.3f s\n", s.total_screen_seconds);
  // The warm scratch the service carries between epochs: how often grids
  // and candidate buffers were reused vs rebuilt, and what is held resident.
  const ScratchArena& arena = service.context().arena();
  const ScratchArena::Stats& a = arena.stats();
  std::printf("  context arena: %.1f MiB resident; grids %llu reused / %llu "
              "rebuilt, candidates %llu reused / %llu rebuilt, %llu shrinks\n",
              static_cast<double>(arena.memory_bytes()) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(a.grid_reuses),
              static_cast<unsigned long long>(a.grid_rebuilds),
              static_cast<unsigned long long>(a.candidate_reuses),
              static_cast<unsigned long long>(a.candidate_rebuilds),
              static_cast<unsigned long long>(a.vector_shrinks));
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"threshold", "span", "sps", "full-fraction", "top"});
  if (!args.unknown().empty()) {
    std::fprintf(stderr, "unknown option: %s\n", args.unknown().front().c_str());
    std::fprintf(stderr,
                 "usage: scod_serve [--threshold KM] [--span S] [--sps S] "
                 "[--full-fraction F] [--top N]\n");
    return 2;
  }

  ServiceOptions options;
  options.config.threshold_km = args.get_double("threshold", 2.0);
  options.config.t_end = args.get_double("span", 7200.0);
  options.config.seconds_per_sample = args.get_double("sps", 0.0);
  options.full_rescreen_fraction = args.get_double("full-fraction", 0.25);
  const auto top = static_cast<std::size_t>(args.get_int("top", 10));

  ScreeningService service(options);
  // A daemon wants its counters populated from the first screen; the
  // per-call overhead is noise next to the screening work itself.
  obs::set_enabled(true);
  std::printf("scod_serve ready (threshold %.2f km, span %.0f s); "
              "'help' lists commands\n",
              options.config.threshold_km, options.config.span_seconds());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream ss(line);
    std::string command;
    if (!(ss >> command)) continue;  // blank line
    try {
      if (command == "quit" || command == "exit") {
        std::printf("ok bye\n");
        break;
      } else if (command == "help") {
        print_help();
      } else if (command == "ingest" || command == "update-tle") {
        std::string path;
        if (!(ss >> path)) {
          std::printf("error: %s needs a file path\n", command.c_str());
          continue;
        }
        const bool tle = command == "update-tle" || ends_with(path, ".tle") ||
                         ends_with(path, ".txt");
        const std::size_t count =
            tle ? service.ingest_tle(path) : service.ingest_csv(path);
        std::printf("ok ingested %zu objects, epoch %llu, %zu total\n", count,
                    static_cast<unsigned long long>(service.store().epoch()),
                    service.store().size());
      } else if (command == "remove") {
        std::uint32_t id = 0;
        if (!(ss >> id)) {
          std::printf("error: remove needs a numeric id\n");
          continue;
        }
        if (service.remove(id)) {
          std::printf("ok removed %u, epoch %llu, %zu total\n", id,
                      static_cast<unsigned long long>(service.store().epoch()),
                      service.store().size());
        } else {
          std::printf("error: no object with id %u\n", id);
        }
      } else if (command == "screen") {
        std::string mode_str;
        ss >> mode_str;
        ScreenMode mode = ScreenMode::kAuto;
        if (mode_str == "full") {
          mode = ScreenMode::kFull;
        } else if (!mode_str.empty() && mode_str != "auto") {
          std::printf("error: unknown screen mode '%s'\n", mode_str.c_str());
          continue;
        }
        print_report(service.screen(mode), top);
      } else if (command == "stats") {
        print_stats(service);
      } else if (command == "telemetry") {
        std::string arg;
        ss >> arg;
        if (!obs::compiled()) {
          std::printf("error: telemetry compiled out (SCOD_TELEMETRY=OFF)\n");
        } else if (arg == "reset") {
          obs::reset();
          std::printf("ok telemetry reset\n");
        } else if (!arg.empty()) {
          std::printf("error: unknown telemetry argument '%s'\n", arg.c_str());
        } else {
          std::printf("ok telemetry %s\n", obs::snapshot().to_json().c_str());
        }
      } else {
        std::printf("error: unknown command '%s' (try 'help')\n", command.c_str());
      }
    } catch (const std::exception& e) {
      // One bad file or delta must not take the service down.
      std::printf("error: %s\n", e.what());
    }
    std::fflush(stdout);
  }
  return 0;
}
