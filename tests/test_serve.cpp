#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/telemetry.hpp"
#include "population/catalog_io.hpp"
#include "population/generator.hpp"

#ifndef SCOD_SERVE_PATH
#error "SCOD_SERVE_PATH must be defined by the build"
#endif

namespace scod {
namespace {

struct ServeRun {
  int exit_code = -1;
  std::string output;
};

/// Runs scod_serve with `commands` piped to stdin and the given options.
ServeRun run_serve(const std::string& options, const std::string& commands) {
  // One script per test: ctest runs the tests of this file as parallel
  // processes that share TempDir().
  const std::string script =
      testing::TempDir() + "/scod_serve_input_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt";
  {
    std::ofstream out(script);
    out << commands;
  }
  const std::string command = std::string(SCOD_SERVE_PATH) + " " + options +
                              " < " + script + " 2>&1";
  ServeRun result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::remove(script.c_str());
  return result;
}

std::string write_catalog(const std::string& name, std::size_t count,
                          std::uint64_t seed) {
  const std::string path = testing::TempDir() + "/" + name;
  save_catalog_csv(path, generate_population({count, seed}));
  return path;
}

TEST(Serve, RejectsUnknownOption) {
  const ServeRun run = run_serve("--frobnicate 1", "quit\n");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("usage:"), std::string::npos);
}

TEST(Serve, IngestScreenRemoveScreenStats) {
  const std::string catalog = write_catalog("serve_cat.csv", 800, 19);
  const ServeRun run = run_serve(
      "--threshold 10 --span 1800 --sps 30 --top 2",
      "ingest " + catalog + "\n" +
      "screen\n"
      "remove 5\n"
      "screen\n"
      "stats\n"
      "quit\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ok ingested 800 objects, epoch 1"), std::string::npos)
      << run.output;
  // First screen is full, the removal-only rescreen is incremental.
  EXPECT_NE(run.output.find("(full)"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("(incremental:"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("removed 1"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("screens: 1 full, 1 incremental"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("ok bye"), std::string::npos) << run.output;
  std::remove(catalog.c_str());
}

TEST(Serve, SurvivesBadCommandsAndFiles) {
  const std::string catalog = write_catalog("serve_cat2.csv", 50, 3);
  const ServeRun run = run_serve(
      "--threshold 5 --span 900",
      "frobnicate\n"
      "ingest /nonexistent/catalog.csv\n"
      "ingest\n"
      "remove notanumber\n"
      "remove 123456\n"
      "screen sideways\n"
      "ingest " + catalog + "\n" +
      "screen\n"
      "quit\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("error: unknown command 'frobnicate'"),
            std::string::npos) << run.output;
  EXPECT_NE(run.output.find("error: ingest needs a file path"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("error: remove needs a numeric id"),
            std::string::npos) << run.output;
  EXPECT_NE(run.output.find("error: no object with id 123456"),
            std::string::npos) << run.output;
  EXPECT_NE(run.output.find("error: unknown screen mode 'sideways'"),
            std::string::npos) << run.output;
  // The bad input did not take the service down: the later ingest+screen ran.
  EXPECT_NE(run.output.find("ok ingested 50 objects"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("(full)"), std::string::npos) << run.output;
  std::remove(catalog.c_str());
}

TEST(Serve, PartialFinalLineIsStillProcessed) {
  // A driver that dies mid-write (or a pipe without a trailing newline)
  // must not lose the final command: getline delivers the unterminated
  // tail and the loop processes it before EOF ends the session.
  const ServeRun run = run_serve("", "frobnicate\nstats");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("error: unknown command 'frobnicate'"),
            std::string::npos) << run.output;
  EXPECT_NE(run.output.find("ok epoch 0, 0 objects"), std::string::npos)
      << run.output;
}

TEST(Serve, EveryReplyLineHasAProtocolPrefix) {
  // Drivers dispatch on the first token of each reply, so every top-level
  // line must start with "ok " or "error: "; continuation detail lines are
  // indented. The banner is the only exception.
  const std::string catalog = write_catalog("serve_cat3.csv", 100, 7);
  const ServeRun run = run_serve(
      "--threshold 5 --span 900",
      "bogus\n"
      "ingest " + catalog + "\n" +
      "screen\n"
      "stats\n"
      "quit\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  std::istringstream lines(run.output);
  std::string line;
  std::size_t checked = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("scod_serve ready", 0) == 0) continue;
    const bool ok = line.rfind("ok ", 0) == 0;
    const bool error = line.rfind("error: ", 0) == 0;
    const bool detail = line.rfind("  ", 0) == 0;
    EXPECT_TRUE(ok || error || detail) << "unprefixed reply line: " << line;
    ++checked;
  }
  EXPECT_GT(checked, 4u) << run.output;
  std::remove(catalog.c_str());
}

TEST(Serve, StatsRoundTripTracksMutationsAndScreens) {
  const std::string catalog = write_catalog("serve_cat4.csv", 120, 11);
  const ServeRun run = run_serve(
      "--threshold 5 --span 900",
      "stats\n"
      "ingest " + catalog + "\n" +
      "remove 3\n"
      "screen\n"
      "screen\n"
      "stats\n"
      "quit\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // Before any mutation the store is empty at epoch 0.
  EXPECT_NE(run.output.find("ok epoch 0, 0 objects"), std::string::npos)
      << run.output;
  // Afterwards: one ingest, one removal, one full screen, and the no-delta
  // rescreen answered from the warm baseline as a cached screen.
  EXPECT_NE(run.output.find("ingests 1"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("removals 1"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("screens: 1 full, 0 incremental, 1 cached"),
            std::string::npos) << run.output;
  std::remove(catalog.c_str());
}

TEST(Serve, TelemetryCommandRoundTrip) {
  const std::string catalog = write_catalog("serve_cat5.csv", 100, 13);
  const ServeRun run = run_serve(
      "--threshold 5 --span 900",
      "telemetry\n"
      "ingest " + catalog + "\n" +
      "screen\n"
      "telemetry\n"
      "telemetry reset\n"
      "telemetry bogus\n"
      "quit\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
#if SCOD_TELEMETRY_ENABLED
  // The reply embeds the snapshot JSON; after a screen the funnel counters
  // are non-zero, so a known counter key must appear.
  EXPECT_NE(run.output.find("ok telemetry {"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("\"samples_propagated\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("ok telemetry reset"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("error: unknown telemetry argument 'bogus'"),
            std::string::npos) << run.output;
#else
  EXPECT_NE(run.output.find("error: telemetry compiled out"), std::string::npos)
      << run.output;
#endif
  std::remove(catalog.c_str());
}

TEST(Serve, HelpAndQuit) {
  const ServeRun run = run_serve("", "help\nquit\n");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("commands:"), std::string::npos);
  EXPECT_NE(run.output.find("update-tle"), std::string::npos);
}

}  // namespace
}  // namespace scod
