#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#ifndef SCOD_CLI_PATH
#error "SCOD_CLI_PATH must be defined by the build"
#endif

namespace scod {
namespace {

/// Runs the CLI binary and captures stdout+stderr and the exit code.
struct CliRun {
  int exit_code = -1;
  std::string output;
};

CliRun run_cli(const std::string& args) {
  const std::string command = std::string(SCOD_CLI_PATH) + " " + args + " 2>&1";
  CliRun result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(Cli, NoArgumentsPrintsUsage) {
  const CliRun run = run_cli("");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun run = run_cli("frobnicate");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown command"), std::string::npos);
}

TEST(Cli, InfoReportsHost) {
  const CliRun run = run_cli("info");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("scod 1.0.0"), std::string::npos);
  EXPECT_NE(run.output.find("host:"), std::string::npos);
}

TEST(Cli, GenerateRequiresOut) {
  const CliRun run = run_cli("generate --count 10");
  EXPECT_EQ(run.exit_code, 2);
}

TEST(Cli, GenerateScreenPipelineCsv) {
  const std::string catalog = temp_path("cli_catalog.csv");
  const std::string results = temp_path("cli_results.csv");

  const CliRun gen = run_cli("generate --count 300 --seed 11 --out " + catalog);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 300 objects"), std::string::npos);

  const CliRun screen = run_cli("screen --catalog " + catalog +
                                " --variant hybrid --span 1800 --threshold 5 --csv " +
                                results);
  ASSERT_EQ(screen.exit_code, 0) << screen.output;
  EXPECT_NE(screen.output.find("hybrid screening of 300 objects"),
            std::string::npos);
  EXPECT_NE(screen.output.find("conjunctions"), std::string::npos);

  // The CSV must exist with the expected header.
  std::ifstream in(results);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "sat_a,sat_b,tca_s,pca_km");

  std::remove(catalog.c_str());
  std::remove(results.c_str());
}

TEST(Cli, GenerateTleAndScreenWithJ2) {
  const std::string catalog = temp_path("cli_catalog.tle");
  const CliRun gen = run_cli("generate --count 100 --seed 3 --out " + catalog);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;

  const CliRun screen = run_cli("screen --catalog " + catalog +
                                " --variant grid --span 1200 --propagator j2");
  ASSERT_EQ(screen.exit_code, 0) << screen.output;
  EXPECT_NE(screen.output.find("grid screening of 100 objects"), std::string::npos);

  // The TLE-secular propagator is only valid for TLE catalogs...
  const CliRun tle = run_cli("screen --catalog " + catalog +
                             " --variant grid --span 1200 --propagator tle");
  EXPECT_EQ(tle.exit_code, 0) << tle.output;
  std::remove(catalog.c_str());

  // ...and is rejected for CSV ones.
  const std::string csv_catalog = temp_path("cli_catalog_tleprop.csv");
  ASSERT_EQ(run_cli("generate --count 10 --out " + csv_catalog).exit_code, 0);
  EXPECT_EQ(run_cli("screen --catalog " + csv_catalog + " --propagator tle").exit_code,
            2);
  std::remove(csv_catalog.c_str());
}

TEST(Cli, ScreenRejectsBadVariantAndPropagator) {
  const std::string catalog = temp_path("cli_catalog2.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  EXPECT_EQ(run_cli("screen --catalog " + catalog + " --variant turbo").exit_code, 2);
  EXPECT_EQ(
      run_cli("screen --catalog " + catalog + " --propagator sgp9000").exit_code, 2);
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenFailsCleanlyOnMissingCatalog) {
  const CliRun run = run_cli("screen --catalog /nonexistent/cat.csv");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("cannot open"), std::string::npos);
}

TEST(Cli, EverySubcommandRejectsUnknownOptions) {
  // A typo must not silently run with the default: --thresold would
  // otherwise screen at 2 km and exit 0.
  const std::string catalog = temp_path("cli_catalog_typo.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  const std::string commands[] = {
      "screen --catalog " + catalog + " --thresold 50",
      "assess --catalog " + catalog + " --thresold 50",
      "cube --catalog " + catalog + " --cube_size 50",
      "generate --count 20 --out " + temp_path("cli_typo_out.csv") + " --sed 3",
  };
  const std::string typos[] = {"--thresold", "--thresold", "--cube_size", "--sed"};
  for (std::size_t i = 0; i < std::size(commands); ++i) {
    const CliRun run = run_cli(commands[i]);
    EXPECT_EQ(run.exit_code, 2) << commands[i] << "\n" << run.output;
    EXPECT_NE(run.output.find("unknown option: " + typos[i]), std::string::npos)
        << run.output;
    EXPECT_EQ(run.output.find("conjunctions"), std::string::npos) << run.output;
  }
  std::ifstream never_written(temp_path("cli_typo_out.csv"));
  EXPECT_FALSE(never_written.good());
  std::remove(catalog.c_str());
}

TEST(Cli, StrayPositionalArgumentIsRejected) {
  const std::string catalog = temp_path("cli_catalog_stray.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  const CliRun run = run_cli("screen --catalog " + catalog + " --span 600 hybrid");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown option: hybrid"), std::string::npos) << run.output;
  std::remove(catalog.c_str());
}

TEST(Cli, BadNumericValueNamesTheOption) {
  const std::string catalog = temp_path("cli_catalog_numeric.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  const CliRun threshold = run_cli("screen --catalog " + catalog + " --threshold abc");
  EXPECT_EQ(threshold.exit_code, 2);
  EXPECT_NE(threshold.output.find("--threshold"), std::string::npos) << threshold.output;
  EXPECT_NE(threshold.output.find("'abc'"), std::string::npos) << threshold.output;

  // Trailing characters are an error too, not a silently truncated 12.
  const CliRun count = run_cli("generate --count 12x --out " + catalog);
  EXPECT_EQ(count.exit_code, 2);
  EXPECT_NE(count.output.find("--count"), std::string::npos) << count.output;
  EXPECT_EQ(count.output.find("wrote"), std::string::npos) << count.output;
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenRejectsNonPositiveOrNonFiniteThreshold) {
  const std::string catalog = temp_path("cli_catalog_threshold.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  for (const char* value : {"-1", "0", "nan", "inf"}) {
    const CliRun run =
        run_cli("screen --catalog " + catalog + " --span 600 --threshold " + value);
    EXPECT_EQ(run.exit_code, 2) << value << "\n" << run.output;
    EXPECT_NE(run.output.find("--threshold"), std::string::npos) << run.output;
    EXPECT_EQ(run.output.find("conjunctions"), std::string::npos) << run.output;
  }
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenRejectsNegativeSps) {
  const std::string catalog = temp_path("cli_catalog_sps.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  for (const char* value : {"-3", "nan"}) {
    const CliRun run = run_cli("screen --catalog " + catalog + " --span 600 --sps " +
                               value);
    EXPECT_EQ(run.exit_code, 2) << value << "\n" << run.output;
    EXPECT_NE(run.output.find("--sps"), std::string::npos) << run.output;
  }
  // 0 keeps meaning "the variant's default sampling period".
  EXPECT_EQ(run_cli("screen --catalog " + catalog + " --span 600 --sps 0").exit_code, 0);
  std::remove(catalog.c_str());
}

TEST(Cli, LibraryRejectedSpanIsAUsageError) {
  // Every screener throws std::invalid_argument for an empty or reversed
  // span; scod reports that as a usage error (2), not a runtime failure (1).
  const std::string catalog = temp_path("cli_catalog_span.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  for (const char* variant : {"grid", "hybrid", "legacy", "sieve"}) {
    for (const char* span : {"0", "-5"}) {
      const CliRun run = run_cli("screen --catalog " + catalog + " --variant " +
                                 variant + " --span " + span);
      EXPECT_EQ(run.exit_code, 2) << variant << " " << span << "\n" << run.output;
      EXPECT_NE(run.output.find("empty time span"), std::string::npos) << run.output;
      EXPECT_EQ(run.output.find("conjunctions"), std::string::npos) << run.output;
    }
  }
  std::remove(catalog.c_str());
}

TEST(Cli, CubeEstimatorRuns) {
  const std::string catalog = temp_path("cli_catalog3.csv");
  ASSERT_EQ(run_cli("generate --count 200 --seed 5 --out " + catalog).exit_code, 0);
  const CliRun run = run_cli("cube --catalog " + catalog +
                             " --span 3600 --samples 200 --cube-size 50");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("Cube method"), std::string::npos);
  EXPECT_NE(run.output.find("expected collisions"), std::string::npos);
  std::remove(catalog.c_str());
}

TEST(Cli, AssessEmitsCdms) {
  const std::string catalog = temp_path("cli_catalog4.csv");
  ASSERT_EQ(run_cli("generate --count 400 --seed 13 --out " + catalog).exit_code, 0);
  const CliRun run = run_cli("assess --catalog " + catalog +
                             " --span 3600 --threshold 10 --top 2");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("conjunctions; emitting CDMs"), std::string::npos);
  // With a 10 km threshold on 400 objects an hour usually yields at least
  // one encounter; if it does, a CDM block must be present.
  if (run.output.find("0 conjunctions") == std::string::npos) {
    EXPECT_NE(run.output.find("CCSDS_CDM_VERS"), std::string::npos);
  }
  std::remove(catalog.c_str());
}

}  // namespace
}  // namespace scod
