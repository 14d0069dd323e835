#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/screener.hpp"
#include "obs/telemetry.hpp"
#include "population/generator.hpp"
#include "service/screening_service.hpp"
#include "verify/case_io.hpp"

#ifndef SCOD_CORPUS_DIR
#error "SCOD_CORPUS_DIR must be defined by the build"
#endif

namespace scod {
namespace {

using obs::Counter;

std::uint64_t histogram_total(const obs::TelemetrySnapshot& snap) {
  return std::accumulate(snap.probe_histogram.begin(),
                         snap.probe_histogram.end(), std::uint64_t{0});
}

/// Every test runs with counters freshly zeroed and enabled; telemetry is
/// switched back off on exit so the rest of the binary pays nothing.
class Telemetry : public testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiled()) GTEST_SKIP() << "built with SCOD_TELEMETRY=OFF";
    obs::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    if (obs::compiled()) {
      obs::set_enabled(false);
      obs::reset();
    }
  }

  static ScreeningConfig config(double threshold_km, double span,
                                double sps) {
    ScreeningConfig cfg;
    cfg.threshold_km = threshold_km;
    cfg.t_begin = 0.0;
    cfg.t_end = span;
    cfg.seconds_per_sample = sps;
    return cfg;
  }
};

TEST_F(Telemetry, RuntimeDisabledCountsNothing) {
  obs::set_enabled(false);
  const auto sats = generate_population({300, 7});
  make_screener(Variant::kGrid)->screen(sats, config(10.0, 1800.0, 8.0));
  const obs::TelemetrySnapshot snap = obs::snapshot();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(snap.counters[i], 0u)
        << "counter " << obs::counter_name(static_cast<Counter>(i))
        << " incremented while telemetry was disabled";
  }
  EXPECT_EQ(histogram_total(snap), 0u);
}

TEST_F(Telemetry, ResetZeroesEverything) {
  const auto sats = generate_population({300, 7});
  make_screener(Variant::kGrid)->screen(sats, config(10.0, 1800.0, 8.0));
  ASSERT_GT(obs::snapshot().value(Counter::kGridInserts), 0u);
  obs::reset();
  const obs::TelemetrySnapshot snap = obs::snapshot();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(snap.counters[i], 0u);
  }
  EXPECT_EQ(histogram_total(snap), 0u);
}

// The grid detection funnel is conservative: every tested pair is either
// masked clean, distance-prefiltered, or emitted as a candidate (the
// deduplicated bucket stays empty) — and the emitted count is exactly the
// pipeline's own candidate statistic.
TEST_F(Telemetry, GridFunnelConservation) {
  const auto sats = generate_population({400, 11});
  const ScreeningReport report =
      make_screener(Variant::kGrid)->screen(sats, config(10.0, 1800.0, 8.0));
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t tested = snap.value(Counter::kPairsTested);
  const std::uint64_t masked = snap.value(Counter::kPairsMaskedClean);
  const std::uint64_t prefiltered = snap.value(Counter::kPairsPrefiltered);
  const std::uint64_t emitted = snap.value(Counter::kCandidatesEmitted);
  const std::uint64_t deduped = snap.value(Counter::kCandidatesDeduplicated);
  ASSERT_GT(tested, 0u);
  EXPECT_EQ(tested, masked + prefiltered + emitted + deduped);
  EXPECT_EQ(deduped, 0u);  // the half stencil emits each (pair, step) once
  EXPECT_EQ(emitted, report.stats.candidates);

  // Insertion side: one grid insert per propagated sample, and the probe
  // histogram partitions the inserts.
  const std::uint64_t samples = snap.value(Counter::kSamplesPropagated);
  const std::uint64_t inserts = snap.value(Counter::kGridInserts);
  EXPECT_EQ(samples,
            static_cast<std::uint64_t>(report.stats.total_samples) *
                report.stats.satellites);
  EXPECT_EQ(inserts, samples);
  EXPECT_EQ(histogram_total(snap), inserts);
  EXPECT_EQ(snap.value(Counter::kGridPoolRejects), 0u);

  // Refinement tail is monotone down to the reported set.
  const std::uint64_t refinements = snap.value(Counter::kRefinements);
  const std::uint64_t raw = snap.value(Counter::kConjunctionsRaw);
  const std::uint64_t reported = snap.value(Counter::kConjunctionsReported);
  EXPECT_GE(refinements, raw);
  EXPECT_GE(raw, reported);
  EXPECT_EQ(reported, report.conjunctions.size());
  EXPECT_EQ(refinements, report.stats.refinements);

  EXPECT_LE(snap.value(Counter::kCellsOccupied),
            snap.value(Counter::kCellsScanned));

  // Stage timers saw the phases that ran.
  EXPECT_GT(snap.value(Counter::kTimeInsertionNs), 0u);
  EXPECT_GT(snap.value(Counter::kTimeDetectionNs), 0u);
}

// Eq. 1 sizes cells at g_c = d + 7.8 s_ps and the pipeline doubles the
// slot table, so scanned-slot occupancy stays at or below ~one half.
TEST_F(Telemetry, GridOccupancyMatchesEq1Sizing) {
  const auto sats = generate_population({600, 3});
  make_screener(Variant::kGrid)->screen(sats, config(10.0, 1800.0, 8.0));
  const obs::TelemetrySnapshot snap = obs::snapshot();
  ASSERT_GT(snap.value(Counter::kCellsScanned), 0u);
  EXPECT_GT(snap.occupancy(), 0.0);
  EXPECT_LE(snap.occupancy(), 0.55);
  EXPECT_GE(snap.mean_probe_length(), 0.0);
}

// The classical filter chain is conservative too: every pair entering it
// is rejected by exactly one filter or survives to refinement.
TEST_F(Telemetry, HybridFilterConservation) {
  const auto sats = generate_population({400, 11});
  const ScreeningReport report =
      make_screener(Variant::kHybrid)->screen(sats, config(10.0, 1800.0, 16.0));
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t in = snap.value(Counter::kFilterPairsIn);
  const std::uint64_t ap = snap.value(Counter::kFilterApogeePerigeeRejects);
  const std::uint64_t path_rej = snap.value(Counter::kFilterPathRejects);
  const std::uint64_t win_rej = snap.value(Counter::kFilterWindowRejects);
  const std::uint64_t survivors = snap.value(Counter::kFilterSurvivors);
  ASSERT_GT(in, 0u);
  EXPECT_EQ(in, ap + path_rej + win_rej + survivors);
  EXPECT_EQ(in, report.stats.pairs_examined);
  EXPECT_EQ(ap, report.stats.filtered_apogee_perigee);
  EXPECT_EQ(path_rej, report.stats.filtered_path);
  EXPECT_EQ(win_rej, report.stats.filtered_windows);
  EXPECT_EQ(snap.value(Counter::kFilterCoplanarPairs),
            report.stats.coplanar_pairs);

  // Filter monotonicity: each stage sees no more pairs than the one before.
  const std::uint64_t path_checks = snap.value(Counter::kFilterPathChecks);
  const std::uint64_t win_checks = snap.value(Counter::kFilterWindowChecks);
  EXPECT_EQ(path_checks, in - ap);
  EXPECT_LE(win_checks, path_checks);
  EXPECT_LE(win_rej, win_checks);
  EXPECT_LE(survivors, in);

  EXPECT_EQ(snap.value(Counter::kConjunctionsReported),
            report.conjunctions.size());
  EXPECT_GT(snap.value(Counter::kTimeFilteringNs), 0u);
}

// The hybrid's coarse-grid front end has the same detection funnel as the
// grid variant: every tested pair is masked, prefiltered or emitted, and
// no (pair, step) is emitted twice.
TEST_F(Telemetry, HybridDetectionEmitsEachPairOnce) {
  const auto sats = generate_population({400, 11});
  const ScreeningReport report =
      make_screener(Variant::kHybrid)->screen(sats, config(10.0, 1800.0, 16.0));
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t tested = snap.value(Counter::kPairsTested);
  const std::uint64_t masked = snap.value(Counter::kPairsMaskedClean);
  const std::uint64_t prefiltered = snap.value(Counter::kPairsPrefiltered);
  const std::uint64_t emitted = snap.value(Counter::kCandidatesEmitted);
  const std::uint64_t deduped = snap.value(Counter::kCandidatesDeduplicated);
  ASSERT_GT(tested, 0u);
  EXPECT_EQ(masked, 0u);  // a full screen has no dirty mask
  EXPECT_EQ(tested, masked + prefiltered + emitted + deduped);
  EXPECT_EQ(deduped, 0u);
  EXPECT_EQ(emitted, report.stats.candidates);
  EXPECT_LE(snap.value(Counter::kCellsOccupied),
            snap.value(Counter::kCellsScanned));
}

TEST_F(Telemetry, LegacyFilterConservation) {
  const auto sats = generate_population({200, 5});
  const ScreeningReport report =
      make_screener(Variant::kLegacy)->screen(sats, config(10.0, 1800.0, 16.0));
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t in = snap.value(Counter::kFilterPairsIn);
  const std::uint64_t ap = snap.value(Counter::kFilterApogeePerigeeRejects);
  const std::uint64_t path_rej = snap.value(Counter::kFilterPathRejects);
  const std::uint64_t win_rej = snap.value(Counter::kFilterWindowRejects);
  const std::uint64_t survivors = snap.value(Counter::kFilterSurvivors);
  ASSERT_EQ(in, static_cast<std::uint64_t>(sats.size()) * (sats.size() - 1) / 2);
  EXPECT_EQ(in, ap + path_rej + win_rej + survivors);
  EXPECT_EQ(snap.value(Counter::kFilterPathChecks), in - ap);

  // The legacy funnel never touches the grid-side counters.
  EXPECT_EQ(snap.value(Counter::kPairsTested), 0u);
  EXPECT_EQ(snap.value(Counter::kGridInserts), 0u);

  EXPECT_GE(snap.value(Counter::kRefinements),
            snap.value(Counter::kConjunctionsRaw));
  EXPECT_EQ(snap.value(Counter::kConjunctionsReported),
            report.conjunctions.size());
}

TEST_F(Telemetry, SieveFunnelConservation) {
  const auto sats = generate_population({300, 13});
  const ScreeningReport report =
      make_screener(Variant::kSieve)->screen(sats, config(10.0, 1800.0, 8.0));
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t in = snap.value(Counter::kFilterPairsIn);
  const std::uint64_t ap = snap.value(Counter::kFilterApogeePerigeeRejects);
  const std::uint64_t survivors = snap.value(Counter::kFilterSurvivors);
  ASSERT_GT(in, 0u);
  EXPECT_EQ(in, ap + survivors);
  EXPECT_GT(snap.value(Counter::kSieveDistanceEvals), 0u);
  EXPECT_EQ(snap.value(Counter::kRefinements), report.stats.refinements);
  EXPECT_EQ(snap.value(Counter::kConjunctionsReported),
            report.conjunctions.size());
}

// Grid and hybrid must report the same physical conjunctions while their
// telemetry funnels look completely different: the grid burns pair tests
// in cells, the hybrid burns classical filter evaluations. Events within
// 10% of the threshold are exempt from the cross-check (refinement jitter
// legitimately flips them), matching the accuracy-suite convention.
TEST_F(Telemetry, GridAndHybridAgreeWithDifferentFunnels) {
  constexpr double kThreshold = 10.0;
  const auto sats = generate_population({400, 17});
  const ScreeningReport grid_report =
      make_screener(Variant::kGrid)->screen(sats, config(kThreshold, 1800.0, 4.0));
  const obs::TelemetrySnapshot grid_snap = obs::snapshot();

  obs::reset();
  const ScreeningReport hybrid_report =
      make_screener(Variant::kHybrid)->screen(sats, config(kThreshold, 1800.0, 16.0));
  const obs::TelemetrySnapshot hybrid_snap = obs::snapshot();

  const auto confident = [&](const std::vector<Conjunction>& all) {
    std::vector<Conjunction> out;
    for (const Conjunction& c : all) {
      if (c.pca <= 0.9 * kThreshold) out.push_back(c);
    }
    return out;
  };
  const ConjunctionSetDiff grid_in_hybrid = compare_conjunction_sets(
      confident(grid_report.conjunctions), hybrid_report.conjunctions);
  EXPECT_TRUE(grid_in_hybrid.only_in_first.empty())
      << grid_in_hybrid.only_in_first.size() << " grid events hybrid missed";
  EXPECT_TRUE(grid_in_hybrid.pca_mismatches.empty());
  const ConjunctionSetDiff hybrid_in_grid = compare_conjunction_sets(
      confident(hybrid_report.conjunctions), grid_report.conjunctions);
  EXPECT_TRUE(hybrid_in_grid.only_in_first.empty())
      << hybrid_in_grid.only_in_first.size() << " hybrid events grid missed";

  // Same answer, different funnels: the pure grid never consults the
  // classical filters, while the hybrid runs its grid candidates through
  // them before refinement.
  EXPECT_GT(grid_snap.value(Counter::kPairsTested), 0u);
  EXPECT_EQ(grid_snap.value(Counter::kFilterPairsIn), 0u);
  EXPECT_GT(hybrid_snap.value(Counter::kPairsTested), 0u);
  EXPECT_GT(hybrid_snap.value(Counter::kFilterPairsIn), 0u);
}

// The service's path counters mirror its full / incremental / cached
// decision and its merge bookkeeping.
TEST_F(Telemetry, ServicePathCounters) {
  ServiceOptions options;
  options.config = config(10.0, 1800.0, 8.0);
  ScreeningService service(options);
  const auto sats = generate_population({400, 23});
  service.upsert(std::span<const Satellite>(sats));

  const ServiceReport first = service.screen();
  obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_FALSE(first.incremental);
  ASSERT_GT(first.conjunctions.size(), 0u)
      << "workload produced no conjunctions; carried/refreshed checks vacuous";
  EXPECT_EQ(snap.value(Counter::kServiceFullScreens), 1u);
  EXPECT_EQ(snap.value(Counter::kServiceIncrementalScreens), 0u);
  EXPECT_EQ(snap.value(Counter::kServiceCachedScreens), 0u);
  EXPECT_EQ(snap.value(Counter::kServiceSnapshotObjects), sats.size());

  // No delta: the baseline is returned, counted as a cached screen.
  service.screen();
  snap = obs::snapshot();
  EXPECT_EQ(snap.value(Counter::kServiceFullScreens), 1u);
  EXPECT_EQ(snap.value(Counter::kServiceCachedScreens), 1u);

  // A one-object delta goes down the incremental path and the dirty /
  // carried bookkeeping shows up.
  Satellite touched = sats.front();
  touched.elements.mean_anomaly += 0.25;
  service.upsert(touched);
  const ServiceReport third = service.screen();
  snap = obs::snapshot();
  EXPECT_TRUE(third.incremental);
  EXPECT_EQ(snap.value(Counter::kServiceIncrementalScreens), 1u);
  EXPECT_EQ(snap.value(Counter::kServiceDirtyObjects), 1u);
  EXPECT_GT(snap.value(Counter::kServiceCarried) +
                snap.value(Counter::kServiceRefreshed),
            0u);
}

// Corpus replay with exact expectations: the counters of a deterministic
// single-threaded quantity must match the report exactly, and running the
// same case twice must exactly double them. (Probe steps and CAS retries
// depend on thread interleaving and are deliberately not pinned.)
TEST_F(Telemetry, CorpusReplayExactCounters) {
  const verify::FuzzCase fuzz_case =
      verify::load_case(std::string(SCOD_CORPUS_DIR) + "/seed-101.case");
  ASSERT_GT(fuzz_case.size(), 0u);

  const ScreeningReport report =
      make_screener(Variant::kGrid)->screen(fuzz_case.satellites, fuzz_case.config);
  const obs::TelemetrySnapshot once = obs::snapshot();

  EXPECT_EQ(once.value(Counter::kCandidatesEmitted), report.stats.candidates);
  EXPECT_EQ(once.value(Counter::kRefinements), report.stats.refinements);
  EXPECT_EQ(once.value(Counter::kConjunctionsReported),
            report.conjunctions.size());
  EXPECT_EQ(once.value(Counter::kSamplesPropagated),
            static_cast<std::uint64_t>(report.stats.total_samples) *
                report.stats.satellites);
  EXPECT_EQ(once.value(Counter::kGridInserts),
            once.value(Counter::kSamplesPropagated));
  EXPECT_EQ(histogram_total(once), once.value(Counter::kGridInserts));

  obs::reset();
  make_screener(Variant::kGrid)->screen(fuzz_case.satellites, fuzz_case.config);
  make_screener(Variant::kGrid)->screen(fuzz_case.satellites, fuzz_case.config);
  const obs::TelemetrySnapshot twice = obs::snapshot();
  for (const Counter c :
       {Counter::kSamplesPropagated, Counter::kGridInserts,
        Counter::kPairsTested, Counter::kCandidatesEmitted,
        Counter::kRefinements, Counter::kConjunctionsRaw,
        Counter::kConjunctionsReported}) {
    EXPECT_EQ(twice.value(c), 2 * once.value(c))
        << "counter " << obs::counter_name(c)
        << " is not deterministic across identical runs";
  }
}

// The JSON snapshot carries every counter by name plus the derived fields.
TEST_F(Telemetry, SnapshotJsonContainsAllCounters) {
  const auto sats = generate_population({200, 29});
  make_screener(Variant::kGrid)->screen(sats, config(10.0, 1800.0, 8.0));
  const std::string json = obs::snapshot().to_json();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const std::string key =
        std::string("\"") + obs::counter_name(static_cast<Counter>(i)) + "\"";
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"probe_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_probe_length\""), std::string::npos);
}

}  // namespace
}  // namespace scod
