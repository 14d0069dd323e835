#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/grid_pipeline.hpp"
#include "core/grid_screener.hpp"
#include "core/partitioned.hpp"
#include "core/screener.hpp"
#include "filters/dense_scan.hpp"
#include "orbit/geometry.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/ephemeris.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

/// A dense spherical shell of near-circular orbits: radial band so narrow
/// that node misses are frequently below the screening threshold, giving a
/// small population with a meaningful number of true conjunctions.
std::vector<Satellite> dense_shell(std::size_t n, std::uint64_t seed,
                                   double r0 = 7000.0, double band = 10.0) {
  Rng rng(seed);
  std::vector<Satellite> sats;
  sats.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    KeplerElements el;
    el.semi_major_axis = r0 + rng.uniform(-band / 2.0, band / 2.0);
    el.eccentricity = rng.uniform(0.0, 2e-4);
    el.inclination = rng.uniform(0.2, kPi - 0.2);
    el.raan = rng.uniform(0.0, kTwoPi);
    el.arg_perigee = rng.uniform(0.0, kTwoPi);
    el.mean_anomaly = rng.uniform(0.0, kTwoPi);
    sats.push_back({static_cast<std::uint32_t>(i), el});
  }
  return sats;
}

struct OracleConjunction {
  std::uint32_t sat_a, sat_b;
  double tca, pca;
};

/// Ground truth: exhaustive dense-scan over every pair.
std::vector<OracleConjunction> oracle(const std::vector<Satellite>& sats,
                                      double t_begin, double t_end,
                                      double threshold) {
  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(sats, solver);
  DenseScanOptions scan;
  scan.step = 4.0;
  std::vector<OracleConjunction> out;
  for (std::uint32_t i = 0; i + 1 < sats.size(); ++i) {
    for (std::uint32_t j = i + 1; j < sats.size(); ++j) {
      for (const Encounter& e : scan_encounters(prop, i, j, t_begin, t_end, scan)) {
        if (e.pca <= threshold) out.push_back({i, j, e.tca, e.pca});
      }
    }
  }
  return out;
}

bool report_contains(const ScreeningReport& report, std::uint32_t a, std::uint32_t b,
                     double tca, double tca_tol) {
  for (const Conjunction& c : report.conjunctions) {
    if (c.sat_a == a && c.sat_b == b && std::abs(c.tca - tca) <= tca_tol) return true;
  }
  return false;
}

class ScreenerAccuracy : public testing::Test {
 protected:
  static constexpr double kThreshold = 5.0;
  static constexpr double kSpan = 10000.0;

  static void SetUpTestSuite() {
    // A dense shell provides realistic background traffic; a dozen
    // engineered interceptors guarantee genuine conjunctions at known
    // times (random 70-object populations rarely align by chance).
    auto sats = dense_shell(60, 0xBEEF);
    Rng rng(0xD1CE);
    for (std::uint32_t k = 0; k < 12; ++k) {
      const auto target = rng.uniform_index(sats.size());
      const double t_star = rng.uniform(0.1 * kSpan, 0.9 * kSpan);
      const double offset = rng.uniform(-3.5, 3.5);
      sats.push_back(testutil::make_interceptor(
          sats[target].elements, t_star, offset, rng,
          static_cast<std::uint32_t>(60 + k)));
    }
    sats_ = new std::vector<Satellite>(std::move(sats));
    truth_ = new std::vector<OracleConjunction>(
        oracle(*sats_, 0.0, kSpan, kThreshold * 1.2));
  }

  static void TearDownTestSuite() {
    delete sats_;
    delete truth_;
    sats_ = nullptr;
    truth_ = nullptr;
  }

  static ScreeningConfig config() {
    ScreeningConfig cfg;
    cfg.threshold_km = kThreshold;
    cfg.t_begin = 0.0;
    cfg.t_end = kSpan;
    return cfg;
  }

  /// Oracle conjunctions comfortably below the threshold (no boundary
  /// flakiness) that every variant is required to find.
  static std::vector<OracleConjunction> must_find() {
    std::vector<OracleConjunction> out;
    for (const OracleConjunction& c : *truth_) {
      if (c.pca <= 0.9 * kThreshold) out.push_back(c);
    }
    return out;
  }

  static void expect_matches_oracle(const ScreeningReport& report,
                                    const std::string& label) {
    // Completeness: every comfortably-sub-threshold oracle encounter found.
    for (const OracleConjunction& c : must_find()) {
      EXPECT_TRUE(report_contains(report, c.sat_a, c.sat_b, c.tca, 5.0))
          << label << " missed " << c.sat_a << "-" << c.sat_b << " @ " << c.tca
          << " pca=" << c.pca;
    }
    // Soundness: every reported conjunction corresponds to an oracle
    // encounter at most marginally above the threshold.
    for (const Conjunction& c : report.conjunctions) {
      EXPECT_LE(c.pca, kThreshold);
      bool known = false;
      for (const OracleConjunction& o : *truth_) {
        if (o.sat_a == c.sat_a && o.sat_b == c.sat_b && std::abs(o.tca - c.tca) <= 5.0) {
          known = true;
          break;
        }
      }
      EXPECT_TRUE(known) << label << " invented " << c.sat_a << "-" << c.sat_b
                         << " @ " << c.tca << " pca=" << c.pca;
    }
  }

  static std::vector<Satellite>* sats_;
  static std::vector<OracleConjunction>* truth_;
};

std::vector<Satellite>* ScreenerAccuracy::sats_ = nullptr;
std::vector<OracleConjunction>* ScreenerAccuracy::truth_ = nullptr;

TEST_F(ScreenerAccuracy, OracleHasConjunctions) {
  // The shell geometry must actually produce encounters, otherwise the
  // agreement tests below are vacuous.
  EXPECT_GE(must_find().size(), 3u);
}

TEST_F(ScreenerAccuracy, GridMatchesOracle) {
  const ScreeningReport report = make_screener(Variant::kGrid)->screen(*sats_, config());
  expect_matches_oracle(report, "grid");
  EXPECT_GT(report.stats.candidates, 0u);
  EXPECT_GT(report.stats.total_samples, 0u);
}

TEST_F(ScreenerAccuracy, HybridMatchesOracle) {
  const ScreeningReport report =
      make_screener(Variant::kHybrid)->screen(*sats_, config());
  expect_matches_oracle(report, "hybrid");
  EXPECT_GT(report.stats.pairs_examined, 0u);
}

TEST_F(ScreenerAccuracy, LegacyMatchesOracle) {
  const ScreeningReport report =
      make_screener(Variant::kLegacy)->screen(*sats_, config());
  expect_matches_oracle(report, "legacy");
  const std::size_t n = sats_->size();
  EXPECT_EQ(report.stats.pairs_examined, n * (n - 1) / 2);
}

TEST_F(ScreenerAccuracy, SieveMatchesOracle) {
  const ScreeningReport report = make_screener(Variant::kSieve)->screen(*sats_, config());
  expect_matches_oracle(report, "sieve");
  const std::size_t n = sats_->size();
  EXPECT_EQ(report.stats.pairs_examined, n * (n - 1) / 2);
  // The sieve's whole point: far fewer distance evaluations than a dense
  // scan of every pair (span/step * pairs).
  EXPECT_LT(report.stats.candidates,
            report.stats.pairs_examined * static_cast<std::size_t>(kSpan) / 16);
}

TEST_F(ScreenerAccuracy, VariantsAgreeOnCollidingPairs) {
  const auto grid = make_screener(Variant::kGrid)->screen(*sats_, config());
  const auto hybrid = make_screener(Variant::kHybrid)->screen(*sats_, config());
  const auto legacy = make_screener(Variant::kLegacy)->screen(*sats_, config());

  // The paper's Section V-D comparison: the colliding-pair sets agree up
  // to rare edge cases (there: 5 missed / 35 extra out of ~17k). At this
  // scale we allow a one-pair slack in each direction.
  const PairSetDiff gh = compare_pair_sets(grid.colliding_pairs(),
                                           hybrid.colliding_pairs());
  EXPECT_LE(gh.only_in_first, 1u);
  EXPECT_LE(gh.only_in_second, 1u);
  const PairSetDiff gl = compare_pair_sets(grid.colliding_pairs(),
                                           legacy.colliding_pairs());
  EXPECT_LE(gl.only_in_first, 1u);
  EXPECT_LE(gl.only_in_second, 1u);
}

TEST_F(ScreenerAccuracy, GridDeterministicAcrossRunsAndThreads) {
  ThreadPool one(1), four(4);
  ScreeningConfig cfg1 = config();
  cfg1.pool = &one;
  ScreeningConfig cfg4 = config();
  cfg4.pool = &four;

  const auto r1 = make_screener(Variant::kGrid)->screen(*sats_, cfg1);
  const auto r4 = make_screener(Variant::kGrid)->screen(*sats_, cfg4);
  const auto r4b = make_screener(Variant::kGrid)->screen(*sats_, cfg4);

  ASSERT_EQ(r1.conjunctions.size(), r4.conjunctions.size());
  ASSERT_EQ(r4.conjunctions.size(), r4b.conjunctions.size());
  for (std::size_t i = 0; i < r1.conjunctions.size(); ++i) {
    EXPECT_EQ(r1.conjunctions[i].sat_a, r4.conjunctions[i].sat_a);
    EXPECT_EQ(r1.conjunctions[i].sat_b, r4.conjunctions[i].sat_b);
    EXPECT_NEAR(r1.conjunctions[i].tca, r4.conjunctions[i].tca, 1e-3);
    EXPECT_NEAR(r1.conjunctions[i].pca, r4.conjunctions[i].pca, 1e-6);
  }
}

TEST_F(ScreenerAccuracy, EveryVariantRunsOnTheConfiguredPool) {
  // Every variant takes its workers from config.pool (pool_of); the thread
  // count must not change the report.
  ThreadPool one(1), four(4);
  ScreeningConfig cfg1 = config();
  cfg1.pool = &one;
  ScreeningConfig cfg4 = config();
  cfg4.pool = &four;

  for (const Variant v : {Variant::kHybrid, Variant::kLegacy, Variant::kSieve}) {
    SCOPED_TRACE(variant_name(v));
    const auto r1 = make_screener(v)->screen(*sats_, cfg1);
    const auto r4 = make_screener(v)->screen(*sats_, cfg4);
    EXPECT_FALSE(r1.conjunctions.empty());
    ASSERT_EQ(r1.conjunctions.size(), r4.conjunctions.size());
    for (std::size_t i = 0; i < r1.conjunctions.size(); ++i) {
      EXPECT_EQ(r1.conjunctions[i].sat_a, r4.conjunctions[i].sat_a);
      EXPECT_EQ(r1.conjunctions[i].sat_b, r4.conjunctions[i].sat_b);
      EXPECT_NEAR(r1.conjunctions[i].tca, r4.conjunctions[i].tca, 1e-3);
      EXPECT_NEAR(r1.conjunctions[i].pca, r4.conjunctions[i].pca, 1e-6);
    }
    EXPECT_EQ(r1.stats.pairs_examined, r4.stats.pairs_examined);
  }
}

TEST_F(ScreenerAccuracy, MultiRoundExecutionMatchesSingleRound) {
  // Shrink the budget so the span no longer fits in one round; the rounds
  // machinery must not change the result.
  const auto roomy = make_screener(Variant::kGrid)->screen(*sats_, config());

  ScreeningConfig tight = config();
  tight.memory_budget = 2 << 20;  // 2 MiB
  const auto constrained = make_screener(Variant::kGrid)->screen(*sats_, tight);
  EXPECT_GT(constrained.stats.rounds, 1u);

  ASSERT_EQ(roomy.conjunctions.size(), constrained.conjunctions.size());
  for (std::size_t i = 0; i < roomy.conjunctions.size(); ++i) {
    EXPECT_EQ(roomy.conjunctions[i].sat_a, constrained.conjunctions[i].sat_a);
    EXPECT_NEAR(roomy.conjunctions[i].tca, constrained.conjunctions[i].tca, 1e-3);
  }
}

TEST_F(ScreenerAccuracy, DistancePrefilterIsPureOptimization) {
  GridPipelineOptions with = GridScreener::default_options();
  GridPipelineOptions without = GridScreener::default_options();
  without.distance_prefilter = false;

  const auto r_with = GridScreener(with).screen(*sats_, config());
  const auto r_without = GridScreener(without).screen(*sats_, config());
  // Without the prefilter there are at least as many candidates...
  EXPECT_GE(r_without.stats.candidates, r_with.stats.candidates);
  // ...but the reported conjunctions are identical.
  ASSERT_EQ(r_with.conjunctions.size(), r_without.conjunctions.size());
  for (std::size_t i = 0; i < r_with.conjunctions.size(); ++i) {
    EXPECT_EQ(r_with.conjunctions[i].sat_a, r_without.conjunctions[i].sat_a);
    EXPECT_NEAR(r_with.conjunctions[i].pca, r_without.conjunctions[i].pca, 1e-6);
  }
}

TEST(Screeners, HeadOnRetrogradeEncounterHasPredictableTca) {
  // Same circular equatorial orbit flown in opposite directions: the
  // objects meet when their position angles coincide, at
  // t = (2 pi - M0) / (2 n), with PCA ~ 0.
  const double a = 7000.0;
  const double m0 = 0.3;
  std::vector<Satellite> sats{
      {0, {a, 1e-4, 0.0, 0.0, 0.0, 0.0}},
      {1, {a, 1e-4, kPi, 0.0, 0.0, m0}},
  };
  const double n = std::sqrt(kMuEarth / (a * a * a));
  const double expected_tca = (kTwoPi - m0) / (2.0 * n);

  ScreeningConfig cfg;
  cfg.threshold_km = 2.0;
  cfg.t_begin = 0.0;
  cfg.t_end = expected_tca + 600.0;

  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
    const ScreeningReport report = make_screener(v)->screen(sats, cfg);
    ASSERT_FALSE(report.conjunctions.empty()) << variant_name(v);
    bool found = false;
    for (const Conjunction& c : report.conjunctions) {
      if (std::abs(c.tca - expected_tca) < 2.0 && c.pca < 0.5) found = true;
    }
    EXPECT_TRUE(found) << variant_name(v) << ": no encounter at t=" << expected_tca;
  }
}

TEST(Screeners, SeparatedOrbitsYieldNoConjunctions) {
  // 7000 vs 7500 km circular shells: no encounter is possible.
  std::vector<Satellite> sats{
      {0, {7000.0, 1e-4, 0.5, 0.0, 0.0, 0.0}},
      {1, {7500.0, 1e-4, 1.5, 1.0, 0.0, 1.0}},
  };
  ScreeningConfig cfg;
  cfg.t_end = 3600.0;
  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
    EXPECT_TRUE(make_screener(v)->screen(sats, cfg).conjunctions.empty())
        << variant_name(v);
  }
}

TEST(Screeners, TinyPopulationsHandled) {
  ScreeningConfig cfg;
  cfg.t_end = 600.0;
  const std::vector<Satellite> empty;
  const std::vector<Satellite> one{{0, {7000.0, 1e-4, 0.5, 0.0, 0.0, 0.0}}};
  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
    const auto screener = make_screener(v);
    EXPECT_TRUE(screener->screen(empty, cfg).conjunctions.empty()) << variant_name(v);
    EXPECT_TRUE(screener->screen(one, cfg).conjunctions.empty()) << variant_name(v);
  }
}

TEST(Screeners, InvalidSpanRejected) {
  std::vector<Satellite> sats = dense_shell(4, 1);
  ScreeningConfig cfg;
  cfg.t_begin = 100.0;
  cfg.t_end = 100.0;
  EXPECT_THROW(make_screener(Variant::kGrid)->screen(sats, cfg), std::invalid_argument);
  EXPECT_THROW(make_screener(Variant::kHybrid)->screen(sats, cfg), std::invalid_argument);
}

TEST(Screeners, SecondsPerSampleOverrideIsHonored) {
  std::vector<Satellite> sats = dense_shell(10, 3);
  ScreeningConfig cfg;
  cfg.t_end = 1200.0;
  cfg.seconds_per_sample = 2.0;
  const auto report = make_screener(Variant::kGrid)->screen(sats, cfg);
  EXPECT_DOUBLE_EQ(report.stats.seconds_per_sample, 2.0);
  EXPECT_DOUBLE_EQ(report.stats.cell_size_km,
                   cfg.threshold_km + kLeoSpeed * 2.0);
  EXPECT_EQ(report.stats.total_samples, 601u);
}

TEST(Screeners, UndersizedCountModelChangesNothing) {
  // A debris cloud is so dense that its candidates blow far past what an
  // absurdly small count model predicts. The model only reserves memory
  // in the plan, so the report and the plan must equal the default's.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 40, 0.05, 99);

  ScreeningConfig cfg;
  cfg.threshold_km = 2.0;
  cfg.t_end = 600.0;

  GridPipelineOptions tiny = GridScreener::default_options();
  tiny.count_model.coefficient = 1e-20;

  const auto forced = GridScreener(tiny).screen(cloud, cfg);
  const auto normal = GridScreener().screen(cloud, cfg);

  EXPECT_GT(normal.stats.candidates, 0u);
  EXPECT_EQ(forced.stats.candidates, normal.stats.candidates);
  EXPECT_EQ(forced.stats.total_samples, normal.stats.total_samples);
  EXPECT_EQ(forced.stats.parallel_samples, normal.stats.parallel_samples);
  EXPECT_EQ(forced.stats.rounds, normal.stats.rounds);
  EXPECT_EQ(forced.stats.seconds_per_sample, normal.stats.seconds_per_sample);
  ASSERT_EQ(forced.conjunctions.size(), normal.conjunctions.size());
  for (std::size_t i = 0; i < forced.conjunctions.size(); ++i) {
    EXPECT_EQ(forced.conjunctions[i].sat_a, normal.conjunctions[i].sat_a);
    EXPECT_EQ(forced.conjunctions[i].sat_b, normal.conjunctions[i].sat_b);
    EXPECT_EQ(forced.conjunctions[i].tca, normal.conjunctions[i].tca);
    EXPECT_EQ(forced.conjunctions[i].pca, normal.conjunctions[i].pca);
  }
}

class GridOracleSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GridOracleSweep, GridMatchesOracleAcrossSeeds) {
  // Small multi-seed property sweep: the fixture above pins one
  // population; this re-checks the grid variant's oracle agreement on
  // fresh random geometry each time.
  const std::uint64_t seed = GetParam();
  auto sats = dense_shell(25, seed);
  Rng rng(seed ^ 0xFEED);
  for (std::uint32_t k = 0; k < 4; ++k) {
    const auto target = rng.uniform_index(sats.size());
    sats.push_back(testutil::make_interceptor(
        sats[target].elements, rng.uniform(400.0, 3600.0), rng.uniform(-3.0, 3.0),
        rng, static_cast<std::uint32_t>(25 + k)));
  }

  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 4000.0;
  const auto truth = oracle(sats, cfg.t_begin, cfg.t_end, cfg.threshold_km * 1.2);
  const ScreeningReport report = make_screener(Variant::kGrid)->screen(sats, cfg);

  for (const OracleConjunction& c : truth) {
    if (c.pca > 0.9 * cfg.threshold_km) continue;
    EXPECT_TRUE(report_contains(report, c.sat_a, c.sat_b, c.tca, 5.0))
        << "seed " << seed << " missed " << c.sat_a << "-" << c.sat_b << " @ "
        << c.tca << " pca=" << c.pca;
  }
  for (const Conjunction& c : report.conjunctions) {
    EXPECT_LE(c.pca, cfg.threshold_km);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridOracleSweep,
                         testing::Values(11u, 222u, 3333u, 44444u));

TEST(Screeners, PartitionedScreeningMatchesDirect) {
  // The population-division strategy of related work [24]: merging the
  // block-pair jobs must reproduce the direct screening exactly.
  const auto sats = dense_shell(48, 0xD15C);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 6000.0;

  const ScreeningReport direct = make_screener(Variant::kGrid)->screen(sats, cfg);
  for (std::size_t partitions : {1u, 2u, 3u, 5u}) {
    const ScreeningReport split =
        partitioned_screen(sats, cfg, Variant::kGrid, partitions);
    ASSERT_EQ(split.conjunctions.size(), direct.conjunctions.size())
        << partitions << " partitions";
    for (std::size_t i = 0; i < direct.conjunctions.size(); ++i) {
      EXPECT_EQ(split.conjunctions[i].sat_a, direct.conjunctions[i].sat_a);
      EXPECT_EQ(split.conjunctions[i].sat_b, direct.conjunctions[i].sat_b);
      EXPECT_NEAR(split.conjunctions[i].tca, direct.conjunctions[i].tca, 1e-3);
      EXPECT_NEAR(split.conjunctions[i].pca, direct.conjunctions[i].pca, 1e-6);
    }
  }
  EXPECT_THROW(partitioned_screen(sats, cfg, Variant::kGrid, 0),
               std::invalid_argument);
}

/// Forwards every call to another propagator while hiding its concrete
/// type, so the grid pipeline propagates through one position() call per
/// (sample, satellite) tuple instead of the batched SoA kernel, and the
/// refinement takes the virtual path.
class ForwardingPropagator final : public Propagator {
 public:
  explicit ForwardingPropagator(const Propagator& inner) : inner_(inner) {}
  std::size_t size() const override { return inner_.size(); }
  Vec3 position(std::size_t index, double time) const override {
    return inner_.position(index, time);
  }
  StateVector state(std::size_t index, double time) const override {
    return inner_.state(index, time);
  }
  const KeplerElements& elements(std::size_t index) const override {
    return inner_.elements(index);
  }

 private:
  const Propagator& inner_;
};

TEST(Screeners, BatchedInsertionKernelMatchesScalarExactly) {
  // The SoA insertion kernel is bit-identical to the per-tuple scalar
  // path, so hiding the TwoBodyPropagator behind a forwarding propagator
  // must not move a single candidate or conjunction.
  auto sats = dense_shell(60, 0xBA7C);
  Rng rng(0x5EED);
  sats.push_back(testutil::make_interceptor(sats[5].elements, 1800.0, 1.5, rng,
                                            static_cast<std::uint32_t>(sats.size())));
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 6000.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator two_body(sats, solver);
  const ForwardingPropagator forwarding(two_body);

  const GridPipelineOptions options = GridScreener::default_options();
  const GridPipelineResult batch_pipeline = run_grid_pipeline(two_body, cfg, options);
  const GridPipelineResult scalar_pipeline = run_grid_pipeline(forwarding, cfg, options);
  EXPECT_GT(batch_pipeline.candidates.size(), 0u);
  EXPECT_EQ(batch_pipeline.candidates, scalar_pipeline.candidates);

  const GridScreener screener;
  const ScreeningReport batch_report = screener.screen(two_body, cfg);
  const ScreeningReport scalar_report = screener.screen(forwarding, cfg);

  EXPECT_GT(batch_report.conjunctions.size(), 0u);
  ASSERT_EQ(batch_report.conjunctions.size(), scalar_report.conjunctions.size());
  for (std::size_t i = 0; i < batch_report.conjunctions.size(); ++i) {
    EXPECT_EQ(batch_report.conjunctions[i].sat_a, scalar_report.conjunctions[i].sat_a);
    EXPECT_EQ(batch_report.conjunctions[i].sat_b, scalar_report.conjunctions[i].sat_b);
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: zero ULPs of slack.
    EXPECT_EQ(batch_report.conjunctions[i].tca, scalar_report.conjunctions[i].tca);
    EXPECT_EQ(batch_report.conjunctions[i].pca, scalar_report.conjunctions[i].pca);
  }
  EXPECT_EQ(batch_report.stats.candidates, scalar_report.stats.candidates);
  EXPECT_EQ(batch_report.stats.rounds, scalar_report.stats.rounds);
  EXPECT_EQ(batch_report.stats.seconds_per_sample,
            scalar_report.stats.seconds_per_sample);
}

/// Every screener refines through a devirtualized pair evaluator when the
/// propagator is a TwoBodyPropagator, and through the virtual Propagator
/// calls otherwise. Both must give the same report to the last bit.
class RefinementPathEquivalence : public testing::TestWithParam<Variant> {};

TEST_P(RefinementPathEquivalence, ForwardedPropagatorGivesBitIdenticalReport) {
  auto sats = dense_shell(60, 0x0DE7);
  Rng rng(0xF00D);
  sats.push_back(testutil::make_interceptor(sats[9].elements, 2400.0, 1.0, rng,
                                            static_cast<std::uint32_t>(sats.size())));
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 6000.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator two_body(sats, solver);
  const ForwardingPropagator forwarding(two_body);
  const auto screener = make_screener(GetParam());
  const ScreeningReport fast = screener->screen(two_body, cfg);
  const ScreeningReport virtual_path = screener->screen(forwarding, cfg);

  EXPECT_GT(fast.conjunctions.size(), 0u);
  ASSERT_EQ(fast.conjunctions.size(), virtual_path.conjunctions.size());
  for (std::size_t i = 0; i < fast.conjunctions.size(); ++i) {
    EXPECT_EQ(fast.conjunctions[i].sat_a, virtual_path.conjunctions[i].sat_a);
    EXPECT_EQ(fast.conjunctions[i].sat_b, virtual_path.conjunctions[i].sat_b);
    EXPECT_EQ(fast.conjunctions[i].tca, virtual_path.conjunctions[i].tca);
    EXPECT_EQ(fast.conjunctions[i].pca, virtual_path.conjunctions[i].pca);
  }
  EXPECT_EQ(fast.stats.candidates, virtual_path.stats.candidates);
  EXPECT_EQ(fast.stats.refinements, virtual_path.stats.refinements);
}

INSTANTIATE_TEST_SUITE_P(Variants, RefinementPathEquivalence,
                         testing::Values(Variant::kGrid, Variant::kHybrid,
                                         Variant::kLegacy, Variant::kSieve),
                         [](const testing::TestParamInfo<Variant>& param_info) {
                           return variant_name(param_info.param);
                         });

TEST(Screeners, PoolOfFallsBackToTheGlobalPool) {
  ScreeningConfig cfg;
  EXPECT_EQ(&pool_of(cfg), &global_thread_pool());
  ThreadPool own(2);
  cfg.pool = &own;
  EXPECT_EQ(&pool_of(cfg), &own);
}

TEST(Screeners, StreamingModeMatchesBatchMode) {
  // Bounded-memory streaming must produce the same conjunction set as the
  // batch API, with candidates partitioned across many rounds.
  const auto sats = dense_shell(50, 0x57E4);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 7200.0;
  cfg.memory_budget = 2 << 20;  // 2 MiB: force many small rounds

  const GridScreener screener;
  const ScreeningReport batch = screener.screen(sats, cfg);

  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  std::vector<Conjunction> streamed;
  std::size_t rounds_seen = 0;
  std::size_t last_round = 0;
  const ScreeningReport streaming = screener.screen_streaming(
      propagator, cfg, [&](std::size_t round, std::span<const Conjunction> batch_out) {
        EXPECT_GE(round, last_round);  // rounds arrive in order
        last_round = round;
        ++rounds_seen;
        streamed.insert(streamed.end(), batch_out.begin(), batch_out.end());
      });

  EXPECT_TRUE(streaming.conjunctions.empty());  // everything went to the sink
  EXPECT_GT(streaming.stats.rounds, 1u);
  EXPECT_EQ(rounds_seen, streaming.stats.rounds);
  EXPECT_EQ(streaming.stats.candidates, batch.stats.candidates);

  sort_conjunctions(streamed);
  ASSERT_EQ(streamed.size(), batch.conjunctions.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].sat_a, batch.conjunctions[i].sat_a);
    EXPECT_EQ(streamed[i].sat_b, batch.conjunctions[i].sat_b);
    EXPECT_NEAR(streamed[i].tca, batch.conjunctions[i].tca, 1.0);
    EXPECT_NEAR(streamed[i].pca, batch.conjunctions[i].pca, 1e-3);
  }
}

TEST(Screeners, EphemerisBackedScreeningMatchesDirectPropagation) {
  // Screening over the interpolated ephemeris (sub-metre interpolation
  // error) must reproduce the direct two-body screening: same pairs, TCAs
  // within the Brent tolerance scale.
  const auto sats = dense_shell(40, 0xE9);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 3600.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator direct(sats, solver);
  const auto ephemeris =
      EphemerisPropagator::sample(direct, cfg.t_begin, cfg.t_end, 20.0);

  const GridScreener screener;
  const ScreeningReport from_direct = screener.screen(direct, cfg);
  const ScreeningReport from_table = screener.screen(ephemeris, cfg);

  ASSERT_EQ(from_direct.conjunctions.size(), from_table.conjunctions.size());
  for (std::size_t i = 0; i < from_direct.conjunctions.size(); ++i) {
    EXPECT_EQ(from_direct.conjunctions[i].sat_a, from_table.conjunctions[i].sat_a);
    EXPECT_EQ(from_direct.conjunctions[i].sat_b, from_table.conjunctions[i].sat_b);
    EXPECT_NEAR(from_direct.conjunctions[i].tca, from_table.conjunctions[i].tca, 0.5);
    EXPECT_NEAR(from_direct.conjunctions[i].pca, from_table.conjunctions[i].pca, 1e-3);
  }
}

TEST(Screeners, PhaseTimingsArePopulated) {
  std::vector<Satellite> sats = dense_shell(30, 4);
  ScreeningConfig cfg;
  cfg.t_end = 1800.0;

  const auto grid = make_screener(Variant::kGrid)->screen(sats, cfg);
  EXPECT_GT(grid.timings.insertion, 0.0);
  EXPECT_GT(grid.timings.detection, 0.0);
  EXPECT_DOUBLE_EQ(grid.timings.filtering, 0.0);  // grid variant: no filters

  const auto hybrid = make_screener(Variant::kHybrid)->screen(sats, cfg);
  EXPECT_GT(hybrid.timings.insertion, 0.0);
  EXPECT_GE(hybrid.timings.filtering, 0.0);

  const auto legacy = make_screener(Variant::kLegacy)->screen(sats, cfg);
  EXPECT_GT(legacy.timings.filtering, 0.0);
}

}  // namespace
}  // namespace scod
