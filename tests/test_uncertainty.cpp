#include <gtest/gtest.h>

#include <cmath>

#include "core/uncertainty.hpp"
#include "scenario_helpers.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

TEST(UncertaintyModel, PairThresholdFormula) {
  UncertaintyModel model;
  model.sigma_km = {0.3, 0.4};
  model.k_sigma = 3.0;
  model.hard_body_km = 0.02;
  EXPECT_NEAR(model.pair_threshold(0, 1), 0.02 + 3.0 * 0.5, 1e-12);
  // Missing entries use the default sigma.
  model.default_sigma_km = 1.0;
  EXPECT_NEAR(model.pair_threshold(0, 99),
              0.02 + 3.0 * std::sqrt(0.09 + 1.0), 1e-12);
}

TEST(UncertaintyModel, MaxThresholdUsesTwoLargestSigmas) {
  UncertaintyModel model;
  model.sigma_km = {0.1, 0.9, 0.5, 0.7};
  model.default_sigma_km = 0.0;
  model.k_sigma = 2.0;
  model.hard_body_km = 0.0;
  EXPECT_NEAR(model.max_threshold(), 2.0 * std::sqrt(0.81 + 0.49), 1e-12);
  // No (distinct) pair can exceed it.
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = a + 1; b < 4; ++b) {
      EXPECT_LE(model.pair_threshold(a, b), model.max_threshold() + 1e-12);
    }
  }
}

TEST(UncertaintyScreening, TightPairsRequireCloserApproaches) {
  // Two engineered encounters at ~1.8 km: one pair with loose catalog
  // uncertainty (accepted), one with tight operator ephemerides
  // (rejected — 1.8 km is far beyond 3 sigma for them).
  Rng rng(0x51);
  KeplerElements target_a{7000.0, 1e-4, 0.9, 0.3, 0.0, 1.0};
  KeplerElements target_b{7050.0, 1e-4, 1.4, 2.3, 0.0, 4.0};
  std::vector<Satellite> sats{{0, target_a}, {1, target_b}};
  sats.push_back(testutil::make_interceptor(target_a, 1500.0, 1.8, rng, 2));
  sats.push_back(testutil::make_interceptor(target_b, 2500.0, 1.8, rng, 3));

  ScreeningConfig cfg;
  cfg.t_end = 4000.0;

  UncertaintyModel model;
  model.k_sigma = 3.0;
  model.hard_body_km = 0.02;
  model.sigma_km = {1.0, 0.05, 1.0, 0.05};  // pair (0,2) loose, pair (1,3) tight

  const ScreeningReport report =
      screen_with_uncertainty(sats, cfg, Variant::kGrid, model);

  bool found_loose = false, found_tight = false;
  for (const Conjunction& c : report.conjunctions) {
    if (c.sat_a == 0 && c.sat_b == 2) found_loose = true;
    if (c.sat_a == 1 && c.sat_b == 3) found_tight = true;
  }
  // Loose pair: threshold = 0.02 + 3*sqrt(2) ~ 4.3 km > 1.8 -> kept.
  EXPECT_TRUE(found_loose);
  // Tight pair: threshold = 0.02 + 3*sqrt(0.005) ~ 0.23 km < 1.8 -> dropped.
  EXPECT_FALSE(found_tight);

  // Every surviving conjunction satisfies its own pair threshold.
  for (const Conjunction& c : report.conjunctions) {
    EXPECT_LE(c.pca, model.pair_threshold(c.sat_a, c.sat_b));
  }
}

TEST(UncertaintyScreening, UniformSigmasReduceToPlainScreening) {
  Rng rng(0x52);
  KeplerElements target{7000.0, 1e-4, 1.0, 0.0, 0.0, 0.0};
  std::vector<Satellite> sats{{0, target}};
  sats.push_back(testutil::make_interceptor(target, 1200.0, 1.0, rng, 1));

  UncertaintyModel model;
  model.default_sigma_km = 0.4;
  model.k_sigma = 3.0;
  model.hard_body_km = 0.01;

  ScreeningConfig cfg;
  cfg.t_end = 2400.0;
  const ScreeningReport with_model =
      screen_with_uncertainty(sats, cfg, Variant::kGrid, model);

  cfg.threshold_km = model.max_threshold();
  const ScreeningReport plain = make_screener(Variant::kGrid)->screen(sats, cfg);

  // With uniform sigmas every pair threshold equals the max threshold, so
  // the filter removes nothing.
  ASSERT_EQ(with_model.conjunctions.size(), plain.conjunctions.size());
  for (std::size_t i = 0; i < plain.conjunctions.size(); ++i) {
    EXPECT_NEAR(with_model.conjunctions[i].pca, plain.conjunctions[i].pca, 1e-9);
  }
}

TEST(UncertaintyScreening, WorksWithEveryVariant) {
  Rng rng(0x53);
  KeplerElements target{7000.0, 1e-4, 0.7, 0.1, 0.0, 0.5};
  std::vector<Satellite> sats{{0, target}};
  sats.push_back(testutil::make_interceptor(target, 900.0, 0.5, rng, 1));

  UncertaintyModel model;
  model.default_sigma_km = 0.3;

  ScreeningConfig cfg;
  cfg.t_end = 1800.0;
  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
    const ScreeningReport report = screen_with_uncertainty(sats, cfg, v, model);
    bool found = false;
    for (const Conjunction& c : report.conjunctions) {
      if (c.sat_a == 0 && c.sat_b == 1 && std::abs(c.tca - 900.0) < 30.0) found = true;
    }
    EXPECT_TRUE(found) << variant_name(v);
  }
}

}  // namespace
}  // namespace scod
