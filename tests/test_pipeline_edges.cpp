#include <gtest/gtest.h>

#include <cmath>

#include "core/grid_pipeline.hpp"
#include "core/grid_screener.hpp"
#include "core/screener.hpp"
#include "model/conjunction_model.hpp"
#include "model/sizing.hpp"
#include "filters/dense_scan.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

std::vector<Satellite> small_shell(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Satellite> sats;
  for (std::size_t i = 0; i < n; ++i) {
    KeplerElements el;
    el.semi_major_axis = 7000.0 + rng.uniform(-5.0, 5.0);
    el.eccentricity = rng.uniform(0.0, 1e-4);
    el.inclination = rng.uniform(0.2, kPi - 0.2);
    el.raan = rng.uniform(0.0, kTwoPi);
    el.arg_perigee = rng.uniform(0.0, kTwoPi);
    el.mean_anomaly = rng.uniform(0.0, kTwoPi);
    sats.push_back({static_cast<std::uint32_t>(i), el});
  }
  return sats;
}

TEST(PipelineEdges, HostBudgetTooSmallThrows) {
  const auto sats = small_shell(500, 1);
  ScreeningConfig cfg;
  cfg.t_end = 600.0;
  cfg.memory_budget = 64 << 10;  // 64 KiB: not even one grid + candidate map
  EXPECT_THROW(make_screener(Variant::kGrid)->screen(sats, cfg), std::runtime_error);
}

TEST(PipelineEdges, HostBudgetSizesThePlan) {
  // config.memory_budget drives the sizing: a small budget splits the span
  // into several rounds, and the report does not change.
  const auto sats = small_shell(200, 2);
  ScreeningConfig roomy;
  roomy.t_end = 1800.0;
  const auto reference = make_screener(Variant::kGrid)->screen(sats, roomy);
  ASSERT_EQ(reference.stats.rounds, 1u);

  ScreeningConfig tight = roomy;
  tight.memory_budget = 3 << 20;  // 3 MiB
  const auto constrained = make_screener(Variant::kGrid)->screen(sats, tight);

  EXPECT_GT(constrained.stats.rounds, 1u);
  EXPECT_EQ(constrained.stats.seconds_per_sample, reference.stats.seconds_per_sample);
  EXPECT_EQ(constrained.stats.candidates, reference.stats.candidates);
  ASSERT_EQ(constrained.conjunctions.size(), reference.conjunctions.size());
  for (std::size_t i = 0; i < reference.conjunctions.size(); ++i) {
    const Conjunction& c = constrained.conjunctions[i];
    const Conjunction& r = reference.conjunctions[i];
    EXPECT_EQ(c.sat_a, r.sat_a) << i;
    EXPECT_EQ(c.sat_b, r.sat_b) << i;
    EXPECT_EQ(c.tca, r.tca) << i;  // bit-identical, not within a tolerance
    EXPECT_EQ(c.pca, r.pca) << i;
  }
}

/// Exact equality of two reports' conjunctions (zero ULPs of slack).
void expect_same_conjunctions(const ScreeningReport& actual,
                              const ScreeningReport& expected) {
  ASSERT_EQ(actual.conjunctions.size(), expected.conjunctions.size());
  for (std::size_t i = 0; i < expected.conjunctions.size(); ++i) {
    const Conjunction& c = actual.conjunctions[i];
    const Conjunction& r = expected.conjunctions[i];
    EXPECT_EQ(c.sat_a, r.sat_a) << i;
    EXPECT_EQ(c.sat_b, r.sat_b) << i;
    EXPECT_EQ(c.tca, r.tca) << i;
    EXPECT_EQ(c.pca, r.pca) << i;
  }
}

TEST(PipelineEdges, HybridHostBudgetSizesThePlan) {
  // The hybrid variant shares the grid front-end: a small budget splits
  // its span into rounds too, and the filtered report does not change.
  const auto sats = small_shell(200, 4);
  ScreeningConfig roomy;
  roomy.threshold_km = 5.0;
  roomy.t_end = 3600.0;
  const auto screener = make_screener(Variant::kHybrid);
  const auto reference = screener->screen(sats, roomy);
  ASSERT_EQ(reference.stats.rounds, 1u);
  ASSERT_GT(reference.conjunctions.size(), 0u);

  ScreeningConfig tight = roomy;
  tight.memory_budget = 2 << 20;  // 2 MiB
  const auto constrained = screener->screen(sats, tight);

  EXPECT_GT(constrained.stats.rounds, 1u);
  EXPECT_EQ(constrained.stats.candidates, reference.stats.candidates);
  EXPECT_EQ(constrained.stats.pairs_examined, reference.stats.pairs_examined);
  expect_same_conjunctions(constrained, reference);
}

TEST(PipelineEdges, HostBudgetReducesSamplingPeriod) {
  // Fig. 10c: when the Eq. 3 candidate reservation alone busts the memory
  // budget, the pipeline halves s_ps until it fits. An inflated count model
  // makes the reservation dominate; the budget leaves room for it at 4 s
  // but not at 8 s, so an 8 s request must run at 4 s.
  const auto sats = small_shell(200, 6);
  ScreeningConfig cfg;
  cfg.t_end = 1800.0;
  cfg.seconds_per_sample = 8.0;

  GridPipelineOptions options = GridScreener::default_options();
  options.count_model.coefficient = 2.5e-4;
  auto plan_at = [&](double sps) {
    SizingRequest request;
    request.satellites = sats.size();
    request.span_seconds = cfg.span_seconds();
    request.seconds_per_sample = sps;
    request.candidate_capacity = candidate_capacity_from_model(
        options.count_model, static_cast<double>(sats.size()), sps,
        cfg.span_seconds(), cfg.threshold_km);
    request.memory_budget = ~std::uint64_t{0};
    return plan_samples(request);
  };
  const SizingPlan at4 = plan_at(4.0);
  const SizingPlan at8 = plan_at(8.0);
  cfg.memory_budget = at4.fixed_bytes + 4 * at4.per_grid_bytes;
  ASSERT_GT(at8.fixed_bytes + at8.per_grid_bytes, cfg.memory_budget);

  const ScreeningReport reduced = GridScreener(options).screen(sats, cfg);
  EXPECT_EQ(reduced.stats.seconds_per_sample, 4.0);
  EXPECT_EQ(reduced.stats.parallel_samples, 4u);
  EXPECT_GT(reduced.stats.rounds, 1u);

  // Same screen as asking for 4 s with room to spare.
  ScreeningConfig at_4s = cfg;
  at_4s.seconds_per_sample = 4.0;
  at_4s.memory_budget = ScreeningConfig{}.memory_budget;
  const ScreeningReport direct = GridScreener().screen(sats, at_4s);
  EXPECT_EQ(direct.stats.rounds, 1u);
  EXPECT_EQ(reduced.stats.cell_size_km, direct.stats.cell_size_km);
  EXPECT_EQ(reduced.stats.candidates, direct.stats.candidates);
  expect_same_conjunctions(reduced, direct);
}

TEST(PipelineEdges, HeoApogeesBeyondCubeAreClampedSafely) {
  // Objects whose apogee leaves the (85,000 km)^3 cube clamp into the
  // boundary cells. Distant clamped objects may share a boundary cell,
  // but the distance prefilter / refinement must never turn that into a
  // false conjunction — and the run must not crash or hang.
  std::vector<Satellite> sats;
  // Two GTO-like orbits with apogee ~ 80,000 km in different planes.
  sats.push_back({0, {44000.0, 0.84, 0.4, 0.0, 0.0, 0.0}});
  sats.push_back({1, {44000.0, 0.84, 1.2, 2.0, 1.0, 0.1}});
  // And a LEO pair for contrast.
  sats.push_back({2, {7000.0, 1e-4, 0.5, 0.0, 0.0, 0.0}});
  sats.push_back({3, {7200.0, 1e-4, 1.5, 1.0, 0.0, 1.0}});

  ScreeningConfig cfg;
  cfg.t_end = 20000.0;
  const auto report = make_screener(Variant::kGrid)->screen(sats, cfg);

  // Oracle check: no pair actually approaches within the threshold.
  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(sats, solver);
  for (const Conjunction& c : report.conjunctions) {
    const double d = prop.distance(c.sat_a, c.sat_b, c.tca);
    EXPECT_LE(d, cfg.threshold_km + 1e-6)
        << "false conjunction " << c.sat_a << "-" << c.sat_b;
  }
}

TEST(PipelineEdges, EncounterAtSpanStartIsReported) {
  // An approach already at its minimum at t_begin: the clamped edge
  // minimum must be reported (Section IV-C span-boundary rule).
  Rng rng(0xE0);
  KeplerElements target{7000.0, 1e-4, 0.8, 0.2, 0.0, 0.7};
  std::vector<Satellite> sats{{0, target}};
  sats.push_back(testutil::make_interceptor(target, 0.0, 1.0, rng, 1));

  ScreeningConfig cfg;
  cfg.t_end = 1200.0;
  const auto report = make_screener(Variant::kGrid)->screen(sats, cfg);
  bool found = false;
  for (const Conjunction& c : report.conjunctions) {
    if (c.tca < 10.0 && c.pca < 2.0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PipelineEdges, StreamingWithSingleRoundStillWorks) {
  // Degenerate streaming: everything fits into one round; the sink gets
  // exactly one callback carrying all conjunctions.
  const auto sats = small_shell(40, 5);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 3000.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(sats, solver);
  const GridScreener screener;
  const auto batch = screener.screen(prop, cfg);

  std::size_t callbacks = 0;
  std::size_t streamed = 0;
  const auto report = screener.screen_streaming(
      prop, cfg, [&](std::size_t, std::span<const Conjunction> out) {
        ++callbacks;
        streamed += out.size();
      });
  EXPECT_EQ(report.stats.rounds, 1u);
  EXPECT_EQ(callbacks, 1u);
  EXPECT_EQ(streamed, batch.conjunctions.size());
}

}  // namespace
}  // namespace scod
