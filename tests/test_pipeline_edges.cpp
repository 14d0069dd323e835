#include <gtest/gtest.h>

#include <cmath>

#include "core/grid_pipeline.hpp"
#include "core/screen.hpp"
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
  EXPECT_THROW(screen(sats, cfg, Variant::kGrid), std::runtime_error);
}

TEST(PipelineEdges, DeviceMemorySizesThePlan) {
  // The devicesim capacity, not the host budget, must drive the sizing:
  // a tiny device forces multiple rounds even though the host budget is
  // huge, and the result stays correct.
  const auto sats = small_shell(200, 2);
  ScreeningConfig roomy;
  roomy.t_end = 1800.0;
  const auto reference = screen(sats, roomy, Variant::kGrid);

  DeviceProperties props;
  props.memory_bytes = 3 << 20;  // 3 MiB device
  Device tiny(props);
  ScreeningConfig dev_cfg = roomy;
  dev_cfg.device = &tiny;
  dev_cfg.memory_budget = 1ull << 40;  // irrelevant in device mode
  const auto constrained = screen(sats, dev_cfg, Variant::kGrid);

  EXPECT_GT(constrained.stats.rounds, 1u);
  ASSERT_EQ(constrained.conjunctions.size(), reference.conjunctions.size());
  for (std::size_t i = 0; i < reference.conjunctions.size(); ++i) {
    EXPECT_EQ(constrained.conjunctions[i].sat_a, reference.conjunctions[i].sat_a);
    EXPECT_NEAR(constrained.conjunctions[i].tca, reference.conjunctions[i].tca, 1e-3);
  }
  EXPECT_EQ(tiny.memory_used(), 0u);  // everything released
}

TEST(PipelineEdges, DeviceTooSmallThrows) {
  const auto sats = small_shell(2000, 3);
  DeviceProperties props;
  props.memory_bytes = 64 << 10;  // 64 KiB device
  Device tiny(props);
  ScreeningConfig cfg;
  cfg.t_end = 600.0;
  cfg.device = &tiny;
  EXPECT_THROW(screen(sats, cfg, Variant::kGrid), std::runtime_error);
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
  const auto report = screen(sats, cfg, Variant::kGrid);

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
  const auto report = screen(sats, cfg, Variant::kGrid);
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
