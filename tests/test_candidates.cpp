// Candidate detection against a brute-force enumeration, and the
// determinism of the candidate order.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/grid_pipeline.hpp"
#include "core/grid_screener.hpp"
#include "core/hybrid_screener.hpp"
#include "orbit/geometry.hpp"
#include "parallel/thread_pool.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "spatial/cell.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

/// A thin spherical shell: dense enough that many cells hold several
/// objects and neighbouring cells pair up at every step.
std::vector<Satellite> shell(std::size_t n, std::uint64_t seed) {
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

ScreeningConfig make_config(double span = 1800.0) {
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = span;
  return cfg;
}

/// Every (pair, step) whose cells differ by at most one on each axis,
/// minus the pairs the pipeline's dirty mask and distance prefilter drop,
/// in (step, sat_a, sat_b) order. Uses neither the grid, nor the stencil,
/// nor the pipeline's chunking.
std::vector<Candidate> brute_force(const Propagator& propagator,
                                   const ScreeningConfig& config,
                                   const GridPipelineOptions& options,
                                   const GridPipelineResult& pipeline) {
  const std::size_t n = propagator.size();
  const CellIndexer indexer(pipeline.cell_size);
  std::vector<double> vmax(n);
  for (std::size_t i = 0; i < n; ++i) vmax[i] = max_speed(propagator.elements(i));
  const double half_sps = 0.5 * pipeline.sample_period;

  std::vector<Candidate> out;
  std::vector<Vec3> pos(n);
  std::vector<CellCoord> cell(n);
  for (std::uint32_t step = 0; step < pipeline.plan.total_samples; ++step) {
    const double t = pipeline.sample_time(step, config.t_begin, config.t_end);
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = propagator.position(i, t);
      cell[i] = indexer.cell_of(pos[i]);
    }
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (std::abs(cell[a].x - cell[b].x) > 1 ||
            std::abs(cell[a].y - cell[b].y) > 1 ||
            std::abs(cell[a].z - cell[b].z) > 1) {
          continue;
        }
        if (!options.dirty_mask.empty() && options.dirty_mask[a] == 0 &&
            options.dirty_mask[b] == 0) {
          continue;
        }
        if (options.distance_prefilter) {
          const double cutoff = config.threshold_km + half_sps * (vmax[a] + vmax[b]);
          if ((pos[a] - pos[b]).norm2() > cutoff * cutoff) continue;
        }
        out.push_back({a, b, step});
      }
    }
  }
  return out;
}

void expect_matches_brute_force(const std::vector<Satellite>& sats,
                                const ScreeningConfig& cfg,
                                const GridPipelineOptions& options) {
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  const GridPipelineResult pipeline = run_grid_pipeline(propagator, cfg, options);
  const std::vector<Candidate> expected =
      brute_force(propagator, cfg, options, pipeline);
  ASSERT_GT(expected.size(), 0u);
  EXPECT_EQ(pipeline.total_candidates, expected.size());
  EXPECT_EQ(pipeline.candidates, expected);
}

TEST(CandidateEnumeration, GridMatchesBruteForce) {
  expect_matches_brute_force(shell(150, 1), make_config(),
                             GridScreener::default_options());
}

TEST(CandidateEnumeration, GridWithoutPrefilterMatchesBruteForce) {
  GridPipelineOptions options = GridScreener::default_options();
  options.distance_prefilter = false;
  expect_matches_brute_force(shell(120, 2), make_config(), options);
}

TEST(CandidateEnumeration, HybridMatchesBruteForce) {
  // The hybrid's 16 s sampling gives ~130 km cells holding many objects.
  expect_matches_brute_force(shell(150, 3), make_config(),
                             HybridScreener::default_options());
}

TEST(CandidateEnumeration, DirtyMaskMatchesBruteForce) {
  const auto sats = shell(150, 4);
  std::vector<std::uint8_t> dirty(sats.size(), 0);
  for (std::size_t i = 0; i < dirty.size(); i += 7) dirty[i] = 1;

  GridPipelineOptions grid = GridScreener::default_options();
  grid.dirty_mask = dirty;
  expect_matches_brute_force(sats, make_config(), grid);

  GridPipelineOptions hybrid = HybridScreener::default_options();
  hybrid.dirty_mask = dirty;
  expect_matches_brute_force(sats, make_config(), hybrid);
}

/// Runs the streaming pipeline and returns each round's candidates in
/// round order, checking that the sink sees the rounds one by one.
std::vector<std::vector<Candidate>> stream_rounds(const Propagator& propagator,
                                                  const ScreeningConfig& config,
                                                  const GridPipelineOptions& options,
                                                  GridPipelineResult& pipeline) {
  std::vector<std::vector<Candidate>> rounds;
  pipeline = run_grid_pipeline_streaming(
      propagator, config, options,
      [&](std::size_t round, std::vector<Candidate>&& candidates,
          const GridPipelineResult&) {
        EXPECT_EQ(round, rounds.size());
        rounds.push_back(std::move(candidates));
      });
  EXPECT_EQ(rounds.size(), pipeline.plan.rounds);
  EXPECT_TRUE(pipeline.candidates.empty());
  return rounds;
}

void expect_streaming_matches_brute_force(const std::vector<Satellite>& sats,
                                          const ScreeningConfig& cfg,
                                          const GridPipelineOptions& options) {
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  GridPipelineResult pipeline;
  std::vector<Candidate> streamed;
  for (const std::vector<Candidate>& round :
       stream_rounds(propagator, cfg, options, pipeline)) {
    streamed.insert(streamed.end(), round.begin(), round.end());
  }
  EXPECT_GT(pipeline.plan.rounds, 1u);
  EXPECT_EQ(pipeline.total_candidates, streamed.size());
  const std::vector<Candidate> expected =
      brute_force(propagator, cfg, options, pipeline);
  ASSERT_GT(expected.size(), 0u);
  EXPECT_EQ(streamed, expected);
}

TEST(CandidateEnumeration, StreamingRoundsConcatenateToBruteForce) {
  ScreeningConfig cfg = make_config();
  cfg.memory_budget = 2 << 20;  // several rounds
  expect_streaming_matches_brute_force(shell(150, 5), cfg,
                                       GridScreener::default_options());
}

TEST(CandidateEnumeration, StreamingHybridWithDirtyMaskMatchesBruteForce) {
  const auto sats = shell(150, 9);
  std::vector<std::uint8_t> dirty(sats.size(), 0);
  for (std::size_t i = 0; i < dirty.size(); i += 5) dirty[i] = 1;
  ScreeningConfig cfg = make_config();
  cfg.memory_budget = 1 << 20;  // several rounds at the hybrid's 16 s sampling
  GridPipelineOptions options = HybridScreener::default_options();
  options.dirty_mask = dirty;
  expect_streaming_matches_brute_force(sats, cfg, options);
}

TEST(CandidateEnumeration, WarmContextBuffersCarryNoStaleCandidates) {
  // A population large enough that each step's grid splits into several
  // detection chunks fills many buffers; a smaller screen through the same
  // context then checks out fewer, already-used buffers, and the large one
  // after it carries those over and adds fresh ones. Every screen must
  // still match the brute force exactly.
  const auto big = shell(3000, 7);
  const auto small = shell(150, 8);
  ScreeningContext context;
  GridPipelineOptions options = GridScreener::default_options();
  options.context = &context;

  expect_matches_brute_force(big, make_config(120.0), options);
  const std::uint64_t rebuilds = context.arena().stats().candidate_rebuilds;
  expect_matches_brute_force(small, make_config(), options);
  expect_matches_brute_force(big, make_config(120.0), options);

  const ScratchArena::Stats& stats = context.arena().stats();
  EXPECT_GT(stats.candidate_reuses, 0u);
  EXPECT_GT(stats.candidate_rebuilds, rebuilds);
}

TEST(CandidateOrder, IndependentOfThreadCountAndRepeats) {
  // Large enough that each step's grid splits into several detection
  // chunks and the concurrent inserts interleave differently run to run.
  const auto sats = shell(3000, 6);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ThreadPool one(1);
  ThreadPool four(4);

  for (const GridPipelineOptions& options :
       {GridScreener::default_options(), HybridScreener::default_options()}) {
    ScreeningConfig cfg = make_config(600.0);
    cfg.pool = &one;
    const std::vector<Candidate> reference =
        run_grid_pipeline(propagator, cfg, options).candidates;
    ASSERT_GT(reference.size(), 0u);

    cfg.pool = &four;
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(run_grid_pipeline(propagator, cfg, options).candidates, reference)
          << "repeat " << repeat;
    }
  }
}

TEST(CandidateOrder, StreamingRoundsIndependentOfThreadCount) {
  const auto sats = shell(3000, 10);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ThreadPool one(1);
  ThreadPool four(4);

  ScreeningConfig cfg = make_config(600.0);
  cfg.memory_budget = 8 << 20;  // several rounds
  cfg.pool = &one;
  GridPipelineResult pipeline;
  const GridPipelineOptions options = GridScreener::default_options();
  const std::vector<std::vector<Candidate>> reference =
      stream_rounds(propagator, cfg, options, pipeline);
  ASSERT_GT(pipeline.plan.rounds, 1u);
  ASSERT_GT(pipeline.total_candidates, 0u);

  cfg.pool = &four;
  EXPECT_EQ(stream_rounds(propagator, cfg, options, pipeline), reference);
}

}  // namespace
}  // namespace scod
