/// Micro-benchmarks of the PCA/TCA refinement: the Brent minimizer against
/// the golden-section fallback, and a full refine_candidate_fn() on a
/// realistic two-satellite encounter (the step-4 hot loop).

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "pca/brent.hpp"
#include "pca/refine.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"

namespace {

using namespace scod;

void BM_BrentQuadratic(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = brent_minimize(
        [](double x) { return (x - 3.3) * (x - 3.3) + 1.0; }, 0.0, 10.0, 1e-8);
    benchmark::DoNotOptimize(r.x);
  }
}
BENCHMARK(BM_BrentQuadratic);

void BM_GoldenQuadratic(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = golden_section_minimize(
        [](double x) { return (x - 3.3) * (x - 3.3) + 1.0; }, 0.0, 10.0, 1e-8);
    benchmark::DoNotOptimize(r.x);
  }
}
BENCHMARK(BM_GoldenQuadratic);

void BM_RefineCandidate(benchmark::State& state) {
  // Two near-intersecting orbits; refine around the encounter sample, as
  // the grid variant does for every candidate.
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{
      {0, {7000.0, 0.0001, 0.0, 0.0, 0.0, 0.0}},
      {1, {7000.0, 0.0001, kPi / 2.0, 0.0, 0.0, 0.01}},
  };
  const TwoBodyPropagator prop(sats, solver);

  // Locate the encounter once.
  double best_t = 0.0, best_d = 1e300;
  for (double t = 0.0; t < 6000.0; t += 1.0) {
    const double d = prop.distance(0, 1, t);
    if (d < best_d) {
      best_d = d;
      best_t = t;
    }
  }

  for (auto _ : state) {
    const auto enc = refine_candidate_fn(
        [&prop](double t) { return prop.distance(0, 1, t); }, best_t + 2.0, 20.0, 0.0,
        6000.0);
    benchmark::DoNotOptimize(enc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RefineCandidate);

void BM_PairDistance(benchmark::State& state) {
  // One objective evaluation of the Brent search.
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{
      {0, {7000.0, 0.0001, 0.0, 0.0, 0.0, 0.0}},
      {1, {7050.0, 0.01, 1.0, 0.5, 0.2, 0.7}},
  };
  const TwoBodyPropagator prop(sats, solver);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.distance(0, 1, t));
    t += 0.13;
  }
}
BENCHMARK(BM_PairDistance);

}  // namespace
