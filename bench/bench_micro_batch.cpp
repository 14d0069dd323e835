/// Scalar vs batched propagation throughput: the grid pipeline's INS phase
/// propagates every satellite at every sample, and PR "batched SoA kernel"
/// replaced its one-virtual-call-per-tuple loop with
/// TwoBodyPropagator::positions_at over the SoA mirror. This harness
/// measures positions/s of both paths at several population sizes and
/// checks they agree to 1e-12 km (they are bit-identical by construction);
/// it exits 1 when they do not.
///
///   ./bench_micro_batch --sizes 10000,100000,1000000 --json out.json
///
/// Committed snapshots follow the BENCH_<tag>.json convention (repo root).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "orbit/elements.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace {

using namespace scod;
using namespace scod::bench;

/// LEO-band population synthesized directly from the RNG — the KDE-based
/// generator is overkill (and slow) for a million-element throughput probe.
std::vector<Satellite> synthetic_population(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Satellite> sats(n);
  for (std::size_t i = 0; i < n; ++i) {
    KeplerElements e;
    e.semi_major_axis = rng.uniform(6800.0, 8200.0);
    e.eccentricity = rng.uniform(0.0, 0.05);
    e.inclination = rng.uniform(0.0, kPi);
    e.raan = rng.uniform(0.0, kTwoPi);
    e.arg_perigee = rng.uniform(0.0, kTwoPi);
    e.mean_anomaly = rng.uniform(0.0, kTwoPi);
    sats[i] = {static_cast<std::uint32_t>(i), e};
  }
  return sats;
}

struct Throughput {
  double scalar_pos_per_s = 0.0;
  double batch_pos_per_s = 0.0;
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  double max_diff_km = 0.0;
};

Throughput measure(const TwoBodyPropagator& prop, std::int64_t repeats) {
  const std::size_t n = prop.size();
  // Enough samples that even the 10k case runs for a measurable while.
  const std::size_t samples = std::max<std::size_t>(1'000'000 / n, 4);

  std::vector<Vec3> scalar_out(n);
  std::vector<Vec3> batch_out(n);

  Throughput result;
  const auto sample_time = [](std::size_t s) {
    return 7.3 * static_cast<double>(s);  // irrational-ish stride, ~anomaly sweep
  };

  result.scalar_seconds = median_seconds(
      [&] {
        for (std::size_t s = 0; s < samples; ++s) {
          const double t = sample_time(s);
          for (std::size_t i = 0; i < n; ++i) scalar_out[i] = prop.position(i, t);
        }
      },
      repeats);
  result.batch_seconds = median_seconds(
      [&] {
        for (std::size_t s = 0; s < samples; ++s) {
          prop.positions_at(sample_time(s), 0, n, batch_out.data());
        }
      },
      repeats);

  // Equivalence check at the last sample (both buffers hold it now).
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 d{scalar_out[i].x - batch_out[i].x, scalar_out[i].y - batch_out[i].y,
                 scalar_out[i].z - batch_out[i].z};
    result.max_diff_km = std::max(result.max_diff_km, d.norm());
  }

  const double positions = static_cast<double>(n) * static_cast<double>(samples);
  result.scalar_pos_per_s = positions / result.scalar_seconds;
  result.batch_pos_per_s = positions / result.batch_seconds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"sizes", "repeats", "seed", "json"});
  if (!args.unknown().empty()) {
    std::fprintf(stderr, "unknown option: %s\n", args.unknown().front().c_str());
    std::fprintf(stderr,
                 "known: --sizes a,b,c --repeats R --seed S --json PATH\n");
    return 2;
  }
  const std::vector<std::int64_t> sizes =
      args.get_int_list("sizes", {10'000, 100'000, 1'000'000});
  const std::int64_t repeats = args.get_int("repeats", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  JsonBenchWriter json(args.get_string("json", ""));

  print_banner("Batched SoA propagation kernel: scalar vs batched",
               "INS phase inner loop (paper Section V-B/V-C)");

  const ContourKeplerSolver solver;
  bool all_equivalent = true;

  std::printf("%10s %16s %16s %9s %14s\n", "n", "scalar [pos/s]", "batch [pos/s]",
              "speedup", "max diff [km]");
  for (const std::int64_t n64 : sizes) {
    const auto n = static_cast<std::size_t>(n64);
    const auto sats = synthetic_population(n, seed);
    const TwoBodyPropagator prop(sats, solver);
    const Throughput t = measure(prop, repeats);

    const double speedup = t.batch_pos_per_s / t.scalar_pos_per_s;
    std::printf("%10zu %16.3e %16.3e %8.2fx %14.3e\n", n, t.scalar_pos_per_s,
                t.batch_pos_per_s, speedup, t.max_diff_km);
    std::fflush(stdout);
    if (t.max_diff_km > 1e-12) all_equivalent = false;

    json.record("micro_positions", n, "scalar", t.scalar_seconds, 0);
    json.record("micro_positions", n, "batch", t.batch_seconds, 0);
  }

  if (!all_equivalent) {
    std::fprintf(stderr, "FAIL: batch/scalar positions differ by more than 1e-12 km\n");
    return 1;
  }
  std::printf("\nbatch/scalar positions agree to 1e-12 km on every size\n");
  return 0;
}
