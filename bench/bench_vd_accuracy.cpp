/// Section V-D: accuracy — number of conjunctions and colliding pairs
/// found by the legacy, grid and hybrid variants on the same population.
///
/// The paper (64,000 satellites): legacy 17,184 conjunctions, grid 17,264,
/// hybrid 17,242; the hybrid finds every legacy pair plus 30, the grid
/// misses 5 pairs and adds 35. This harness reproduces the comparison at
/// laptop scale and prints the same missed/extra pair accounting.

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace scod;
  using namespace scod::bench;

  HarnessOptions opt = parse_harness_options(argc, argv);
  print_banner("Section V-D: accuracy comparison", "paper Section V-D");

  const auto n = static_cast<std::size_t>(
      std::min<std::int64_t>(opt.sizes.back(), opt.legacy_max));
  const auto sats = generate_population({n, opt.seed});
  std::printf("population: %zu satellites, span %.0f s, threshold %.1f km\n\n", n,
              opt.span, opt.threshold);

  ScreeningConfig grid_cfg = make_config(opt);
  grid_cfg.seconds_per_sample = opt.sps_grid;
  ScreeningConfig hybrid_cfg = make_config(opt);
  hybrid_cfg.seconds_per_sample = opt.sps_hybrid;

  const ScreeningReport legacy =
      make_screener(Variant::kLegacy)->screen(sats, make_config(opt));
  const ScreeningReport grid = make_screener(Variant::kGrid)->screen(sats, grid_cfg);
  const ScreeningReport hybrid =
      make_screener(Variant::kHybrid)->screen(sats, hybrid_cfg);
  const ScreeningReport sieve =
      make_screener(Variant::kSieve)->screen(sats, make_config(opt));

  TextTable counts({"variant", "conjunctions", "colliding pairs"});
  auto add = [&](const std::string& name, const ScreeningReport& r) {
    counts.add_row({name,
                    TextTable::integer(static_cast<long long>(r.conjunctions.size())),
                    TextTable::integer(static_cast<long long>(r.colliding_pairs().size()))});
  };
  add("legacy", legacy);
  add("grid", grid);
  add("hybrid", hybrid);
  add("sieve (extension)", sieve);
  counts.print(std::cout);

  const auto legacy_pairs = legacy.colliding_pairs();
  const auto grid_pairs = grid.colliding_pairs();
  const auto hybrid_pairs = hybrid.colliding_pairs();

  const PairSetDiff lg = compare_pair_sets(legacy_pairs, grid_pairs);
  const PairSetDiff lh = compare_pair_sets(legacy_pairs, hybrid_pairs);
  const PairSetDiff ls = compare_pair_sets(legacy_pairs, sieve.colliding_pairs());

  std::printf("\npair-set comparison against legacy:\n");
  std::printf("  grid  : %zu common, misses %zu legacy pairs, finds %zu extra\n",
              lg.common, lg.only_in_first, lg.only_in_second);
  std::printf("  hybrid: %zu common, misses %zu legacy pairs, finds %zu extra\n",
              lh.common, lh.only_in_first, lh.only_in_second);
  std::printf("  sieve : %zu common, misses %zu legacy pairs, finds %zu extra\n",
              ls.common, ls.only_in_first, ls.only_in_second);
  std::printf(
      "\npaper reference (64,000 objects): legacy 17,184 / grid 17,264 /\n"
      "hybrid 17,242 conjunctions; hybrid missed 0 pairs (+30 extra), grid\n"
      "missed 5 (+35 extra), all edge cases within 50 m of the threshold.\n");

  if (!opt.csv.empty()) {
    CsvWriter csv(opt.csv, {"variant", "conjunctions", "pairs"});
    csv.add_row({"legacy", std::to_string(legacy.conjunctions.size()),
                 std::to_string(legacy_pairs.size())});
    csv.add_row({"grid", std::to_string(grid.conjunctions.size()),
                 std::to_string(grid_pairs.size())});
    csv.add_row({"hybrid", std::to_string(hybrid.conjunctions.size()),
                 std::to_string(hybrid_pairs.size())});
  }
  return 0;
}
