/// Section V-C1: relative time consumption of the pipeline phases.
///
/// The paper reports, e.g., the hybrid GPU variant spending 68% in
/// conjunction detection (CD), 21% in insertion (INS) and 9% in the
/// coplanarity/orbital filters; the grid CPU variant 92% CD / 7% INS.
/// This harness runs each CPU variant and prints the same breakdown (the
/// GPU rows are not reproduced).

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace scod;
  using namespace scod::bench;

  HarnessOptions opt = parse_harness_options(argc, argv);
  print_banner("Section V-C1: relative phase time consumption",
               "paper Section V-C1");

  const auto n = static_cast<std::size_t>(opt.sizes.back());
  const auto sats = generate_population({n, opt.seed});
  std::printf("population: %zu satellites, span %.0f s\n\n", n, opt.span);

  TextTable table({"variant", "ALLOC %", "INS %", "CD %", "FILTER %", "REFINE %",
                   "total [s]"});

  auto add = [&](const std::string& name, const ScreeningReport& report) {
    const PhaseTimings& t = report.timings;
    const double total = t.total();
    auto pct = [&](double v) { return TextTable::num(100.0 * v / total, 1); };
    table.add_row({name, pct(t.allocation), pct(t.insertion), pct(t.detection),
                   pct(t.filtering), pct(t.refinement), TextTable::num(total, 3)});
  };

  ScreeningConfig grid_cfg = make_config(opt);
  grid_cfg.seconds_per_sample = opt.sps_grid;
  ScreeningConfig hybrid_cfg = make_config(opt);
  hybrid_cfg.seconds_per_sample = opt.sps_hybrid;

  add("grid-cpu", make_screener(Variant::kGrid)->screen(sats, grid_cfg));
  add("hybrid-cpu", make_screener(Variant::kHybrid)->screen(sats, hybrid_cfg));

  if (static_cast<std::int64_t>(n) <= opt.legacy_max) {
    add("legacy", make_screener(Variant::kLegacy)->screen(sats, make_config(opt)));
  }

  table.print(std::cout);
  std::printf(
      "\npaper reference: grid CPU 92%% CD / 7%% INS; hybrid CPU 87%% CD /\n"
      "9%% INS / 3%% coplanarity; grid GPU 72%% CD / 26%% INS; hybrid GPU\n"
      "68%% CD / 21%% INS / 9%% coplanarity. (Our FILTER column contains the\n"
      "whole filter chain including the coplanarity check; REFINE is the\n"
      "Brent PCA/TCA stage the paper folds into CD.)\n");
  return 0;
}
