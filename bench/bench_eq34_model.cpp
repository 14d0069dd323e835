/// Eqs. (3)-(4): the Extra-P-style empirical models of the candidate count
/// that size the conjunction hash map. We sweep (n, s_ps, d), measure the
/// actual number of candidates the grid front-end produces, and fit
/// c' = k * n^alpha * s^beta * d^gamma with the power-law fitter over
/// Extra-P's rational exponent grid — the same procedure (and functional
/// form) behind the paper's published models.

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "model/powerlaw_fit.hpp"

int main(int argc, char** argv) {
  using namespace scod;
  using namespace scod::bench;

  HarnessOptions opt = parse_harness_options(argc, argv);
  opt.span = 1800.0;  // shorter span: the sweep runs 27+ screenings
  print_banner("Eqs. (3)-(4): conjunction-count model fit",
               "paper Section V-B, Eqs. 3-4");

  const std::vector<double> ns{500, 1000, 2000};
  const std::vector<double> spss{2.0, 4.0, 8.0};
  const std::vector<double> ds{1.0, 2.0, 4.0};

  auto sweep = [&](Variant variant, double sps_scale) {
    std::vector<FitObservation> observations;
    for (double n : ns) {
      const auto sats = generate_population(
          {static_cast<std::size_t>(n), opt.seed});
      for (double sps : spss) {
        for (double d : ds) {
          ScreeningConfig cfg = make_config(opt);
          cfg.threshold_km = d;
          cfg.seconds_per_sample = sps * sps_scale;
          const ScreeningReport report = make_screener(variant)->screen(sats, cfg);
          observations.push_back(
              {{n, sps * sps_scale, d},
               static_cast<double>(report.stats.candidates)});
          std::printf("  %s n=%5.0f s=%4.0f d=%3.0f -> %zu candidates\n",
                      variant_name(variant).c_str(), n, sps * sps_scale, d,
                      report.stats.candidates);
          std::fflush(stdout);
        }
      }
    }
    return observations;
  };

  std::printf("sweep: n in {500,1000,2000}, d in {1,2,4} km, span %.0f s\n\n",
              opt.span);

  const auto grid_obs = sweep(Variant::kGrid, 1.0);
  const PowerLawFit grid_fit = fit_power_law(grid_obs, 3);

  const auto hybrid_obs = sweep(Variant::kHybrid, 2.0);
  const PowerLawFit hybrid_fit = fit_power_law(hybrid_obs, 3);

  std::printf("\n");
  TextTable table({"model", "coefficient", "n exponent", "s_ps exponent",
                   "d exponent", "R^2 (log)"});
  auto add = [&](const std::string& name, const PowerLawFit& fit) {
    char coeff[32];
    std::snprintf(coeff, sizeof(coeff), "%.3g", fit.coefficient);
    table.add_row({name, coeff, TextTable::num(fit.exponents[0], 3),
                   TextTable::num(fit.exponents[1], 3),
                   TextTable::num(fit.exponents[2], 3),
                   TextTable::num(fit.r_squared, 4)});
  };
  add("grid (fit)", grid_fit);
  add("hybrid (fit)", hybrid_fit);
  table.print(std::cout);

  std::printf(
      "\npaper models (for its population/testbed):\n"
      "  grid   Eq.(3): c' = 2.32e-9 * n^2 * s^(4/3) * t * d^(7/4)\n"
      "  hybrid Eq.(4): c' = 2.14e-9 * n^2 * s^(5/3) * t * d^(1)\n"
      "The n exponent ~2 is the structural prediction (within one radial\n"
      "shell candidate pairs grow quadratically, Section III-B); the s and d\n"
      "exponents depend on the population's density profile, so coefficients\n"
      "differ from the paper's catalog-derived values.\n");
  return 0;
}
