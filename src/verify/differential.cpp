#include "verify/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "core/context.hpp"
#include "obs/telemetry.hpp"
#include "service/screening_service.hpp"

namespace scod::verify {

namespace {

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::string event_detail(const char* what, const Conjunction& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %u-%u tca=%.3f pca=%.6f", what, c.sat_a,
                c.sat_b, c.tca, c.pca);
  return buf;
}

/// Diffs one screener's report against the oracle record (which extends to
/// slack * threshold so soundness can be checked above the threshold too).
void diff_against_oracle(const std::string& name,
                         const std::vector<Conjunction>& report,
                         const std::vector<Conjunction>& oracle,
                         double threshold, const DiffTolerances& tol,
                         std::vector<Divergence>& out) {
  std::unordered_map<std::uint64_t, std::vector<const Conjunction*>> by_pair;
  for (const Conjunction& c : oracle) {
    by_pair[pair_key(c.sat_a, c.sat_b)].push_back(&c);
  }

  const double band_lo = threshold * (1.0 - tol.threshold_band);

  // Completeness: every oracle event comfortably below the threshold must
  // appear in the report (the grid guarantee of Fig. 4 admits no skips).
  std::unordered_map<std::uint64_t, std::vector<const Conjunction*>> report_by_pair;
  for (const Conjunction& c : report) {
    report_by_pair[pair_key(c.sat_a, c.sat_b)].push_back(&c);
  }
  for (const Conjunction& c : oracle) {
    if (c.pca > band_lo) continue;
    bool found = false;
    const auto it = report_by_pair.find(pair_key(c.sat_a, c.sat_b));
    if (it != report_by_pair.end()) {
      for (const Conjunction* r : it->second) {
        if (std::abs(r->tca - c.tca) <= tol.tca_window) {
          found = true;
          break;
        }
      }
    }
    if (!found) {
      out.push_back({name, Divergence::Kind::kMissed, c,
                     event_detail("missed oracle event", c)});
    }
  }

  // Soundness: everything reported must be sub-threshold and correspond to
  // an oracle event with an agreeing PCA.
  for (const Conjunction& c : report) {
    if (c.pca > threshold * (1.0 + 1e-9)) {
      out.push_back({name, Divergence::Kind::kSpurious, c,
                     event_detail("above-threshold report", c)});
      continue;
    }
    const Conjunction* best = nullptr;
    const auto it = by_pair.find(pair_key(c.sat_a, c.sat_b));
    if (it != by_pair.end()) {
      for (const Conjunction* o : it->second) {
        if (std::abs(o->tca - c.tca) > tol.tca_window) continue;
        if (best == nullptr ||
            std::abs(o->tca - c.tca) < std::abs(best->tca - c.tca)) {
          best = o;
        }
      }
    }
    if (best == nullptr) {
      out.push_back({name, Divergence::Kind::kSpurious, c,
                     event_detail("invented event", c)});
    } else if (std::abs(best->pca - c.pca) > tol.pca_tolerance) {
      out.push_back({name, Divergence::Kind::kPcaMismatch, c,
                     event_detail("pca mismatch vs oracle", c) +
                         " oracle_pca=" + std::to_string(best->pca)});
    }
  }
}

/// Records a kCounterViolation for `name` unless `ok`.
void expect_counter(bool ok, const std::string& name, const char* what,
                    std::uint64_t lhs, std::uint64_t rhs,
                    std::vector<Divergence>& out) {
  if (ok) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "counter invariant '%s' violated: %llu vs %llu",
                what, static_cast<unsigned long long>(lhs),
                static_cast<unsigned long long>(rhs));
  out.push_back({name, Divergence::Kind::kCounterViolation, Conjunction{}, buf});
}

/// Detection funnel of the grid pipeline: every tested pair lands in
/// exactly one bucket (clean-masked, prefiltered, emitted, deduplicated),
/// and the half-stencil scan emits each (pair, step) once, so nothing is
/// ever deduplicated.
void check_detection_funnel(const std::string& name,
                            const obs::TelemetrySnapshot& snap,
                            std::vector<Divergence>& out) {
  using C = obs::Counter;
  const auto v = [&](C c) { return snap.value(c); };
  const std::uint64_t classified =
      v(C::kPairsMaskedClean) + v(C::kPairsPrefiltered) +
      v(C::kCandidatesEmitted) + v(C::kCandidatesDeduplicated);
  expect_counter(v(C::kPairsTested) == classified, name,
                 "pairs_tested conservation", v(C::kPairsTested), classified, out);
  expect_counter(v(C::kCandidatesDeduplicated) == 0, name,
                 "candidates_deduplicated == 0", v(C::kCandidatesDeduplicated), 0,
                 out);
}

/// Runs the case's randomized delta through the incremental service and
/// requires the merged report to equal the from-scratch reference (the
/// service's documented exactness contract, far inside Brent tolerance).
/// With `counters`, the detection funnel of the baseline and incremental
/// screens is checked as well.
void diff_service(const FuzzCase& fuzz_case, bool counters,
                  std::vector<Divergence>& out) {
  ServiceOptions service_options;
  service_options.config = fuzz_case.config;
  ScreeningService service(service_options);

  const bool was_enabled = obs::enabled();
  if (counters) {
    obs::reset();
    obs::set_enabled(true);
  }
  service.upsert(fuzz_case.satellites);
  service.screen();  // warm baseline

  if (!fuzz_case.delta_updates.empty()) service.upsert(fuzz_case.delta_updates);
  for (const std::uint32_t id : fuzz_case.delta_removals) service.remove(id);
  if (!fuzz_case.delta_adds.empty()) service.upsert(fuzz_case.delta_adds);

  const ServiceReport incremental = service.screen(ScreenMode::kIncremental);
  if (counters) {
    obs::set_enabled(was_enabled);
    check_detection_funnel("service", obs::snapshot(), out);
  }
  const std::vector<IdConjunction> reference = service.reference_conjunctions();

  const auto mismatch = [&](const char* what, const IdConjunction& c) {
    Conjunction event{c.id_a, c.id_b, c.tca, c.pca};
    out.push_back({"service", Divergence::Kind::kServiceMismatch, event,
                   event_detail(what, event)});
  };

  if (incremental.conjunctions.size() != reference.size()) {
    // Report the first few set-difference entries for diagnosis.
    std::size_t reported = 0;
    for (const IdConjunction& want : reference) {
      const bool present = std::any_of(
          incremental.conjunctions.begin(), incremental.conjunctions.end(),
          [&](const IdConjunction& got) {
            return got.id_a == want.id_a && got.id_b == want.id_b &&
                   std::abs(got.tca - want.tca) <= 1e-6;
          });
      if (!present && reported++ < 4) mismatch("incremental missing", want);
    }
    for (const IdConjunction& got : incremental.conjunctions) {
      const bool expected = std::any_of(
          reference.begin(), reference.end(), [&](const IdConjunction& want) {
            return got.id_a == want.id_a && got.id_b == want.id_b &&
                   std::abs(got.tca - want.tca) <= 1e-6;
          });
      if (!expected && reported++ < 8) mismatch("incremental extra", got);
    }
    if (reported == 0) {
      mismatch("incremental size mismatch",
               IdConjunction{0, 0, 0.0,
                             static_cast<double>(incremental.conjunctions.size()) -
                                 static_cast<double>(reference.size())});
    }
    return;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const IdConjunction& got = incremental.conjunctions[i];
    const IdConjunction& want = reference[i];
    if (got.id_a != want.id_a || got.id_b != want.id_b ||
        std::abs(got.tca - want.tca) > 1e-6 ||
        std::abs(got.pca - want.pca) > 1e-9) {
      mismatch("incremental entry differs from reference", got);
    }
  }
}

/// Validates the telemetry funnel of one variant screen against the
/// invariants the counters are designed around. `snap` must cover exactly
/// this screen (reset before, snapshot after).
void check_counter_invariants(const std::string& name, Variant variant,
                              const ScreeningReport& report,
                              const obs::TelemetrySnapshot& snap,
                              std::vector<Divergence>& out) {
  using C = obs::Counter;
  const auto v = [&](C c) { return snap.value(c); };
  const auto expect = [&](bool ok, const char* what, std::uint64_t lhs,
                          std::uint64_t rhs) {
    expect_counter(ok, name, what, lhs, rhs, out);
  };

  // Refinement monotonicity holds for every variant: each raw conjunction
  // came out of one minimization, and merging only removes events.
  const std::uint64_t raw = v(C::kConjunctionsRaw);
  const std::uint64_t reported = v(C::kConjunctionsReported);
  expect(reported == report.conjunctions.size(), "reported == |conjunctions|",
         reported, report.conjunctions.size());
  expect(raw >= reported, "raw >= reported", raw, reported);
  expect(v(C::kRefinements) >= raw, "refinements >= raw", v(C::kRefinements), raw);

  if (variant == Variant::kGrid || variant == Variant::kHybrid) {
    check_detection_funnel(name, snap, out);
    expect(v(C::kCandidatesEmitted) == report.stats.candidates,
           "emitted == stats.candidates", v(C::kCandidatesEmitted),
           report.stats.candidates);
    expect(v(C::kCellsOccupied) <= v(C::kCellsScanned),
           "occupied <= scanned", v(C::kCellsOccupied), v(C::kCellsScanned));
    const std::uint64_t samples = static_cast<std::uint64_t>(
        report.stats.total_samples * report.stats.satellites);
    expect(v(C::kSamplesPropagated) == samples,
           "samples_propagated == total_samples * n", v(C::kSamplesPropagated),
           samples);
    expect(v(C::kGridInserts) == v(C::kSamplesPropagated),
           "grid_inserts == samples_propagated", v(C::kGridInserts),
           v(C::kSamplesPropagated));
    const std::uint64_t hist_total =
        std::accumulate(snap.probe_histogram.begin(), snap.probe_histogram.end(),
                        std::uint64_t{0});
    expect(hist_total == v(C::kGridInserts), "probe histogram sums to inserts",
           hist_total, v(C::kGridInserts));
  }

  if (variant == Variant::kHybrid || variant == Variant::kLegacy) {
    // Filter-chain conservation and monotonicity.
    const std::uint64_t buckets =
        v(C::kFilterApogeePerigeeRejects) + v(C::kFilterPathRejects) +
        v(C::kFilterWindowRejects) + v(C::kFilterSurvivors);
    expect(v(C::kFilterPairsIn) == buckets, "filter_pairs_in conservation",
           v(C::kFilterPairsIn), buckets);
    expect(v(C::kFilterPathChecks) ==
               v(C::kFilterPairsIn) - v(C::kFilterApogeePerigeeRejects),
           "path_checks == in - ap_rejects", v(C::kFilterPathChecks),
           v(C::kFilterPairsIn) - v(C::kFilterApogeePerigeeRejects));
    expect(v(C::kFilterWindowChecks) <= v(C::kFilterPathChecks),
           "window_checks <= path_checks", v(C::kFilterWindowChecks),
           v(C::kFilterPathChecks));
    expect(v(C::kFilterWindowRejects) <= v(C::kFilterWindowChecks),
           "window_rejects <= window_checks", v(C::kFilterWindowRejects),
           v(C::kFilterWindowChecks));
  }

  if (variant == Variant::kSieve) {
    const std::uint64_t buckets =
        v(C::kFilterApogeePerigeeRejects) + v(C::kFilterSurvivors);
    expect(v(C::kFilterPairsIn) == buckets, "sieve filter conservation",
           v(C::kFilterPairsIn), buckets);
    expect(v(C::kRefinements) == report.stats.refinements,
           "sieve refinements == stats.refinements", v(C::kRefinements),
           report.stats.refinements);
  }
}

/// Bit-exact comparison of a warm-context rerun against the cold report.
/// Exact equality (not tolerance matching) is the contract: the arena must
/// hand back buffers in precisely the state a fresh allocation would have,
/// so every arithmetic operation replays identically. Timings are excluded
/// (wall clock), as are the memory gauges (an arena may retain capacity for
/// a larger past case; the computed results must not notice).
void diff_context_reuse(const std::string& name, const ScreeningReport& cold,
                        const ScreeningReport& warm,
                        std::vector<Divergence>& out) {
  const auto emit = [&](const std::string& what, const Conjunction& event) {
    out.push_back({name, Divergence::Kind::kContextMismatch, event,
                   "context reuse: " + what});
  };

  if (warm.conjunctions.size() != cold.conjunctions.size()) {
    emit("warm reports " + std::to_string(warm.conjunctions.size()) +
             " conjunctions, cold " + std::to_string(cold.conjunctions.size()),
         Conjunction{});
  } else {
    for (std::size_t i = 0; i < cold.conjunctions.size(); ++i) {
      const Conjunction& c = cold.conjunctions[i];
      const Conjunction& w = warm.conjunctions[i];
      if (w.sat_a != c.sat_a || w.sat_b != c.sat_b || w.tca != c.tca ||
          w.pca != c.pca) {
        emit(event_detail("warm conjunction differs from cold", w), w);
      }
    }
  }

  const auto stat = [&](const char* field, auto cold_value, auto warm_value) {
    if (warm_value == cold_value) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "stats.%s differs: warm %.17g vs cold %.17g",
                  field, static_cast<double>(warm_value),
                  static_cast<double>(cold_value));
    emit(buf, Conjunction{});
  };
  stat("candidates", cold.stats.candidates, warm.stats.candidates);
  stat("refinements", cold.stats.refinements, warm.stats.refinements);
  stat("pairs_examined", cold.stats.pairs_examined, warm.stats.pairs_examined);
  stat("total_samples", cold.stats.total_samples, warm.stats.total_samples);
  stat("rounds", cold.stats.rounds, warm.stats.rounds);
  stat("seconds_per_sample", cold.stats.seconds_per_sample,
       warm.stats.seconds_per_sample);
  stat("cell_size_km", cold.stats.cell_size_km, warm.stats.cell_size_km);
}

}  // namespace

const char* divergence_kind_name(Divergence::Kind kind) {
  switch (kind) {
    case Divergence::Kind::kMissed: return "missed";
    case Divergence::Kind::kSpurious: return "spurious";
    case Divergence::Kind::kPcaMismatch: return "pca-mismatch";
    case Divergence::Kind::kServiceMismatch: return "service-mismatch";
    case Divergence::Kind::kCounterViolation: return "counter-violation";
    case Divergence::Kind::kContextMismatch: return "context-mismatch";
  }
  return "unknown";
}

void RunStats::add(const CaseResult& result) {
  ++cases;
  if (!result.ok()) ++divergent_cases;
  divergences += result.divergences.size();
  oracle_events += result.oracle_events;
  must_find += result.must_find;
  near_misses += result.near_misses;
  for (const Divergence& d : result.divergences) {
    ++divergences_by_screener[d.screener];
  }
}

std::string RunStats::to_json() const {
  std::string json = "{";
  const auto field = [&](const char* key, std::size_t value, bool comma = true) {
    json += '"';
    json += key;
    json += "\":";
    json += std::to_string(value);
    if (comma) json += ',';
  };
  field("cases", cases);
  field("divergent_cases", divergent_cases);
  field("divergences", divergences);
  field("oracle_events", oracle_events);
  field("must_find", must_find);
  field("near_misses", near_misses);
  json += "\"by_screener\":{";
  bool first = true;
  for (const auto& [name, count] : divergences_by_screener) {
    if (!first) json += ',';
    first = false;
    json += '"' + name + "\":" + std::to_string(count);
  }
  json += "}}";
  return json;
}

CaseResult run_differential(const FuzzCase& fuzz_case,
                            const DifferentialOptions& options) {
  CaseResult result;
  const double threshold = fuzz_case.config.threshold_km;
  const DiffTolerances& tol = options.tolerances;

  const std::vector<Conjunction> oracle =
      oracle_conjunctions(fuzz_case.satellites, fuzz_case.config, options.oracle);
  for (const Conjunction& c : oracle) {
    if (c.pca <= threshold) ++result.oracle_events;
    if (c.pca <= threshold * (1.0 - tol.threshold_band)) {
      ++result.must_find;
    } else if (c.pca <= threshold * (1.0 + tol.threshold_band)) {
      ++result.near_misses;
    }
  }

  const bool counters = options.check_counters && obs::compiled();
  const bool was_enabled = obs::enabled();
  for (const Variant variant : options.variants) {
    if (counters) {
      obs::reset();
      obs::set_enabled(true);
    }
    const ScreeningReport report =
        make_screener(variant)->screen(fuzz_case.satellites, fuzz_case.config);
    if (counters) {
      obs::set_enabled(was_enabled);
      check_counter_invariants(variant_name(variant), variant, report,
                               obs::snapshot(), result.divergences);
    }
    diff_against_oracle(variant_name(variant), report.conjunctions, oracle,
                        threshold, tol, result.divergences);

    if (options.shared_context != nullptr) {
      // Warm rerun through the long-lived context: same inputs, arena
      // buffers carried over from every earlier screen of the run.
      const ScreeningReport warm =
          make_screener(variant, options.shared_context)
              ->screen(fuzz_case.satellites, fuzz_case.config);
      diff_context_reuse(variant_name(variant), report, warm,
                         result.divergences);
    }
  }

  if (options.check_service) {
    diff_service(fuzz_case, counters, result.divergences);
  }
  return result;
}

}  // namespace scod::verify
