// Self-tests of the benchmark's checking code: the reference diff and the
// reference file format. Run through `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference.hpp"
#include "workloads.hpp"

namespace {

using perfbench::ReferenceDiff;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::vector<scod::Conjunction> sample_events() {
  return {{1, 2, 100.0, 0.5}, {1, 2, 2000.0, 1.25}, {3, 9, 450.5, 0.01},
          {4, 7, 3599.0, 1.99}, {10, 11, 12.0, 0.7}};
}

void test_identical_lists_pass() {
  const ReferenceDiff diff = perfbench::diff_reference(sample_events(), sample_events());
  check(diff.failed() == 0 && diff.reference == 5, "identical lists: no failure");
}

void test_dropped_event_is_missed() {
  std::vector<scod::Conjunction> reported = sample_events();
  reported.erase(reported.begin() + 2);
  const perfbench::ReferenceDiff diff =
      perfbench::diff_reference(sample_events(), reported);
  check(diff.missed.size() == 1 && diff.extra.empty() && diff.missed[0].sat_a == 3,
        "one dropped event: one missed, none extra");
}

void test_shifted_event_is_missed_and_extra() {
  std::vector<scod::Conjunction> reported = sample_events();
  reported[3].tca += 6.0;  // beyond the 5 s fuzzer window
  const perfbench::ReferenceDiff diff =
      perfbench::diff_reference(sample_events(), reported);
  check(diff.missed.size() == 1 && diff.extra.size() == 1 &&
            diff.missed[0].tca == 3599.0 && diff.extra[0].tca == 3605.0,
        "event shifted by 6 s: one missed and one extra");
}

void test_small_shift_within_tolerance() {
  std::vector<scod::Conjunction> reported = sample_events();
  reported[0].tca += 1.0;
  reported[0].pca += 0.01;
  check(perfbench::diff_reference(sample_events(), reported).failed() == 0,
        "shift inside the fuzzer tolerances is not a failure");
}

void test_pca_mismatch_is_missed() {
  std::vector<scod::Conjunction> reported = sample_events();
  reported[1].pca += 0.2;  // beyond 0.05 km
  const perfbench::ReferenceDiff diff =
      perfbench::diff_reference(sample_events(), reported);
  check(diff.missed.size() == 1 && diff.extra.empty(), "PCA off by 0.2 km is missed");
}

void test_exact_diff_sees_one_bit() {
  std::vector<scod::Conjunction> reported = sample_events();
  reported[4].pca = std::nextafter(reported[4].pca, 1.0);
  const perfbench::ReferenceDiff diff = perfbench::diff_exact(sample_events(), reported);
  check(diff.missed.size() == 1 && diff.extra.size() == 1,
        "exact diff: one-ulp PCA change is missed and extra");
}

void test_known_misses() {
  std::vector<scod::Conjunction> reported = sample_events();
  reported.erase(reported.begin());
  const perfbench::ReferenceDiff diff =
      perfbench::diff_reference(sample_events(), reported);
  check(perfbench::only_known_misses(diff, {{1, 2, 101.0, 0.5}}),
        "a documented miss is recognised");
  check(!perfbench::only_known_misses(diff, {{1, 2, 2000.0, 1.25}}),
        "an undocumented miss is not");
  perfbench::ReferenceDiff with_extra = diff;
  with_extra.extra.push_back({20, 21, 5.0, 0.1});
  check(!perfbench::only_known_misses(with_extra, {{1, 2, 100.0, 0.5}}),
        "an extra event is never a documented defect");
}

void test_run_result_tallies() {
  std::vector<scod::Conjunction> reported = sample_events();
  reported.erase(reported.begin());
  perfbench::RunResult result;
  result.add_check(perfbench::diff_reference(sample_events(), reported),
                   {{1, 2, 100.0, 0.5}}, "known");
  check(result.correct && result.attempted == 5 && result.missed == 1 &&
            result.known_misses == 1,
        "known miss: counted as failed, output still as documented");
  result.add_check(perfbench::diff_reference(sample_events(), reported), {}, "unknown");
  check(!result.correct && result.attempted == 10 && result.missed == 2,
        "unknown miss: output incorrect");
}

void test_file_round_trip() {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "perfbench_selftest_reference.csv";
  std::vector<scod::Conjunction> events = sample_events();
  events[0].tca = 1.0 / 3.0;
  perfbench::save_conjunctions(path.string(), events);
  const std::vector<scod::Conjunction> loaded = perfbench::load_conjunctions(path.string());
  check(perfbench::diff_exact(events, loaded).failed() == 0 &&
            loaded.size() == events.size(),
        "reference CSV round trip is bit-exact");

  std::ofstream(path) << "sat_a,sat_b,tca_s,pca_km\n1,2,3.0\n";
  bool threw = false;
  try {
    perfbench::load_conjunctions(path.string());
  } catch (const std::runtime_error& e) {
    threw = std::string(e.what()).find(":2:") != std::string::npos;
  }
  check(threw, "malformed row is rejected with its line number");
  std::filesystem::remove(path);
}

void test_catalog_order_is_seeded() {
  const perfbench::Workload* w = perfbench::find_workload("grid-kepler-32k");
  perfbench::Workload small = *w;
  small.count = 200;
  const auto a = perfbench::make_population(small, 7);
  const auto b = perfbench::make_population(small, 7);
  const auto c = perfbench::make_population(small, 8);
  bool same = true, permutation = true;
  std::vector<int> seen(small.count, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].id == b[i].id;
    if (a[i].id < seen.size()) seen[a[i].id]++;
  }
  for (int s : seen) permutation = permutation && s == 1;
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs = differs || a[i].id != c[i].id;
  check(same && permutation && differs,
        "catalog order: same seed same order, another seed another permutation");
}



}  // namespace

int main() {
  test_identical_lists_pass();
  test_dropped_event_is_missed();
  test_shifted_event_is_missed_and_extra();
  test_small_shift_within_tolerance();
  test_pca_mismatch_is_missed();
  test_exact_diff_sees_one_bit();
  test_known_misses();
  test_run_result_tallies();
  test_file_round_trip();
  test_catalog_order_is_seeded();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
