#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace perfbench {

namespace {

constexpr const char* kHeader = "sat_a,sat_b,tca_s,pca_km";

bool event_less(const scod::Conjunction& x, const scod::Conjunction& y) {
  return std::tie(x.sat_a, x.sat_b, x.tca, x.pca) <
         std::tie(y.sat_a, y.sat_b, y.tca, y.pca);
}

}  // namespace

std::vector<scod::Conjunction> load_conjunctions(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference " + path);
  std::vector<scod::Conjunction> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line_no == 1) {
      if (line != kHeader) {
        throw std::runtime_error(path + ":1: expected header '" + kHeader + "'");
      }
      continue;
    }
    if (line.empty()) continue;
    scod::Conjunction c;
    char trailing = 0;
    unsigned long long a = 0, b = 0;
    if (std::sscanf(line.c_str(), "%llu,%llu,%lf,%lf%c", &a, &b, &c.tca, &c.pca,
                    &trailing) != 4 ||
        a >= b || b > 0xFFFFFFFFull || !std::isfinite(c.tca) ||
        !std::isfinite(c.pca)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed conjunction row '" + line + "'");
    }
    c.sat_a = static_cast<std::uint32_t>(a);
    c.sat_b = static_cast<std::uint32_t>(b);
    out.push_back(c);
  }
  if (line_no == 0) throw std::runtime_error(path + ": empty reference file");
  return out;
}

void save_conjunctions(const std::string& path,
                       const std::vector<scod::Conjunction>& conjunctions) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << kHeader << "\n";
  char row[128];
  for (const scod::Conjunction& c : conjunctions) {
    std::snprintf(row, sizeof row, "%u,%u,%.17g,%.17g\n", c.sat_a, c.sat_b, c.tca,
                  c.pca);
    out << row;
  }
  if (!out.flush()) throw std::runtime_error("write failed: " + path);
}

std::vector<scod::Conjunction> to_catalog_ids(
    const std::vector<scod::Conjunction>& conjunctions,
    std::span<const scod::Satellite> satellites) {
  std::vector<scod::Conjunction> out;
  out.reserve(conjunctions.size());
  for (scod::Conjunction c : conjunctions) {
    c.sat_a = satellites[c.sat_a].id;
    c.sat_b = satellites[c.sat_b].id;
    if (c.sat_a > c.sat_b) std::swap(c.sat_a, c.sat_b);
    out.push_back(c);
  }
  std::sort(out.begin(), out.end(), event_less);
  return out;
}

ReferenceDiff diff_reference(const std::vector<scod::Conjunction>& reference,
                             const std::vector<scod::Conjunction>& reported) {
  scod::ConjunctionSetDiff diff = scod::compare_conjunction_sets(reference, reported);
  ReferenceDiff out;
  out.reference = reference.size();
  out.reported = reported.size();
  out.missed = std::move(diff.only_in_first);
  for (const auto& [ref_event, reported_event] : diff.pca_mismatches) {
    out.missed.push_back(ref_event);
  }
  out.extra = std::move(diff.only_in_second);
  return out;
}

ReferenceDiff diff_exact(std::vector<scod::Conjunction> reference,
                         std::vector<scod::Conjunction> reported) {
  ReferenceDiff out;
  out.reference = reference.size();
  out.reported = reported.size();
  std::sort(reference.begin(), reference.end(), event_less);
  std::sort(reported.begin(), reported.end(), event_less);
  std::set_difference(reference.begin(), reference.end(), reported.begin(),
                      reported.end(), std::back_inserter(out.missed), event_less);
  std::set_difference(reported.begin(), reported.end(), reference.begin(),
                      reference.end(), std::back_inserter(out.extra), event_less);
  return out;
}

bool only_known_misses(const ReferenceDiff& diff,
                       const std::vector<scod::Conjunction>& known_misses) {
  if (!diff.extra.empty()) return false;
  const double window = scod::ConjunctionMatchOptions{}.tca_window;
  return std::all_of(diff.missed.begin(), diff.missed.end(),
                     [&](const scod::Conjunction& m) {
                       return std::any_of(
                           known_misses.begin(), known_misses.end(),
                           [&](const scod::Conjunction& k) {
                             return k.sat_a == m.sat_a && k.sat_b == m.sat_b &&
                                    std::abs(k.tca - m.tca) <= window;
                           });
                     });
}

}  // namespace perfbench
