#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "orbit/elements.hpp"

namespace perfbench {

/// Reads a conjunction list written by save_conjunctions. Throws
/// std::runtime_error naming the file and line of a malformed row.
std::vector<scod::Conjunction> load_conjunctions(const std::string& path);

/// Writes `conjunctions` as CSV (sat_a,sat_b,tca_s,pca_km) with every digit.
void save_conjunctions(const std::string& path,
                       const std::vector<scod::Conjunction>& conjunctions);

/// Maps screener indices to the satellites' catalog ids and restores the
/// canonical (smaller id first, sorted) order.
std::vector<scod::Conjunction> to_catalog_ids(
    const std::vector<scod::Conjunction>& conjunctions,
    std::span<const scod::Satellite> satellites);

/// Outcome of checking a reported conjunction list against a reference.
struct ReferenceDiff {
  std::size_t reference = 0;  ///< events in the reference (attempted)
  std::size_t reported = 0;
  std::vector<scod::Conjunction> missed;  ///< reference events not reported
  std::vector<scod::Conjunction> extra;   ///< reported events not in the reference

  std::size_t failed() const { return missed.size() + extra.size(); }
};

/// Event-level diff at the fuzzer tolerances (5 s in TCA, 0.05 km in PCA,
/// compare_conjunction_sets). A reference event matched in time whose PCA
/// disagrees beyond the tolerance counts as missed.
ReferenceDiff diff_reference(const std::vector<scod::Conjunction>& reference,
                             const std::vector<scod::Conjunction>& reported);

/// Exact diff: any event whose pair, TCA or PCA differs in any bit is
/// missed (from the reference) and extra (in the report).
ReferenceDiff diff_exact(std::vector<scod::Conjunction> reference,
                         std::vector<scod::Conjunction> reported);

/// True when the diff holds no extra event and every missed event is one of
/// `known_misses` (same pair, TCA within the fuzzer window): the output is
/// as good as the documented defect allows.
bool only_known_misses(const ReferenceDiff& diff,
                       const std::vector<scod::Conjunction>& known_misses);

}  // namespace perfbench
