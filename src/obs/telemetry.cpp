#include "obs/telemetry.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace scod::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kSamplesPropagated: return "samples_propagated";
    case Counter::kGridInserts: return "grid_inserts";
    case Counter::kGridProbeSteps: return "grid_probe_steps";
    case Counter::kGridCasRetries: return "grid_cas_retries";
    case Counter::kGridPoolRejects: return "grid_pool_rejects";
    case Counter::kCellsScanned: return "cells_scanned";
    case Counter::kCellsOccupied: return "cells_occupied";
    case Counter::kPairsTested: return "pairs_tested";
    case Counter::kPairsMaskedClean: return "pairs_masked_clean";
    case Counter::kPairsPrefiltered: return "pairs_prefiltered";
    case Counter::kCandidatesEmitted: return "candidates_emitted";
    case Counter::kCandidatesDeduplicated: return "candidates_deduplicated";
    case Counter::kFilterPairsIn: return "filter_pairs_in";
    case Counter::kFilterApogeePerigeeRejects: return "filter_ap_rejects";
    case Counter::kFilterPathChecks: return "filter_path_checks";
    case Counter::kFilterPathRejects: return "filter_path_rejects";
    case Counter::kFilterWindowChecks: return "filter_window_checks";
    case Counter::kFilterWindowRejects: return "filter_window_rejects";
    case Counter::kFilterCoplanarPairs: return "filter_coplanar_pairs";
    case Counter::kFilterSurvivors: return "filter_survivors";
    case Counter::kSieveDistanceEvals: return "sieve_distance_evals";
    case Counter::kRefinements: return "refinements";
    case Counter::kBrentIterations: return "brent_iterations";
    case Counter::kWindowClamps: return "window_clamps";
    case Counter::kEdgeDiscards: return "edge_discards";
    case Counter::kConjunctionsRaw: return "conjunctions_raw";
    case Counter::kConjunctionsReported: return "conjunctions_reported";
    case Counter::kServiceFullScreens: return "service_full_screens";
    case Counter::kServiceIncrementalScreens: return "service_incremental_screens";
    case Counter::kServiceCachedScreens: return "service_cached_screens";
    case Counter::kServiceSnapshotObjects: return "service_snapshot_objects";
    case Counter::kServiceDirtyObjects: return "service_dirty_objects";
    case Counter::kServiceRemovedObjects: return "service_removed_objects";
    case Counter::kServiceCarried: return "service_carried";
    case Counter::kServiceEvicted: return "service_evicted";
    case Counter::kServiceRefreshed: return "service_refreshed";
    case Counter::kTimeInsertionNs: return "time_insertion_ns";
    case Counter::kTimeDetectionNs: return "time_detection_ns";
    case Counter::kTimeFilteringNs: return "time_filtering_ns";
    case Counter::kTimeRefinementNs: return "time_refinement_ns";
    case Counter::kCounterCount_: break;
  }
  return "unknown";
}

double TelemetrySnapshot::occupancy() const {
  const auto scanned = value(Counter::kCellsScanned);
  if (scanned == 0) return 0.0;
  return static_cast<double>(value(Counter::kCellsOccupied)) /
         static_cast<double>(scanned);
}

double TelemetrySnapshot::mean_probe_length() const {
  const auto inserts = value(Counter::kGridInserts);
  if (inserts == 0) return 0.0;
  return static_cast<double>(value(Counter::kGridProbeSteps)) /
         static_cast<double>(inserts);
}

std::string TelemetrySnapshot::to_json() const {
  std::string out;
  out.reserve(2048);
  out += "{";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": %llu, ",
                  counter_name(static_cast<Counter>(i)),
                  static_cast<unsigned long long>(counters[i]));
    out += buf;
  }
  out += "\"probe_histogram\": [";
  for (std::size_t i = 0; i < kProbeHistogramBuckets; ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(probe_histogram[i]);
  }
  out += "], ";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"occupancy\": %.6f, \"mean_probe_length\": %.6f}",
                occupancy(), mean_probe_length());
  out += buf;
  return out;
}

#if SCOD_TELEMETRY_ENABLED

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

// Blocks are owned by the registry, not the thread: a worker that exits
// leaves its counts behind for the next snapshot. Pool threads are
// long-lived, so the registry stays small.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBlock>>& registry() {
  static std::vector<std::unique_ptr<ThreadBlock>> blocks;
  return blocks;
}

}  // namespace

ThreadBlock& local_block() {
  thread_local ThreadBlock* block = [] {
    auto owned = std::make_unique<ThreadBlock>();
    ThreadBlock* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    registry().push_back(std::move(owned));
    return raw;
  }();
  return *block;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  std::lock_guard<std::mutex> lock(detail::g_registry_mutex);
  for (auto& block : detail::registry()) {
    for (auto& c : block->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : block->probes) h.store(0, std::memory_order_relaxed);
  }
}

TelemetrySnapshot snapshot() {
  TelemetrySnapshot snap;
  std::lock_guard<std::mutex> lock(detail::g_registry_mutex);
  for (const auto& block : detail::registry()) {
    for (std::size_t i = 0; i < kCounterCount; ++i)
      snap.counters[i] += block->counters[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kProbeHistogramBuckets; ++i)
      snap.probe_histogram[i] += block->probes[i].load(std::memory_order_relaxed);
  }
  return snap;
}

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StageTimer::StageTimer(Counter c) : counter_(c) {
  if (enabled()) {
    start_ns_ = now_ns();
    armed_ = true;
  }
}

StageTimer::~StageTimer() {
  // A timer armed before a reset()/disable mid-scope still commits; that is
  // benign (at worst one stale interval) and keeps the hot path branch-light.
  if (armed_ && enabled()) count(counter_, now_ns() - start_ns_);
}

#endif  // SCOD_TELEMETRY_ENABLED

}  // namespace scod::obs
