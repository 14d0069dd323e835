#pragma once

#include <cstddef>
#include <cstdint>

#include "model/conjunction_model.hpp"

namespace scod {

/// Bytes per record of the data structures entering the memory model of
/// Section V-B. Defaults match this library's concrete structs.
struct MemoryLayout {
  std::size_t satellite_bytes = 56;      ///< a_s: one Satellite
  std::size_t kepler_cache_bytes = 112;  ///< a_k: one TwoBodyCache
  std::size_t grid_slot_bytes = 16;      ///< one grid hash-set slot (key+head)
  std::size_t grid_entry_bytes = 32;     ///< a_l: one linked-list entry
  std::size_t candidate_slot_bytes = 8;  ///< one reserved candidate slot
  double grid_slot_factor = 2.0;         ///< slots per satellite in the grid set
};

/// Inputs of the sample-parallelism plan.
struct SizingRequest {
  std::size_t satellites = 0;          ///< n
  double span_seconds = 0.0;           ///< t
  double seconds_per_sample = 1.0;     ///< s_ps
  std::size_t candidate_capacity = 0;  ///< c, from candidate_capacity_from_model()
  std::uint64_t memory_budget = 0;     ///< m [bytes]
  MemoryLayout layout;
};

/// The paper's equations: o = t / s_ps total samples, p parallel samples
/// per round from the free memory, r_c = o / p rounds.
struct SizingPlan {
  std::size_t total_samples = 0;     ///< o
  std::size_t parallel_samples = 0;  ///< p (>= 1 when fits)
  std::size_t rounds = 0;            ///< r_c
  std::uint64_t fixed_bytes = 0;     ///< a_s + a_k + a_ch
  std::uint64_t per_grid_bytes = 0;  ///< a_gh + a_l
  bool fits = false;                 ///< false when even p = 1 exceeds m
};

SizingPlan plan_samples(const SizingRequest& request);

/// Memory the plan reserves for `capacity` predicted candidates: the
/// paper's conjunction hash map with its doubled slot table. Detection does
/// not build that map; the reservation keeps the plan, and with it the
/// sample parallelism and the automatic s_ps reduction, the paper's.
std::uint64_t candidate_map_bytes(std::size_t capacity, const MemoryLayout& layout);

/// The automatic seconds-per-sample adjustment of Section V-C: when the
/// candidate reservation predicted by the model does not fit into the
/// memory budget, reduce s_ps (smaller cells produce fewer candidate
/// pairs; the paper's runs drop from 9 s to 4 s and 1 s at 512k/1024k
/// objects). Returns the adjusted request; `changed` reports whether any
/// reduction was necessary, `feasible` whether even `min_sps` fits.
struct AutoAdjustResult {
  double seconds_per_sample = 0.0;
  std::size_t candidate_capacity = 0;
  bool changed = false;
  bool feasible = false;
};

AutoAdjustResult auto_adjust_sps(const ConjunctionCountModel& model,
                                 SizingRequest request, double threshold_km,
                                 double min_sps = 1.0);

}  // namespace scod
