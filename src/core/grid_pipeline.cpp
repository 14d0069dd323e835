#include "core/grid_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/context.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "propagation/two_body.hpp"
#include "spatial/cell.hpp"
#include "spatial/grid_hash_set.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// Grid slots one detection task scans. Large enough to amortize the task
/// hand-off, small enough that one step's grid splits across the workers
/// when a round holds only a few steps.
constexpr std::size_t kChunkSlots = 4096;

GridPipelineResult run_pipeline_impl(const Propagator& propagator,
                                     const ScreeningConfig& caller_config,
                                     const GridPipelineOptions& options,
                                     const GridRoundSink* sink) {
  GridPipelineResult result;

  // Bound-or-ephemeral context: step-1 scratch is always checked out of an
  // arena; without an attached context it is a throwaway one, which is
  // exactly the old allocate-per-call behavior.
  detail::ContextLease lease(options.context);
  ScreeningContext::Use use(*lease);
  const ScreeningConfig config = lease->apply(caller_config);

  Stopwatch alloc_watch;

  const std::size_t n = propagator.size();
  if (n < 2) return result;
  if (!(config.t_begin < config.t_end)) {
    throw std::invalid_argument("run_grid_pipeline: empty time span");
  }

  if (!options.dirty_mask.empty() && options.dirty_mask.size() != n) {
    throw std::invalid_argument(
        "run_grid_pipeline: dirty_mask size does not match the population");
  }
  const std::uint8_t* dirty = options.dirty_mask.empty()
                                  ? nullptr
                                  : options.dirty_mask.data();

  // Resolved once: the batched insertion path needs the concrete SoA
  // propagator.
  const TwoBodyPropagator* batch_propagator =
      dynamic_cast<const TwoBodyPropagator*>(&propagator);

  // Sizing (Section V-B): candidate reservation from the Extra-P model,
  // then the sample parallelism p from the remaining budget. The automatic
  // s_ps reduction kicks in when the reservation alone busts the budget
  // (the paper's Fig. 10c regime).
  SizingRequest request;
  request.satellites = n;
  request.span_seconds = config.span_seconds();
  request.seconds_per_sample = options.seconds_per_sample;
  request.memory_budget = config.memory_budget;

  const AutoAdjustResult adjusted =
      auto_adjust_sps(options.count_model, request, config.threshold_km);
  if (!adjusted.feasible) {
    throw std::runtime_error(
        "run_grid_pipeline: population does not fit into the memory budget "
        "even at 1 s sampling");
  }
  const double sps = adjusted.seconds_per_sample;
  request.seconds_per_sample = sps;
  request.candidate_capacity = adjusted.candidate_capacity;
  result.plan = plan_samples(request);
  result.sample_period = sps;
  result.cell_size = options.cell_size_override > 0.0
                         ? options.cell_size_override
                         : grid_cell_size(config.threshold_km, sps);

  const CellIndexer indexer(result.cell_size);
  const std::size_t p = result.plan.parallel_samples;
  const std::size_t total_steps = result.plan.total_samples;

  // Step 1 (allocation): p per-step grids, the per-chunk candidate
  // buffers, and the per-satellite speed bounds used by the distance
  // prefilter — checked out of the arena at exactly the sizes a cold screen
  // would allocate. Carried-over grids still hold the previous screen's
  // entries; reset them here, on the worker pool, like the between-rounds
  // clears below.
  ScratchArena& arena = lease->arena();
  const ScratchArena::GridCheckout grid_checkout = arena.grids(p, n);
  std::vector<GridHashSet>& grids = *grid_checkout.grids;
  pool_of(config).parallel_for(
      grid_checkout.reused, [&](std::size_t g) { grids[g].clear(); },
      /*grain=*/1);

  // Detection works on fixed-size slot chunks of one step's grid; each
  // chunk owns one buffer, so emitting a candidate takes no atomics.
  const std::size_t slots = grids.front().slot_count();
  const std::size_t chunk_slots = std::min(slots, kChunkSlots);
  const std::size_t chunks_per_step = (slots + chunk_slots - 1) / chunk_slots;
  std::vector<std::vector<Candidate>>& buffers =
      arena.candidate_buffers(p * chunks_per_step);

  std::vector<double>& vmax = arena.vmax(n);
  pool_of(config).parallel_for(n, [&](std::size_t i) {
    vmax[i] = max_speed(propagator.elements(i));
  });

  for (const GridHashSet& g : grids) result.grid_memory_bytes += g.memory_bytes();
  result.candidate_memory_bytes =
      candidate_map_bytes(request.candidate_capacity, request.layout);

  result.allocation_seconds = alloc_watch.seconds();

  const auto stencil = std::span<const CellCoord>(cell_half_neighborhood());
  const double prefilter_base = config.threshold_km;
  const double half_sps = 0.5 * result.sample_period;

  for (std::size_t round = 0; round < result.plan.rounds; ++round) {
    const std::size_t step0 = round * p;
    const std::size_t steps = std::min(p, total_steps - step0);

    if (round > 0) {
      Stopwatch clear_watch;
      pool_of(config).parallel_for(steps, [&](std::size_t g) { grids[g].clear(); },
                                   /*grain=*/1);
      result.allocation_seconds += clear_watch.seconds();
    }

    // Step 2a (INS): one logical thread per (sample, satellite) tuple. With
    // a TwoBodyPropagator the tuples are handed to workers as ranges and
    // propagated through the batched SoA kernel — same positions as the
    // per-tuple position() calls, without their virtual dispatch.
    Stopwatch ins_watch;
    std::atomic<std::size_t> insert_failures{0};
    if (batch_propagator != nullptr) {
      pool_of(config).parallel_for_ranges(steps * n, [&](std::size_t begin,
                                                         std::size_t end) {
        constexpr std::size_t kScratch = 256;
        Vec3 scratch[kScratch];
        std::size_t failures = 0;
        while (begin < end) {
          const std::size_t local = begin / n;
          const std::size_t sat0 = begin % n;
          const std::size_t run = std::min({end - begin, n - sat0, kScratch});
          const double t =
              result.sample_time(step0 + local, config.t_begin, config.t_end);
          batch_propagator->positions_at(t, sat0, sat0 + run, scratch);
          GridHashSet& grid = grids[local];
          for (std::size_t k = 0; k < run; ++k) {
            const Vec3& pos = scratch[k];
            if (!grid.insert(indexer.key_of(pos),
                             static_cast<std::uint32_t>(sat0 + k), pos)) {
              ++failures;
            }
          }
          begin += run;
        }
        if (failures != 0) {
          insert_failures.fetch_add(failures, std::memory_order_relaxed);
        }
      });
    } else {
      pool_of(config).parallel_for(steps * n, [&](std::size_t idx) {
        const std::size_t local = idx / n;
        const std::size_t sat = idx % n;
        const double t =
            result.sample_time(step0 + local, config.t_begin, config.t_end);
        const Vec3 pos = propagator.position(sat, t);
        if (!grids[local].insert(indexer.key_of(pos), static_cast<std::uint32_t>(sat),
                                 pos)) {
          insert_failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    if (insert_failures.load() != 0) {
      throw std::logic_error("run_grid_pipeline: grid hash set overflow "
                             "(invariant violation: one entry per satellite)");
    }
    const double ins_seconds = ins_watch.seconds();
    result.insertion_seconds += ins_seconds;
    obs::count(obs::Counter::kSamplesPropagated, steps * n);
    obs::add_seconds(obs::Counter::kTimeInsertionNs, ins_seconds);

    // Step 2b (CD): one logical thread per slot chunk. Each occupied cell
    // pairs its own list with itself and with its 13 forward neighbours;
    // the mirrored half is covered from the neighbour's side, so every
    // (pair, step) reaches exactly one buffer exactly once. The paper scans
    // all 26 neighbours and removes the second copy in a lock-free hash
    // map; both find the same candidate set.
    Stopwatch cd_watch;
    pool_of(config).parallel_for(steps * chunks_per_step, [&](std::size_t chunk) {
      const std::size_t local = chunk / chunks_per_step;
      const std::size_t first = (chunk % chunks_per_step) * chunk_slots;
      const std::size_t last = std::min(first + chunk_slots, slots);
      const GridHashSet& grid = grids[local];
      const std::uint32_t step = static_cast<std::uint32_t>(step0 + local);
      std::vector<Candidate>& out = buffers[chunk];
      out.clear();
      std::uint64_t occupied = 0, tested = 0, masked = 0, prefiltered = 0;

      for (std::size_t slot = first; slot < last; ++slot) {
        const std::uint64_t key = grid.slot_key(slot);
        if (key == kEmptySlotKey) continue;
        ++occupied;
        const CellCoord coord = indexer.unpack(key);
        const std::uint32_t head = grid.slot_head(slot);

        for (const CellCoord& off : stencil) {
          const bool self = (off.x == 0 && off.y == 0 && off.z == 0);
          std::uint32_t other_head;
          if (self) {
            other_head = head;
          } else {
            const CellCoord nc{coord.x + off.x, coord.y + off.y, coord.z + off.z};
            other_head = grid.find(indexer.pack(nc));
            if (other_head == kNoEntry) continue;
          }
          for (std::uint32_t ea = head; ea != kNoEntry; ea = grid.entry(ea).next) {
            const GridEntry& a = grid.entry(ea);
            const bool a_dirty = dirty == nullptr || dirty[a.satellite] != 0;
            for (std::uint32_t eb = self ? a.next : other_head; eb != kNoEntry;
                 eb = grid.entry(eb).next) {
              const GridEntry& b = grid.entry(eb);
              ++tested;
              // Incremental hook: a pair with no dirty member carries its
              // baseline conjunctions forward, so it never becomes a
              // candidate here (see GridPipelineOptions::dirty_mask).
              if (!a_dirty && dirty[b.satellite] == 0) {
                ++masked;
                continue;
              }
              if (options.distance_prefilter) {
                // A pair farther apart than d + (v_max_a + v_max_b) * s/2
                // cannot reach the threshold closer than half a sample from
                // this step; the step nearest its minimum keeps it.
                const double cutoff = prefilter_base +
                    half_sps * (vmax[a.satellite] + vmax[b.satellite]);
                if ((a.position - b.position).norm2() > cutoff * cutoff) {
                  ++prefiltered;
                  continue;
                }
              }
              out.push_back({std::min(a.satellite, b.satellite),
                             std::max(a.satellite, b.satellite), step});
            }
          }
        }
      }
      if (obs::enabled()) {
        obs::count(obs::Counter::kCellsScanned, last - first);
        obs::count(obs::Counter::kCellsOccupied, occupied);
        obs::count(obs::Counter::kPairsTested, tested);
        obs::count(obs::Counter::kPairsMaskedClean, masked);
        obs::count(obs::Counter::kPairsPrefiltered, prefiltered);
        obs::count(obs::Counter::kCandidatesEmitted, out.size());
      }
    });

    // Concatenate the round's buffers step by step and sort each step's
    // block by pair. The grid's slot layout and list order depend on how
    // the inserts interleaved; the sorted order depends on the input only.
    std::vector<Candidate> drained;
    std::vector<Candidate>& dest = sink != nullptr ? drained : result.candidates;
    const std::size_t base = dest.size();
    std::vector<std::size_t> offsets(steps + 1, base);
    for (std::size_t local = 0; local < steps; ++local) {
      offsets[local + 1] = offsets[local];
      for (std::size_t c = 0; c < chunks_per_step; ++c) {
        offsets[local + 1] += buffers[local * chunks_per_step + c].size();
      }
    }
    dest.resize(offsets[steps]);
    pool_of(config).parallel_for(steps, [&](std::size_t local) {
      const auto begin = dest.begin() + static_cast<std::ptrdiff_t>(offsets[local]);
      auto end = begin;
      for (std::size_t c = 0; c < chunks_per_step; ++c) {
        const std::vector<Candidate>& buffer = buffers[local * chunks_per_step + c];
        end = std::copy(buffer.begin(), buffer.end(), end);
      }
      std::sort(begin, end, [](const Candidate& x, const Candidate& y) {
        return x.sat_a != y.sat_a ? x.sat_a < y.sat_a : x.sat_b < y.sat_b;
      });
    }, /*grain=*/1);
    result.total_candidates += offsets[steps] - base;

    const double cd_seconds = cd_watch.seconds();
    result.detection_seconds += cd_seconds;
    obs::add_seconds(obs::Counter::kTimeDetectionNs, cd_seconds);

    if (sink != nullptr) (*sink)(round, std::move(drained), result);
  }
  return result;
}

}  // namespace

GridPipelineResult run_grid_pipeline(const Propagator& propagator,
                                     const ScreeningConfig& config,
                                     const GridPipelineOptions& options) {
  return run_pipeline_impl(propagator, config, options, nullptr);
}

GridPipelineResult run_grid_pipeline_streaming(const Propagator& propagator,
                                               const ScreeningConfig& config,
                                               const GridPipelineOptions& options,
                                               const GridRoundSink& sink) {
  return run_pipeline_impl(propagator, config, options, &sink);
}

}  // namespace scod
