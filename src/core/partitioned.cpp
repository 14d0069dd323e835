#include "core/partitioned.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "parallel/thread_pool.hpp"

namespace scod {

ScreeningReport partitioned_screen(std::span<const Satellite> satellites,
                                   const ScreeningConfig& caller_config,
                                   Variant variant, std::size_t partitions,
                                   ScreeningContext* context) {
  if (partitions == 0) throw std::invalid_argument("partitioned_screen: 0 partitions");
  const std::size_t n = satellites.size();

  detail::ContextLease lease(context);
  ScreeningContext::Use use(*lease);
  const ScreeningConfig config = lease->apply(caller_config);

  // Contiguous block decomposition; block b owns indices
  // [b * n / partitions, (b+1) * n / partitions).
  auto block_begin = [&](std::size_t b) { return b * n / partitions; };
  auto block_of = [&](std::uint32_t index) {
    // Blocks are contiguous and near-equal; a short scan is fine for the
    // partition counts this harness targets.
    for (std::size_t b = 0; b < partitions; ++b) {
      if (index < block_begin(b + 1)) return b;
    }
    return partitions - 1;
  };

  // Every unordered block pair is one independent job. Materialize the
  // list upfront so the jobs can fan out across the pool; each job keeps
  // its report and index mapping in its own slot, and the merge below
  // walks the slots in (bi, bj) order, so the output is independent of
  // which job finishes first.
  struct Job {
    std::size_t bi, bj;
    ScreeningReport report;
    std::vector<std::uint32_t> global_index;
  };
  std::vector<Job> jobs;
  for (std::size_t bi = 0; bi < partitions; ++bi) {
    for (std::size_t bj = bi; bj < partitions; ++bj) {
      jobs.push_back(Job{bi, bj, {}, {}});
    }
  }

  const auto run_job = [&](Job& job, const ScreeningConfig& job_config) {
    // The job's working set: block bi plus (for cross jobs) block bj,
    // with a mapping from job-local indices back to global ones.
    std::vector<Satellite> subset;
    auto add_block = [&](std::size_t b) {
      for (std::size_t k = block_begin(b); k < block_begin(b + 1); ++k) {
        Satellite sat = satellites[k];
        sat.id = static_cast<std::uint32_t>(subset.size());
        subset.push_back(sat);
        job.global_index.push_back(static_cast<std::uint32_t>(k));
      }
    };
    add_block(job.bi);
    if (job.bj != job.bi) add_block(job.bj);
    if (subset.size() < 2) return;
    // Each job builds its own screener with an ephemeral context: the
    // arena is single-screen scratch, not shareable across concurrent
    // jobs — exactly the independence a multi-machine deployment needs.
    job.report = make_screener(variant)->screen(subset, job_config);
  };

  if (jobs.size() == 1) {
    run_job(jobs.front(), config);
  } else {
    // Fan the block-pair jobs out across the outer pool. Inner screens
    // run on a single-thread pool: a nested run_on_all from a pool worker
    // would deadlock, and ThreadPool(1) executes work inline with no
    // shared state, so concurrent jobs can share one instance safely.
    static ThreadPool inline_pool(1);
    ScreeningConfig job_config = config;
    job_config.pool = &inline_pool;
    pool_of(config).parallel_for(
        jobs.size(), [&](std::size_t j) { run_job(jobs[j], job_config); },
        /*grain=*/1);
  }

  ScreeningReport merged;
  std::vector<Conjunction> all;
  for (const Job& job : jobs) {
    const ScreeningReport& part = job.report;
    merged.timings.allocation += part.timings.allocation;
    merged.timings.insertion += part.timings.insertion;
    merged.timings.detection += part.timings.detection;
    merged.timings.filtering += part.timings.filtering;
    merged.timings.refinement += part.timings.refinement;
    merged.stats.candidates += part.stats.candidates;
    merged.stats.refinements += part.stats.refinements;
    merged.stats.pairs_examined += part.stats.pairs_examined;

    for (const Conjunction& c : part.conjunctions) {
      Conjunction global = c;
      global.sat_a = job.global_index[c.sat_a];
      global.sat_b = job.global_index[c.sat_b];
      if (global.sat_a > global.sat_b) std::swap(global.sat_a, global.sat_b);
      // Keep only the combination this job owns: both in bi for the
      // diagonal job, one in each block for cross jobs — every global
      // pair is then reported by exactly one job.
      const std::size_t ba = block_of(global.sat_a);
      const std::size_t bb = block_of(global.sat_b);
      const bool owned = (job.bi == job.bj)
                             ? (ba == job.bi && bb == job.bi)
                             : ((ba == job.bi && bb == job.bj) ||
                                (ba == job.bj && bb == job.bi));
      if (owned) all.push_back(global);
    }
  }

  merged.conjunctions = merge_conjunctions(std::move(all), 0.0);
  merged.stats.satellites = n;
  return merged;
}

}  // namespace scod
