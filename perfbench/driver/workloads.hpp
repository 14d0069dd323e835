#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/grid_pipeline.hpp"
#include "core/screener.hpp"
#include "json.hpp"
#include "orbit/elements.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/propagator.hpp"
#include "reference.hpp"
#include "service/screening_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Every workload screens the generator's population at this seed, so the
/// committed reference lists hold for every run; the run's --seed draws
/// the catalog order and the service's manoeuvre sequence.
inline constexpr std::uint64_t kPopulationSeed = 42;

enum class PropagatorKind { kKepler, kJ2 };

struct Workload {
  std::string name;
  bool service = false;  ///< ScreeningService epochs instead of one screen()
  scod::Variant variant = scod::Variant::kGrid;
  PropagatorKind propagator = PropagatorKind::kKepler;
  std::size_t count = 0;
  double span_s = 0.0;
  double threshold_km = 0.0;
  double seconds_per_sample = 0.0;  ///< 0 keeps the variant's default
  std::size_t dirty_per_epoch = 0;  ///< service: objects manoeuvred per epoch
  /// Whether --seed shuffles the catalog order. Off only where the output
  /// depends on the order (a defect, see perfbench/README.md), so that
  /// the documented known-miss list holds.
  bool shuffle = true;
  std::string reference;            ///< file under the reference directory
  std::string known_misses;         ///< documented defect list, or empty
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Settings of one benchmark run.
struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::size_t threads = 1;
  std::string reference_dir;
};

/// What a run measured and checked; main() turns it into the driver's
/// output record.
struct RunResult {
  bool correct = true;
  std::string failure;       ///< why `correct` is false
  std::size_t attempted = 0;  ///< reference events checked
  std::size_t missed = 0;
  std::size_t extra = 0;
  std::size_t known_misses = 0;  ///< missed events that are documented defects
  std::vector<double> op_s;      ///< untraced: one entry per timed operation
  std::vector<double> setup_s;   ///< untraced: time per set-up, one entry per batch
  std::vector<double> epoch_s;   ///< traced service: epoch latencies
  double peak_rss_mb = 0.0;
  JsonObject layers;             ///< traced: per-layer values
  JsonObject facts;              ///< extra facts for the run record
  std::string spans = "[]";      ///< traced: recorded spans

  /// Folds a reference check into the tallies.
  void add_check(const ReferenceDiff& diff, const std::vector<scod::Conjunction>& known,
                 const std::string& what);
};

/// The workload's population in the run's catalog order (the generator's
/// order for a workload that does not shuffle).
std::vector<scod::Satellite> make_population(const Workload& workload,
                                             std::uint64_t seed);

scod::ScreeningConfig make_config(const Workload& workload, scod::ThreadPool& pool);

/// The variant's default pipeline options with the workload's s_ps.
scod::GridPipelineOptions pipeline_options(const Workload& workload);

/// Shared Kepler solver every propagator of the benchmark uses.
const scod::KeplerSolver& kepler_solver();

/// Builds the workload's propagator over `satellites`.
std::unique_ptr<scod::Propagator> make_propagator(
    const Workload& workload, std::span<const scod::Satellite> satellites);

scod::ServiceOptions service_options(const Workload& workload, scod::ThreadPool& pool);

/// One epoch's delta: `count` objects spread evenly over the catalog from a
/// random offset, each nudged in mean anomaly and argument of perigee (the
/// manoeuvre rule of bench_service_incremental).
std::vector<scod::Satellite> epoch_delta(const scod::CatalogSnapshot& snapshot,
                                         std::size_t count, scod::Rng& rng);

std::vector<scod::Conjunction> from_ids(const std::vector<scod::IdConjunction>& events);

std::vector<scod::Conjunction> load_reference(const Workload& workload,
                                              const RunOptions& options);
std::vector<scod::Conjunction> load_known_misses(const Workload& workload,
                                                 const RunOptions& options);

/// Operation loop of a timed run: runs three operations, then keeps going
/// while the next one, predicted from the median so far, still ends inside
/// the run's seconds.
bool another_operation(const std::vector<double>& op_s, double elapsed, double seconds);

RunResult run_untraced(const Workload& workload, const RunOptions& options);
/// Throws std::runtime_error when the layer-composed screen does not
/// reproduce the program's own output: its spans would describe a
/// different program.
RunResult run_traced(const Workload& workload, const RunOptions& options);

}  // namespace perfbench
