// The Engine facade: the single execution entry point for every
// experiment workload. It takes a declarative ScenarioSpec (spec.hpp),
// picks the execution path — serial, repetition-parallel fan-out, or the
// domain-decomposed intra-rep mode — resolves the thread and shard
// counts, and returns one unified RunResult shape for all drivers: the
// cycle simulator, the event-driven world, the push-sum baseline and the
// deployment runtime (runtime::Executor). Before it runs a point it
// validates that point's spec with the resolved engine and thread count
// written in, so an override meets the same rules as the spec's own
// fields.
//
// Engine selection with `auto`:
//   reps > 1                 → rep_parallel (bit-identical to serial for
//                              any thread count; the historical default)
//   one giant cycle-driver   → intra_rep (N ≥ 500k, single-point specs
//   rep (AVERAGE or COUNT,     only so a sweep series never mixes
//   any instance count)        engines; its matched-cycle model is
//                              bit-deterministic but NOT bit-comparable
//                              with the serial driver — pin engine
//                              explicitly where that matters)
//   otherwise                → serial
//
// Determinism contract (unchanged from the pre-facade entry points):
// repetition r of sweep point p runs with rep_seed(spec.seed,
// p.seed_point, r), results merge in rep order, so every series is a
// pure function of the spec — never of threads, shards or core count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "experiment/parallel_runner.hpp"
#include "experiment/spec.hpp"
#include "failure/failure_plan.hpp"
#include "runtime/counters.hpp"
#include "stats/convergence.hpp"
#include "stats/running_stats.hpp"
#include "stats/summary.hpp"

namespace gossip::experiment {

/// The unified result of one repetition, for every driver.
struct RunResult {
  /// Estimate statistics per cycle: index 0 the initial state, index
  /// i >= 1 after cycle i.
  std::vector<stats::RunningStats> per_cycle;
  /// Convergence bookkeeping over the recorded variances.
  stats::ConvergenceTracker tracker;
  /// Distribution of the run's final per-node estimates: COUNT's robust
  /// size estimates, the event driver's estimate summary, push-sum's
  /// sum/weight ratios. Zero-count for scalar cycle-driver runs (their
  /// final distribution is per_cycle.back()).
  stats::Summary sizes;
  /// Participating live nodes at the end of the run.
  std::uint32_t participants = 0;

  // ---- continuous-service results (empty/zero when drift and the
  // ---- service pipeline are off — the old shape is unchanged) ---------

  /// |estimate mean − current true mean| per stats snapshot (aligned
  /// with per_cycle), recorded whenever the drivers track local values.
  std::vector<double> tracking_error;
  /// Per-cycle age of the served snapshot, from the first publication on.
  std::vector<std::uint32_t> staleness;
  /// |served snapshot value − current true mean| aligned with staleness.
  std::vector<double> served_error;
  /// Wall-clock seconds inside the simulation run (lane-throughput =
  /// instances * cycles / elapsed_seconds).
  double elapsed_seconds = 0.0;
  /// Epoch reports the service pipeline published.
  std::uint64_t epochs_published = 0;

  // ---- deployment-runtime results (zero/default off the runtime
  // ---- driver — the simulator result shape is unchanged) --------------

  /// True when the repetition executed on the deployment runtime.
  bool runtime_enabled = false;
  /// Message/exchange counters summed over the local workers.
  runtime::RuntimeCounters runtime_counters;
  /// Global-sum conservation pair over the local participants' estimates
  /// (exactly equal under zero loss and no failures).
  double runtime_sum_initial = 0.0;
  double runtime_sum_final = 0.0;
};

/// Derives the per-repetition seed for repetition `rep` of sweep point
/// `point` from the base seed (stable, collision-resistant; unchanged
/// from the pre-facade experiment layer).
std::uint64_t rep_seed(std::uint64_t base, std::uint64_t point,
                       std::uint64_t rep);

/// Optional overrides on top of the spec's engine fields (the CLI's
/// --set threads=… path); zero / kAuto defer to the spec, which defers
/// to the hardware (runner_threads()).
struct EngineOptions {
  EngineKind kind = EngineKind::kAuto;
  unsigned threads = 0;
  unsigned shards = 0;
};

/// The concrete execution configuration an Engine settled on.
struct ResolvedEngine {
  EngineKind kind = EngineKind::kSerial;  ///< never kAuto
  unsigned threads = 1;
  unsigned shards = 1;
};

/// Resolves spec + options + hardware into a concrete engine choice.
/// It checks nothing: validate_as_run() does, before the Engine runs.
ResolvedEngine resolve_engine(const ScenarioSpec& spec,
                              const EngineOptions& options = {});

/// validate() on `spec` as it runs: the resolved engine kind and thread
/// count written in, so an override (the CLI's --set engine=… or
/// --set threads=…) meets the same rules as the spec's own fields.
void validate_as_run(ScenarioSpec spec, const ResolvedEngine& resolved);

/// One sweep point's executed repetitions (rep order).
struct PointResult {
  SweepPoint point;
  std::vector<RunResult> reps;
};

/// A fully executed scenario sweep.
struct ScenarioResult {
  ScenarioSpec spec;
  ResolvedEngine engine;
  std::vector<PointResult> points;
};

/// The facade. Construct once (optionally with overrides), run specs.
/// Not thread-safe: drive one Engine from one thread.
class Engine {
public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the full sweep: every point, every repetition.
  ScenarioResult run(const ScenarioSpec& spec);

  /// All `spec.reps` repetitions of sweep point `index`, in rep order —
  /// bit-identical for any thread count. Throws SpecError if the point's
  /// spec, with the resolved engine, fails validate().
  std::vector<RunResult> run_point(const ScenarioSpec& spec,
                                   std::size_t index);

  /// One repetition with `raw_seed` used directly as the simulation seed
  /// (the historical single-run semantics; sweep-derived runs use
  /// rep_seed internally). `plan_override`, when non-null, replaces the
  /// spec's declarative failure plan — the hook for bespoke plans in
  /// tests and studies that the FailureSpec vocabulary cannot express.
  /// Throws SpecError if `spec`, with the resolved engine, fails
  /// validate().
  RunResult run_single(const ScenarioSpec& spec, std::uint64_t raw_seed,
                       const failure::FailurePlan* plan_override = nullptr);

private:
  /// Engine resolution for one sweep point: per-point fields, original
  /// sweep width (multi-point sweeps resolve uniformly — see .cpp).
  [[nodiscard]] ResolvedEngine resolve_point(const ScenarioSpec& spec,
                                             std::size_t index) const;
  ParallelRunner& pool_for(unsigned threads, std::size_t max_jobs);
  /// The pool an intra-rep repetition runs on; null on the other engines.
  ParallelRunner* intra_pool(const ResolvedEngine& re);

  EngineOptions options_;
  std::unique_ptr<ParallelRunner> pool_;
  unsigned pool_threads_ = 0;
};

}  // namespace gossip::experiment
