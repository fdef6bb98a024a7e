// The benchmark's workloads and the layer-by-layer replay of one
// workload through the library's public calls.
//
// The untraced path runs each workload through the Engine facade, exactly
// as gossip_run does. The replay below re-executes the same repetitions
// by calling each layer directly — simulator constructor, init_*, run,
// results; or LoopbackTransport + Executor — so the traced run can put a
// span around every call. bench_decomposition_parity pins the replay to
// the Engine bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/engine.hpp"
#include "experiment/intra_rep.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/spec.hpp"
#include "trace.hpp"

namespace gossip::bench {

/// How a workload's repetitions execute.
enum class Shape {
  kRepParallel,  ///< independent reps fanned over the thread pool
  kIntraRep,     ///< one rep domain-decomposed over shards
  kRuntime,      ///< sequential reps on the live executor (loopback)
};

/// A workload is a spec with engine, threads and shards pinned, so a
/// default-constructed Engine runs it exactly as configured.
struct Workload {
  std::string name;
  Shape shape = Shape::kRepParallel;
  experiment::ScenarioSpec spec;
};

/// The named workload (one BENCHMARK.json lists) with its inputs drawn
/// from `seed`, run on `threads` threads. Throws std::invalid_argument
/// for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       unsigned threads);

/// `w` at test scale: N=2000, at most 4 reps and 100 instances.
Workload shrunk(Workload w);

/// Seed of repetition `rep` — the one Engine::run_point uses.
std::uint64_t rep_seed_of(const Workload& w, std::uint32_t rep);

/// Threads the replay's pool needs for `w` (the Engine's choice).
unsigned pool_threads(const Workload& w);

/// Replays every repetition of `w` through the layers' public calls, in
/// rep order. Spans (rep → experiment.setup / experiment.run /
/// experiment.finish) go under `parent` when `tracer` is non-null.
/// `profile`, when non-null, collects the intra-rep phase profile.
std::vector<experiment::RunResult> replay_point(
    const Workload& w, experiment::ParallelRunner& pool, Tracer* tracer,
    std::uint32_t parent, experiment::IntraRepPhaseProfile* profile);

/// Seconds inside IntraRepSimulation::run for `cycles` cycles of the
/// intra-rep workload `w` on a pool of `threads` threads (set-up not
/// counted). Used for the 1-thread versus N-thread run speedup.
double intra_run_seconds(const Workload& w, unsigned threads,
                         std::uint32_t cycles);

/// FNV-1a over the bits of every rep's per-cycle variances, in rep order
/// — equal digests mean bit-identical convergence trajectories.
std::uint64_t variance_digest(const std::vector<experiment::RunResult>& reps);

}  // namespace gossip::bench
