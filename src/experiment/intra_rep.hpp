// Domain-decomposed single-repetition simulator: one giant-N repetition
// whose *cycles* are executed by several threads at once — the mode for
// N=10⁶ runs where fanning repetitions across cores (parallel_runner's
// map) doesn't help because there is only one repetition.
//
// Execution model ("matched" bulk-synchronous cycles):
//   1. failure events apply at the cycle boundary; crashes retire in one
//      batch through Population's batch kills (kill_many's stable
//      parallel compaction), the runtime executor's kill order too;
//   2. PROPOSE (parallel over id-space shards, read-only): every live
//      node draws its exchange partner candidates — plus the exchange's
//      communication fate and its match priority key — from its own
//      derived RNG stream;
//   3. MATCH (parallel init pass, then serial sort and scan): proposals
//      resolve into a set of *disjoint* exchange pairs by a greedy scan
//      in priority order. The active nodes are stably radix-sorted by
//      their per-round pseudorandom 31-bit key (sort_by_key; equal keys
//      keep id order), and one pass in that (key, id) order gives each
//      still-unmatched node its first unmatched viable candidate. The
//      scan order is keyed by node id, so the pair set is independent
//      of shards, threads and schedule; a node proposing a dead peer
//      (the §4.2 timeout) sits the round out;
//   4. APPLY (parallel over pair chunks, software-prefetched one pair
//      ahead like the serial driver's run_cycle pipeline): because pairs
//      are disjoint, cache merges and estimate updates touch disjoint
//      state — no locks, and the final state is independent of execution
//      order;
//   5. STATS (parallel over kStatsSegments fixed id-space segments,
//      folded through stats::merge_tree's fixed-shape reduction):
//      per-cycle mean/variance for *every* instance lane.
//
// Aggregation steps 2–4 repeat `match_rounds` times per cycle
// (independent matchings, each applied before the next round draws), so
// a node left unmatched in round 1 retries and a matched node keeps
// mixing. Matching quality comes from two ingredients: kCandidates
// fallback proposals per node (an alive-but-claimed first choice falls
// through to the next view entry) and the per-round pseudorandom
// priority keys (a fixed id-order priority starves the same late nodes
// every round — persistent stragglers whose deviation dominates
// late-cycle variance).
//
// Determinism: every random draw is keyed by (seed, cycle, node id,
// phase/round), never by shard or thread, the match scans in (key, id)
// order, and every cross-shard statistics reduction is a fixed-shape
// tree — so the output is bit-identical for any shards ×
// threads combination (golden-tested for 1/2/8 shards in
// tests/determinism_test.cpp and tests/intra_rep_workloads_test.cpp),
// including degenerate geometries (shards > N, shards emptied by a mass
// crash). The match's sort and scan are serial O(N); everything else
// serial is O(shards + segments) glue (prefix sums and the
// reduction-tree folds).
//
// The engine owns its domain decomposition: `shards` contiguous id-space
// slices (id_range) for the per-node sweeps, over the same live set,
// overlay and GETNEIGHBOR() sampler as the serial driver (all from
// SimulationCore). Each aggregation round visits the sampler variant
// once, outside the per-node loop.
//
// The matched model restricts each node to at most one exchange per
// round (the serial driver additionally lets nodes answer several
// initiators), so per-cycle convergence factors differ by a constant
// from CycleSimulation — compare intra-rep results against intra-rep
// goldens, not against the serial driver's.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "common/stream_salt.hpp"
#include "experiment/sim_core.hpp"
#include "failure/failure_plan.hpp"
#include "membership/newscast.hpp"
#include "overlay/population.hpp"
#include "stats/running_stats.hpp"

namespace gossip::experiment {

class ParallelRunner;  // experiment/parallel_runner.hpp

/// The match's scan order: stably sorts `words`, each `(key << 32) | id`,
/// by key alone, so words with equal keys keep their input order. An LSD
/// radix sort of three 11-bit counting passes; `scratch` is its second
/// buffer.
void sort_by_key(std::vector<std::uint64_t>& words,
                 std::vector<std::uint64_t>& scratch);

/// Wall-clock decomposition of one intra-rep run: total time inside
/// run() vs time spent inside ParallelRunner batches. The difference is
/// the serial residue (the match's key sort and greedy scan, phase glue,
/// prefix sums, reduction-tree folds) — the Amdahl term the benchmark
/// reports as experiment.intra_rep.serial_fraction.
struct IntraRepPhaseProfile {
  double total_seconds = 0.0;
  double parallel_seconds = 0.0;

  [[nodiscard]] double serial_fraction() const {
    if (total_seconds <= 0.0) return 0.0;
    const double f = 1.0 - parallel_seconds / total_seconds;
    return f < 0.0 ? 0.0 : f;
  }
};

/// One domain-decomposed repetition. Construct, initialize values, run
/// against a ParallelRunner, then read estimates/statistics — the same
/// lifecycle, workload vocabulary and result surface as CycleSimulation
/// (both are a SimulationCore).
class IntraRepSimulation final : public SimulationCore {
public:
  /// `shards` is the domain-decomposition width (the spec's `shards`); the
  /// runner passed to run() supplies the worker threads. Degenerate
  /// geometries (shards > nodes) are legal — empty shards idle.
  /// `bootstrap`, when set, runs the NEWSCAST bootstrap's per-node pass
  /// (the Engine lends it the run's pool); the views are the same
  /// without it.
  IntraRepSimulation(const SimConfig& config, std::uint64_t seed,
                     unsigned shards,
                     const overlay::ParallelFor* bootstrap = nullptr);
  IntraRepSimulation(const IntraRepSimulation&) = delete;  // par_ holds this
  IntraRepSimulation& operator=(const IntraRepSimulation&) = delete;

  /// Runs config.cycles matched cycles under `plan`, parallelizing each
  /// phase across `pool`. Call once.
  void run(const failure::FailurePlan& plan, ParallelRunner& pool);

  /// Optional wall-clock instrumentation: when set before run(), the
  /// profile accumulates total vs in-parallel-batch seconds (the
  /// benchmark derives the serial-phase fraction from it). Must outlive
  /// run().
  void set_phase_profile(IntraRepPhaseProfile* profile) {
    profile_ = profile;
  }

  [[nodiscard]] unsigned shards() const { return shards_; }

private:
  std::uint32_t kill_range(std::uint32_t lo, std::uint32_t hi,
                           std::uint32_t max_kills) override;
  void kill_uniform(std::uint32_t kills) override;
  void apply_drift(std::uint32_t cycle) override;
  void exchange_cycle(std::uint32_t cycle) override;
  void record_stats() override;

  void newscast_round(std::uint32_t cycle, std::uint32_t round,
                      std::uint64_t now);
  void aggregation_round(std::uint32_t cycle, std::uint32_t round);
  void apply_pairs(std::uint32_t cycle);
  template <typename Sampler>
  void propose(std::uint32_t cycle, std::uint64_t salt, bool draw_outcome,
               bool participants_only, const Sampler& sampler);
  void match(bool participants_only);
  void collect_pairs();

  /// Contiguous id-space slice [lo, hi) owned by `shard` — the unit the
  /// per-node sweeps partition by. Covers every id ever issued; dead ids
  /// are skipped by the sweep's alive check.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> id_range(
      unsigned shard) const {
    const std::uint64_t n = population_.total();
    return {static_cast<std::uint32_t>(n * shard / shards_),
            static_cast<std::uint32_t>(n * (shard + 1) / shards_)};
  }

  /// pool_->run with optional phase-profile accounting.
  void par_run(std::size_t count,
               const std::function<void(std::size_t)>& job);

  /// The derived generator for one node's draws in one phase (round) of
  /// one cycle. Keyed by node identity — never by shard — so
  /// partitioning is invisible to the random stream. The mix shape and
  /// every multiplier live in the stream-salt registry.
  [[nodiscard]] Rng node_stream(std::uint32_t cycle, std::uint32_t node,
                                std::uint64_t salt) const {
    std::uint64_t s = salt::node_stream_key(seed_, cycle, node, salt);
    return Rng(splitmix64(s));
  }

  /// Fixed statistics-segment count: the per-cycle stats pass is
  /// parallel over these id-space segments and folded through
  /// stats::merge_tree. The count is a constant — never the shard or
  /// thread count — so the float result is shard/thread-invariant.
  static constexpr std::uint32_t kStatsSegments = 64;

  std::uint64_t seed_;
  unsigned shards_;  // domain-decomposition width, 1..nodes
  /// Proposal candidates per node per round; candidates past the first
  /// are claimed-peer fallbacks for the match resolution.
  static constexpr unsigned kCandidates = 4;
  std::vector<NodeId> proposals_;      // flat [node * kCandidates + c]
  std::vector<std::uint8_t> outcome_;  // per node: drawn ExchangeOutcome
  std::vector<std::uint32_t> key_;     // per node: per-round priority key
  std::vector<char> matched_;          // per node: claimed this phase
  std::vector<NodeId> partner_;        // per node: matched counterpart
  std::vector<std::uint8_t> initiator_;  // per node: owns the pair
  std::vector<std::uint8_t> ncand_;    // per node: viable-candidate count
  std::vector<std::vector<std::uint64_t>> active_;  // per shard: sort words
  std::vector<std::uint64_t> order_;         // match scan order
  std::vector<std::uint64_t> sort_scratch_;  // sort_by_key's second buffer
  std::vector<std::size_t> pair_offsets_;  // per-shard pair prefix sums
  std::vector<std::pair<NodeId, NodeId>> pairs_;
  /// Per-apply-job robust-combine staging (pairs are disjoint, so
  /// window/estimate writes are race-free; only the scratch is per job).
  std::vector<CombineScratch> combine_scratch_;
  std::vector<stats::LaneStats> seg_stats_;  // [segment], every lane
  std::vector<stats::RunningStats> lane_scratch_;  // merge_tree input
  std::vector<stats::RunningStats> val_seg_stats_;  // [segment], values
  std::vector<membership::NewscastNetwork::MergeBuffers> merge_buffers_;

  /// par_run as the Population batch kills' executor seam.
  const overlay::ParallelFor par_;

  ParallelRunner* pool_ = nullptr;  // set for the duration of run()
  IntraRepPhaseProfile* profile_ = nullptr;
};

}  // namespace gossip::experiment
