// The core both cycle engines share. CycleSimulation (the serial
// driver) and IntraRepSimulation (the domain-decomposed one) run the same
// protocol: one push–pull exchange in which both peers install
// UPDATE(s_p, s_q) (paper fig. 1), plus the node state around it. This
// header holds that protocol once — the configuration vocabulary, the
// overlay and its GETNEIGHBOR() sampler, the one live set
// (overlay::Population), the per-node state, initialization, joins,
// §4.2 restarts, drift, the service epoch roll, the pairwise exchange
// kernel, the run-loop order and every result accessor — and each
// engine supplies only what truly differs between the two:
//
//   * pairing — shuffled sequential sampling vs propose/match;
//   * kill batching — draw-kill-draw and swap-remove vs Population's
//     batch kills (kill_many's stable compaction);
//   * the statistics reduction around the shared lane accumulator
//     (stats::LaneStats) — one pass over the live list vs 64 fixed
//     segments folded by merge_tree (their float results differ; both
//     pinned);
//   * plumbing — the intra-rep engine's id-space shards, pool and phase
//     profile.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "common/stream_salt.hpp"
#include "core/epoch.hpp"
#include "core/update.hpp"
#include "experiment/snapshot_store.hpp"
#include "failure/comm_failure.hpp"
#include "failure/failure_plan.hpp"
#include "membership/newscast.hpp"
#include "overlay/graph.hpp"
#include "overlay/peer_sampler.hpp"
#include "overlay/population.hpp"
#include "stats/convergence.hpp"
#include "stats/running_stats.hpp"

namespace gossip::experiment {

/// Which overlay the aggregation runs on (§4.4's topology study).
enum class TopologyKind {
  kComplete,       ///< live-set sampling, no materialized edges
  kRandomKOut,     ///< each node views k random peers
  kRingLattice,    ///< Watts–Strogatz β = 0
  kWattsStrogatz,  ///< rewired ring lattice
  kBarabasiAlbert, ///< preferential attachment, m = degree/2
  kNewscast,       ///< dynamic membership, cache size c
};

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kNewscast;
  std::uint32_t degree = 20;    ///< k (static topologies)
  double beta = 0.0;            ///< Watts–Strogatz rewiring probability
  std::size_t cache_size = 30;  ///< NEWSCAST c

  static TopologyConfig complete() { return {TopologyKind::kComplete}; }
  static TopologyConfig random_k_out(std::uint32_t k) {
    return {TopologyKind::kRandomKOut, k};
  }
  static TopologyConfig ring_lattice(std::uint32_t k) {
    return {TopologyKind::kRingLattice, k};
  }
  static TopologyConfig watts_strogatz(std::uint32_t k, double beta) {
    return {TopologyKind::kWattsStrogatz, k, beta};
  }
  static TopologyConfig barabasi_albert(std::uint32_t mean_degree) {
    return {TopologyKind::kBarabasiAlbert, mean_degree};
  }
  static TopologyConfig newscast(std::size_t c) {
    return {TopologyKind::kNewscast, 20, 0.0, c};
  }

  bool operator==(const TopologyConfig&) const = default;
};

/// The overlay a TopologyConfig names over ids [0, nodes): a static graph,
/// or a NEWSCAST network bootstrapped at time 0 (§4.2). The complete
/// overlay has neither — it samples the live set.
struct Overlay {
  overlay::Graph graph;                                   ///< static kinds
  std::unique_ptr<membership::NewscastNetwork> newscast;  ///< kNewscast
};

/// The static graph `topology` names over ids [0, nodes), randomized
/// constructions drawing from `rng`; empty for the complete and NEWSCAST
/// overlays, which have no fixed edges. The live runtime takes only this
/// part: its NEWSCAST views live in the executor and travel over the wire.
overlay::Graph build_graph(const TopologyConfig& topology,
                           std::uint32_t nodes, Rng& rng);

/// The simulators' overlay: build_graph, then for NEWSCAST the bootstrap
/// of every cache from `rng`, its per-node pass run through `par`
/// (serially when null; the views are the same).
Overlay build_overlay(const TopologyConfig& topology, std::uint32_t nodes,
                      Rng& rng, const overlay::ParallelFor* par = nullptr);

/// The concrete GETNEIGHBOR() strategies a simulation can run over. The
/// drivers visit the variant once per cycle or round (not per node), so
/// each aggregation loop is stamped out per sampler type and the RNG +
/// table lookups inline — there is no virtual call left on the hot path.
using SamplerVariant =
    std::variant<overlay::GraphPeerSampler, overlay::CompletePeerSampler,
                 membership::NewscastPeerSampler>;

/// GETNEIGHBOR() over `built`: the NEWSCAST view, the static graph's
/// out-neighbors, or — for the complete overlay, which has neither —
/// uniform over the live `population`. Both must outlive the sampler.
SamplerVariant make_sampler(const Overlay& built,
                            const overlay::Population& population);

/// Network partition with heal: for cycles [start, start + duration) the
/// population splits into `components` isolated components (node u belongs
/// to component u % components); an aggregation exchange whose endpoints
/// straddle components is dropped like link failure. Afterwards the
/// partition heals and exchanges flow freely again.
struct PartitionSpec {
  std::uint32_t start = 0;      ///< first partitioned cycle (0-based)
  std::uint32_t duration = 0;   ///< 0 = never partitioned
  std::uint32_t components = 1;

  [[nodiscard]] bool active(std::uint32_t cycle) const {
    return duration > 0 && components > 1 && cycle >= start &&
           cycle - start < duration;
  }
  [[nodiscard]] std::uint32_t component_of(std::uint32_t id) const {
    return id % components;
  }

  static PartitionSpec none() { return {}; }
  bool operator==(const PartitionSpec&) const = default;
};

/// Byzantine adversary: a fraction of nodes misbehaves. Membership is a
/// pure hash of the node id (seed-, engine-, shard- and thread-invariant),
/// so the honest half of a run is bit-identical across geometries and the
/// empty adversary perturbs nothing.
struct AdversarySpec {
  enum class Behavior {
    kNone,
    kValueInject,   ///< always reports the fixed outlier `value`
    kAlwaysMax,     ///< keeps the maximum of everything it hears
    kCachePollute,  ///< advertises only its own descriptor into newscast
  };

  Behavior behavior = Behavior::kNone;
  double fraction = 0.0;  ///< expected byzantine fraction, in [0,1)
  double value = 0.0;     ///< the outlier reported by value_inject

  static AdversarySpec none() { return {}; }
  static AdversarySpec value_inject(double fraction, double value) {
    return {Behavior::kValueInject, fraction, value};
  }
  static AdversarySpec always_max(double fraction) {
    return {Behavior::kAlwaysMax, fraction, 0.0};
  }
  static AdversarySpec cache_pollute(double fraction) {
    return {Behavior::kCachePollute, fraction, 0.0};
  }

  [[nodiscard]] bool enabled() const {
    return behavior != Behavior::kNone && fraction > 0.0;
  }
  /// Deterministic membership test: hash the id into [0,1) and compare
  /// against the fraction. Joined nodes are hashed the same way, so churn
  /// keeps recruiting adversaries at the configured rate.
  [[nodiscard]] bool is_byzantine(std::uint32_t id) const {
    if (!enabled()) return false;
    std::uint64_t h =
        (static_cast<std::uint64_t>(id) + 1) * salt::kMulAdversaryId ^
        salt::kAdversaryMembership;
    return static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53 < fraction;
  }

  bool operator==(const AdversarySpec&) const = default;
};

/// How a node combines an incoming aggregation report with its own state.
/// `mean` is the paper's pairwise average; the robust kinds keep a sliding
/// window of the last `window` received reports and recompute the local
/// estimate as a robust statistic over {own estimate} ∪ window — bounding
/// the influence of injected outliers at the cost of slower mixing.
struct CombineSpec {
  enum class Kind { kMean, kTrimmedMean, kMedianOfMeans };

  Kind kind = Kind::kMean;
  double alpha = 0.0;        ///< trimmed_mean: trim fraction per side
  std::uint32_t groups = 0;  ///< median_of_means: number of groups
  std::uint32_t window = 8;  ///< sliding window of received reports

  static CombineSpec mean() { return {}; }
  static CombineSpec trimmed_mean(double alpha, std::uint32_t window = 8) {
    return {Kind::kTrimmedMean, alpha, 0, window};
  }
  static CombineSpec median_of_means(std::uint32_t groups,
                                     std::uint32_t window = 8) {
    return {Kind::kMedianOfMeans, 0.0, groups, window};
  }

  [[nodiscard]] bool robust() const { return kind != Kind::kMean; }

  bool operator==(const CombineSpec&) const = default;
};

/// Dynamic local values (the continuous-service regime): each node's
/// underlying value v_u moves every cycle and the node folds the change
/// into its running estimate — the LiMoSense-style mass-preserving
/// update — so the network *tracks* a moving mean instead of converging
/// to a static one. The per-(cycle,node) delta is a pure function of
/// (stream_seed, cycle, node) via drift_delta(): engine-, shard- and
/// thread-invariant, consuming nothing from any other RNG stream, and
/// the empty spec perturbs nothing.
struct DriftSpec {
  enum class Kind {
    kNone,
    kLinear,      ///< every value shifts by `rate` per cycle
    kRandomWalk,  ///< per-node step uniform in [-rate, rate) per cycle
    kStep,        ///< every value jumps by `magnitude` at `start_cycle`
  };

  Kind kind = Kind::kNone;
  double rate = 0.0;       ///< kLinear / kRandomWalk per-cycle scale
  double magnitude = 0.0;  ///< kStep jump height
  std::uint32_t start_cycle = 0;  ///< first drifting cycle (0-based)

  static DriftSpec none() { return {}; }
  static DriftSpec linear(double rate, std::uint32_t start_cycle = 0) {
    return {Kind::kLinear, rate, 0.0, start_cycle};
  }
  static DriftSpec random_walk(double rate, std::uint32_t start_cycle = 0) {
    return {Kind::kRandomWalk, rate, 0.0, start_cycle};
  }
  static DriftSpec step(double magnitude, std::uint32_t at_cycle) {
    return {Kind::kStep, 0.0, magnitude, at_cycle};
  }

  [[nodiscard]] bool enabled() const { return kind != Kind::kNone; }

  bool operator==(const DriftSpec&) const = default;
};

/// Continuous service (restart-free epoch pipelining, §4.1/§4.3): the
/// run is cut into epochs of `epoch_cycles` cycles; at each boundary the
/// converged report is published into the SnapshotStore and every live
/// node re-seeds its estimate from its *current* local value — the next
/// epoch converges while the previous one is being served. Queries read
/// the store at an explicit age; `staleness_bound` is the spec-level
/// bound the emit layer checks the measured p99 age against.
struct ServiceSpec {
  bool pipeline = false;
  std::uint32_t epoch_cycles = 0;     ///< γ cycles per published epoch
  std::uint32_t staleness_bound = 0;  ///< max acceptable age_cycles (≥ 1)

  static ServiceSpec none() { return {}; }
  static ServiceSpec pipelined(std::uint32_t epoch_cycles,
                               std::uint32_t staleness_bound) {
    return {true, epoch_cycles, staleness_bound};
  }

  [[nodiscard]] bool enabled() const { return pipeline; }

  bool operator==(const ServiceSpec&) const = default;
};

struct SimConfig {
  std::uint32_t nodes = 10000;   ///< initial network size
  std::uint32_t cycles = 30;     ///< epoch length γ
  std::uint32_t instances = 1;   ///< concurrent aggregation instances t
  TopologyConfig topology;
  failure::CommFailureModel comm = failure::CommFailureModel::none();
  /// UPDATE function applied to every instance slot (§3, §5). COUNT
  /// workloads (init_count_leaders / size_estimates) require kAverage.
  core::UpdateKind update = core::UpdateKind::kAverage;
  /// Matched propose/match/apply rounds per aggregation cycle —
  /// consumed by IntraRepSimulation only (the serial driver has no
  /// match phase; CycleSimulation ignores it).
  std::uint32_t match_rounds = 1;
  PartitionSpec partition;   ///< component-scoped exchange filter
  AdversarySpec adversary;   ///< byzantine behavior, none() by default
  CombineSpec combine;       ///< mean() reproduces the paper exactly
  /// True when the failure plan emits epoch-restart events: the driver
  /// snapshots initial estimates at run() start so a restart can re-seed.
  bool epoch_restarts = false;
  /// Nodes the failure plan joins over the whole run
  /// (FailurePlan::total_joins). The core reserves every per-node array
  /// for them once, at construction; 0 reserves nothing, and joins then
  /// grow the arrays geometrically.
  std::uint64_t total_joins = 0;
  DriftSpec drift;     ///< dynamic local values, none() by default
  ServiceSpec service;  ///< epoch pipelining + snapshot query service
  /// Seed of the engine-invariant per-(cycle,node) streams (drift). The
  /// Engine sets it to the repetition seed; both drivers read it through
  /// the shared drift_delta(), so the drift a node experiences is
  /// bit-identical across CycleSimulation, IntraRepSimulation and every
  /// shard × thread geometry.
  std::uint64_t stream_seed = 0;
};

/// The drift applied to node `node`'s local value at cycle `cycle`: a
/// pure function of its arguments (same splitmix64 keying as
/// IntraRepSimulation::node_stream, under a dedicated drift salt), so
/// both engines and all geometries derive the identical stream and a
/// disabled drift costs nothing and perturbs nothing.
double drift_delta(const DriftSpec& drift, std::uint64_t stream_seed,
                   std::uint32_t cycle, std::uint32_t node);

/// One robust-combine receive step (the exchange kernel's honest
/// receive under a robust CombineSpec): pushes `report` into node `u`'s
/// ring window (flat [u * combine.window + k]) and returns the node's new
/// estimate — trimmed mean or median-of-means over {own} ∪ window,
/// oldest → newest. `scratch`/`means` are reusable staging buffers.
double robust_combine_receive(const CombineSpec& combine, std::uint32_t u,
                              double own, double report,
                              std::vector<double>& window,
                              std::uint8_t* wfill, std::uint8_t* wpos,
                              std::vector<double>& scratch,
                              std::vector<double>& means);

/// The state and mechanics both cycle engines share (see the file
/// comment). An engine derives from SimulationCore, calls run_cycles()
/// from its run(), and implements the private hooks; the hooks are called
/// once per cycle, never per exchange.
class SimulationCore {
public:
  virtual ~SimulationCore() = default;

  /// Scalar initialization (requires instances == 1).
  void init_scalar(const std::function<double(NodeId)>& value_of);

  /// The fig. 2 workload: `peak_holder`-th node holds `peak`, everyone
  /// else 0 (requires instances == 1).
  void init_peak(double peak, std::uint32_t peak_holder = 0);

  /// The COUNT workload (§5): `instances` leaders drawn uniformly without
  /// replacement from the boundary RNG; leader i's slot i starts at 1,
  /// everything else 0.
  void init_count_leaders();

  // ---- results ---------------------------------------------------------

  [[nodiscard]] const overlay::Population& population() const {
    return population_;
  }

  /// Participating live nodes (the ones whose estimates the paper plots),
  /// live-list order. Byzantine nodes that corrupt the aggregate are left
  /// out; cache polluters aggregate honestly and stay in.
  [[nodiscard]] std::vector<NodeId> participants() const;

  [[nodiscard]] double estimate(NodeId node,
                                std::uint32_t instance = 0) const;

  /// Instance-0 estimates of all participants, live-list order.
  [[nodiscard]] std::vector<double> scalar_estimates() const;

  /// COUNT outputs: per participant, 1/e per instance combined with the
  /// §7.3 trimmed mean (an instance with non-positive estimate
  /// contributes +inf — "the estimate can even become infinite").
  [[nodiscard]] std::vector<double> size_estimates() const;

  /// Mean/variance/min/max of instance-0 estimates over participants,
  /// one snapshot before the first cycle and one after each cycle.
  [[nodiscard]] const std::vector<stats::RunningStats>& cycle_stats() const {
    return cycle_stats_;
  }

  /// Per-cycle statistics of *every* instance lane:
  /// instance_cycle_stats()[c][i] summarizes lane i at snapshot c
  /// (lane 0 is cycle_stats()[c]). Multi-instance runs (figs. 6/8)
  /// record one variance trajectory per concurrent aggregate.
  [[nodiscard]] const std::vector<std::vector<stats::RunningStats>>&
  instance_cycle_stats() const {
    return instance_stats_;
  }

  /// Convergence bookkeeping over the recorded variances.
  [[nodiscard]] stats::ConvergenceTracker tracker() const;

  /// The leaders chosen by init_count_leaders().
  [[nodiscard]] const std::vector<NodeId>& leaders() const {
    return leaders_;
  }

  // ---- continuous-service results (empty when drift/service are off) ---

  /// The underlying local values (maintained when drift or the service
  /// pipeline is on; empty otherwise). values()[u] is node u's v_u.
  [[nodiscard]] const std::vector<double>& local_values() const {
    return values_;
  }

  /// |estimate mean − current true mean| at each stats snapshot, aligned
  /// with cycle_stats(). Recorded alongside variance whenever the local
  /// values are being tracked.
  [[nodiscard]] const std::vector<double>& tracking_error() const {
    return tracking_error_;
  }

  /// Age (in cycles) of the snapshot a query would be served, sampled
  /// once per cycle from the first publication on.
  [[nodiscard]] const std::vector<std::uint32_t>& staleness_samples() const {
    return staleness_;
  }

  /// |served snapshot value − current true mean| aligned with
  /// staleness_samples(): the service-level error a query actually sees.
  [[nodiscard]] const std::vector<double>& served_error() const {
    return served_error_;
  }

  /// The published-report store backing the query API.
  [[nodiscard]] const SnapshotStore& snapshots() const { return store_; }

protected:
  /// Builds the overlay (static graph or NEWSCAST bootstrap) from `rng`
  /// and its sampler, validates `config`, sizes the per-node state and
  /// hashes the adversary membership. `par`, when set, runs the
  /// bootstrap's per-node pass (see build_overlay).
  SimulationCore(const SimConfig& config, Rng rng,
                 const overlay::ParallelFor* par = nullptr);

  /// The run loop, once per simulation: σ²_0, then per cycle the plan's
  /// kills and joins (crashes land *before* the cycle, the paper's worst
  /// case), a §4.2 restart, drift, the engine's exchanges, statistics
  /// and the service epoch roll.
  void run_cycles(const failure::FailurePlan& plan);

  /// Staging for one robust-combine receive; one per concurrently
  /// applying job.
  struct CombineScratch {
    std::vector<double> values;
    std::vector<double> means;
  };

  /// The pairwise exchange (fig. 1) between initiator p and passive peer
  /// q, both live participants, under the drawn communication outcome: a
  /// dropped link or request leaves both untouched, a lost response
  /// updates q only. Without aggregation-level adversaries or robust
  /// combine this is the paper's lane loop; otherwise (instances == 1)
  /// both reports are captured first and each side combines what it
  /// received. Defined here and forced inline so both engines' hot loops
  /// inline it (GCC's size heuristics otherwise leave the serial loop an
  /// out-of-line call per exchange).
  [[gnu::always_inline]] void exchange(std::uint32_t p, std::uint32_t q,
                failure::ExchangeOutcome outcome, CombineScratch& scratch) {
    if (outcome == failure::ExchangeOutcome::kLinkDown ||
        outcome == failure::ExchangeOutcome::kRequestLost) {
      return;
    }
    const std::uint32_t t = config_.instances;
    double* ep = &estimates_[static_cast<std::size_t>(p) * t];
    double* eq = &estimates_[static_cast<std::size_t>(q) * t];
    if (!general_) {  // the exact paper path
      // A lost response (kResponseLost) updates the passive peer q only.
      core::update_lanes(config_.update, ep, eq, t,
                         outcome == failure::ExchangeOutcome::kCompleted);
      return;
    }
    const double rp = ep[0];
    const double rq = eq[0];
    if (outcome == failure::ExchangeOutcome::kCompleted) {
      receive(p, ep[0], rq, scratch);
    }
    receive(q, eq[0], rp, scratch);
  }

  /// True when an active partition puts p and q in different components:
  /// the exchange dies like link failure. A pure filter — it draws
  /// nothing, so an inactive partition perturbs no random stream.
  [[nodiscard]] bool severed(bool partitioned, std::uint32_t p,
                             std::uint32_t q) const {
    return partitioned && config_.partition.component_of(p) !=
                              config_.partition.component_of(q);
  }

  /// The per-node drift step over ids [lo, hi): each live honest node's
  /// value moves by drift_delta and, if it participates, its estimate
  /// folds in the same delta (the mass-preserving update), so in-flight
  /// averages track the moving mean without a restart. Byzantine nodes
  /// are skipped — their estimate is pinned by the adversary model.
  /// Nodes are independent, so engines may split the id range freely.
  void drift_range(std::uint32_t cycle, std::uint32_t lo, std::uint32_t hi);

  /// Appends one statistics snapshot: `lanes` holds every instance lane,
  /// `value_mean` the mean of the counted nodes' underlying values (read
  /// only while they are tracked).
  void record_snapshot(std::vector<stats::RunningStats> lanes,
                       double value_mean);

  [[nodiscard]] bool participating(NodeId id) const {
    return participant_[id.value()] != 0;
  }
  /// Byzantine nodes that corrupt the aggregate are excluded from the
  /// estimate statistics (the paper's plots are about what honest nodes
  /// believe); cache polluters aggregate honestly and stay counted.
  [[nodiscard]] bool counted(NodeId id) const {
    return participating(id) && !(exclude_byz_stats_ && byz_[id.value()]);
  }
  [[nodiscard]] bool pollutes_caches() const {
    return config_.adversary.enabled() &&
           config_.adversary.behavior ==
               AdversarySpec::Behavior::kCachePollute;
  }

  SimConfig config_;
  Rng rng_;  // boundary randomness: topology build, init, failures
  overlay::Population population_;
  std::vector<double> estimates_;  // flat [node * instances + i]
  std::vector<char> participant_;  // per node
  std::vector<char> byz_;          // adversary membership per node
  std::vector<double> values_;     // underlying local values v_u
  Overlay overlay_;
  SamplerVariant sampler_;  // GETNEIGHBOR() over overlay_ / population_

private:
  /// Range kill of live ids in [lo, hi), at most `max_kills`; returns
  /// the number killed.
  virtual std::uint32_t kill_range(std::uint32_t lo, std::uint32_t hi,
                                   std::uint32_t max_kills) = 0;
  /// `kills` (≥ 1) uniform kills over the live set.
  virtual void kill_uniform(std::uint32_t kills) = 0;
  /// drift_range over every id.
  virtual void apply_drift(std::uint32_t cycle) = 0;
  /// One cycle of membership and aggregation exchanges.
  virtual void exchange_cycle(std::uint32_t cycle) = 0;
  /// One record_snapshot over the counted live nodes.
  virtual void record_stats() = 0;

  void apply_failures(const failure::CycleEvent& event, std::uint64_t now);
  void pin_injected_values();
  void apply_restart();
  void flush_combine_windows();
  void size_combine_windows();
  void service_cycle(std::uint32_t cycle);

  /// Node u's receive of `report` into its estimate `slot` on the general
  /// path: byzantine nodes deviate, honest ones combine robustly or
  /// plainly. Pairs are disjoint, so the window writes of concurrent
  /// exchanges never overlap.
  void receive(std::uint32_t u, double& slot, double report,
               CombineScratch& scratch) {
    if (byz_[u]) {
      // value_inject keeps its pinned outlier; always_max hoards the max.
      if (config_.adversary.behavior == AdversarySpec::Behavior::kAlwaysMax) {
        slot = core::apply_update(core::UpdateKind::kMax, slot, report);
      }
      return;
    }
    if (!config_.combine.robust()) {
      slot = core::apply_update(config_.update, slot, report);
      return;
    }
    slot = robust_combine_receive(config_.combine, u, slot, report, window_,
                                  wfill_.data(), wpos_.data(), scratch.values,
                                  scratch.means);
  }

  std::vector<NodeId> leaders_;
  std::vector<stats::RunningStats> cycle_stats_;
  std::vector<std::vector<stats::RunningStats>> instance_stats_;

  // ---- adversarial extensions (all empty/off on the plain path) --------
  bool general_ = false;            // any aggregation-level deviation?
  bool exclude_byz_stats_ = false;  // drop byzantine estimates from stats
  std::vector<double> window_;       // robust combine: flat [node * W + k]
  std::vector<std::uint8_t> wfill_;  // filled window entries per node
  std::vector<std::uint8_t> wpos_;   // next ring slot per node
  std::vector<double> initial_;      // epoch-restart snapshot

  // ---- continuous-service extensions (empty/off on the plain path) -----
  std::vector<double> tracking_error_;     // per snapshot
  std::vector<std::uint32_t> staleness_;   // per post-publish cycle
  std::vector<double> served_error_;       // aligned with staleness_
  double true_mean_ = 0.0;                 // last snapshot's value mean
  SnapshotStore store_;
  std::optional<core::EpochMachine> epoch_machine_;

  bool initialized_ = false;
  bool ran_ = false;
};

}  // namespace gossip::experiment
