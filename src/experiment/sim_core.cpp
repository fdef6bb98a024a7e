#include "experiment/sim_core.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stream_salt.hpp"
#include "core/multi_instance.hpp"
#include "overlay/generators.hpp"
#include "stats/summary.hpp"

namespace gossip::experiment {

double drift_delta(const DriftSpec& drift, std::uint64_t stream_seed,
                   std::uint32_t cycle, std::uint32_t node) {
  switch (drift.kind) {
    case DriftSpec::Kind::kNone:
      return 0.0;
    case DriftSpec::Kind::kLinear:
      return cycle >= drift.start_cycle ? drift.rate : 0.0;
    case DriftSpec::Kind::kRandomWalk: {
      if (cycle < drift.start_cycle) return 0.0;
      // Same keying as IntraRepSimulation::node_stream — a pure function
      // of (seed, cycle, node), one splitmix64 output mapped to [-1, 1).
      // The dedicated drift salt keeps the stream off every other
      // per-(cycle,node) stream (registry-checked distinct).
      std::uint64_t s = salt::node_stream_key(stream_seed, cycle, node,
                                              salt::kDriftDelta);
      const std::uint64_t h = splitmix64(s);
      const double u01 = static_cast<double>(h >> 11) * 0x1.0p-53;
      return drift.rate * (2.0 * u01 - 1.0);
    }
    case DriftSpec::Kind::kStep:
      return cycle == drift.start_cycle ? drift.magnitude : 0.0;
  }
  return 0.0;
}

double robust_combine_receive(const CombineSpec& combine, std::uint32_t u,
                              double own, double report,
                              std::vector<double>& window,
                              std::uint8_t* wfill, std::uint8_t* wpos,
                              std::vector<double>& scratch,
                              std::vector<double>& means) {
  const std::uint32_t w = combine.window;
  window[static_cast<std::size_t>(u) * w + wpos[u]] = report;
  wpos[u] = static_cast<std::uint8_t>((wpos[u] + 1) % w);
  if (wfill[u] < w) ++wfill[u];
  scratch.clear();
  scratch.push_back(own);
  const std::uint8_t n = wfill[u];
  const double* ring = &window[static_cast<std::size_t>(u) * w];
  for (std::uint8_t k = 0; k < n; ++k) {
    scratch.push_back(ring[(wpos[u] + w - n + k) % w]);
  }
  if (combine.kind == CombineSpec::Kind::kTrimmedMean) {
    const auto trim = static_cast<std::size_t>(
        combine.alpha * static_cast<double>(scratch.size()));
    return stats::trimmed_mean(scratch, trim);
  }
  // Median of means over contiguous time-ordered groups.
  const auto g = std::min<std::size_t>(combine.groups, scratch.size());
  means.clear();
  for (std::size_t j = 0; j < g; ++j) {
    const std::size_t lo = j * scratch.size() / g;
    const std::size_t hi = (j + 1) * scratch.size() / g;
    double sum = 0.0;
    for (std::size_t k = lo; k < hi; ++k) sum += scratch[k];
    means.push_back(sum / static_cast<double>(hi - lo));
  }
  return stats::summarize(means).median;
}

overlay::Graph build_graph(const TopologyConfig& topology,
                           std::uint32_t nodes, Rng& rng) {
  switch (topology.kind) {
    case TopologyKind::kComplete:
    case TopologyKind::kNewscast:
      return {};
    case TopologyKind::kRandomKOut:
      return overlay::random_k_out(nodes, topology.degree, rng);
    case TopologyKind::kRingLattice:
      return overlay::ring_lattice(nodes, topology.degree);
    case TopologyKind::kWattsStrogatz:
      return overlay::watts_strogatz(nodes, topology.degree, topology.beta,
                                     rng);
    case TopologyKind::kBarabasiAlbert:
      return overlay::barabasi_albert(nodes, topology.degree / 2, rng);
  }
  return {};
}

Overlay build_overlay(const TopologyConfig& topology, std::uint32_t nodes,
                      Rng& rng, const overlay::ParallelFor* par) {
  Overlay out;
  out.graph = build_graph(topology, nodes, rng);
  if (topology.kind == TopologyKind::kNewscast) {
    out.newscast =
        std::make_unique<membership::NewscastNetwork>(topology.cache_size);
    out.newscast->bootstrap_random(nodes, 0, rng, par);
  }
  return out;
}

SamplerVariant make_sampler(const Overlay& built,
                            const overlay::Population& population) {
  if (built.newscast) return membership::NewscastPeerSampler(*built.newscast);
  if (built.graph.node_count() > 0) {
    return overlay::GraphPeerSampler(built.graph);
  }
  return overlay::CompletePeerSampler(population);
}

SimulationCore::SimulationCore(const SimConfig& config, Rng rng,
                               const overlay::ParallelFor* par)
    : config_(config),
      rng_(rng),
      population_(config.nodes),
      overlay_(build_overlay(config.topology, config.nodes, rng_, par)),
      sampler_(make_sampler(overlay_, population_)) {
  GOSSIP_REQUIRE(config.nodes >= 2, "simulation needs at least two nodes");
  GOSSIP_REQUIRE(config.instances >= 1, "need at least one instance");
  // Joins append to every per-node array. Reserving the plan's whole join
  // volume before the first fill means no join batch re-copies one.
  const std::size_t capacity = config.nodes + config.total_joins;
  estimates_.reserve(capacity * config.instances);
  participant_.reserve(capacity);
  byz_.reserve(capacity);
  population_.reserve(capacity);
  if (overlay_.newscast) overlay_.newscast->reserve_joins(config.total_joins);
  estimates_.assign(static_cast<std::size_t>(config.nodes) *
                        config.instances,
                    0.0);
  participant_.assign(config.nodes, 1);
  // Aggregation-level deviations (byzantine reports, robust combine) take
  // the general exchange path; cache pollution only touches newscast, so
  // the aggregation loop stays on the plain paper path.
  const bool agg_adversary =
      config.adversary.enabled() &&
      config.adversary.behavior != AdversarySpec::Behavior::kCachePollute;
  general_ = agg_adversary || config.combine.robust();
  exclude_byz_stats_ = agg_adversary;
  GOSSIP_REQUIRE(!general_ || config.instances == 1,
                 "adversary/robust combine need instances == 1");
  GOSSIP_REQUIRE(!(config.drift.enabled() || config.service.enabled()) ||
                     config.instances == 1,
                 "drift/service need instances == 1");
  GOSSIP_REQUIRE(!(config.service.enabled() && config.epoch_restarts),
                 "service pipelining replaces epoch restarts");
  if (config.service.enabled()) {
    epoch_machine_.emplace(config.service.epoch_cycles);
  }
  byz_.assign(config.nodes, 0);
  if (config.adversary.enabled()) {
    for (std::uint32_t u = 0; u < config.nodes; ++u) {
      byz_[u] = config.adversary.is_byzantine(u) ? 1 : 0;
    }
  }
}

void SimulationCore::init_scalar(
    const std::function<double(NodeId)>& value_of) {
  GOSSIP_REQUIRE(config_.instances == 1,
                 "scalar initialization needs instances == 1");
  GOSSIP_REQUIRE(!ran_, "cannot re-initialize a finished run");
  for (std::uint32_t u = 0; u < config_.nodes; ++u) {
    estimates_[u] = value_of(NodeId(u));
  }
  initialized_ = true;
}

void SimulationCore::init_peak(double peak, std::uint32_t peak_holder) {
  GOSSIP_REQUIRE(peak_holder < config_.nodes, "peak holder out of range");
  init_scalar([peak, peak_holder](NodeId id) {
    return id.value() == peak_holder ? peak : 0.0;
  });
}

void SimulationCore::init_count_leaders() {
  GOSSIP_REQUIRE(!ran_, "cannot re-initialize a finished run");
  GOSSIP_REQUIRE(config_.update == core::UpdateKind::kAverage,
                 "COUNT is built on averaging (§5)");
  const std::uint32_t t = config_.instances;
  GOSSIP_REQUIRE(t <= config_.nodes, "more instances than nodes");
  leaders_.clear();
  leaders_.reserve(t);
  for (std::uint64_t raw : rng_.sample_distinct(config_.nodes, t)) {
    leaders_.emplace_back(static_cast<std::uint32_t>(raw));
  }
  // The constructor zeroed the lanes; only an earlier init wrote them.
  if (initialized_) std::fill(estimates_.begin(), estimates_.end(), 0.0);
  for (std::uint32_t i = 0; i < t; ++i) {
    estimates_[static_cast<std::size_t>(leaders_[i].value()) * t + i] = 1.0;
  }
  initialized_ = true;
}

void SimulationCore::apply_failures(const failure::CycleEvent& event,
                                    std::uint64_t now) {
  failure::apply_kills(
      event, population_.live_count(),
      [this](std::uint32_t lo, std::uint32_t hi, std::uint32_t max_kills) {
        return kill_range(lo, hi, max_kills);
      },
      [this](std::uint32_t kills) { kill_uniform(kills); });
  if (event.joins == 0) return;
  GOSSIP_REQUIRE(config_.topology.kind == TopologyKind::kNewscast ||
                     config_.topology.kind == TopologyKind::kComplete,
                 "joins need a dynamic overlay (newscast or complete)");
  for (std::uint32_t j = 0; j < event.joins; ++j) {
    const NodeId contact = population_.sample_live(rng_);
    const NodeId fresh = population_.add();
    estimates_.insert(estimates_.end(), config_.instances, 0.0);
    participant_.push_back(0);  // §4.2: joiners sit out the epoch
    if (!values_.empty()) values_.push_back(0.0);
    byz_.push_back(config_.adversary.is_byzantine(fresh.value()) ? 1 : 0);
    if (overlay_.newscast) overlay_.newscast->add_node(fresh, contact, now);
  }
}

void SimulationCore::pin_injected_values() {
  // value_inject adversaries hold the outlier forever: their slot is set
  // once and receive() never overwrites it.
  if (config_.adversary.behavior != AdversarySpec::Behavior::kValueInject) {
    return;
  }
  for (std::uint32_t u = 0; u < population_.total(); ++u) {
    if (byz_[u]) estimates_[u] = config_.adversary.value;
  }
}

void SimulationCore::apply_restart() {
  // §4.2 epoch boundary: every node re-seeds from its local value —
  // the *current* one when drift maintains values_, the run-start
  // snapshot otherwise (joiners restart from their join-time default of
  // 0) — and every live node, including previously sitting-out joiners,
  // participates in the new epoch. Serial O(total): restarts are rare
  // cycle-boundary events.
  GOSSIP_REQUIRE(!initial_.empty() || !values_.empty(),
                 "restart without a seed snapshot would zero every "
                 "estimate — the plan emitted a restart the driver never "
                 "prepared for");
  if (!values_.empty()) {
    std::copy(values_.begin(), values_.end(), estimates_.begin());
  } else {
    std::copy(initial_.begin(), initial_.end(), estimates_.begin());
    std::fill(estimates_.begin() +
                  static_cast<std::ptrdiff_t>(initial_.size()),
              estimates_.end(), 0.0);
  }
  for (NodeId u : population_.live()) participant_[u.value()] = 1;
  pin_injected_values();
  flush_combine_windows();
}

void SimulationCore::flush_combine_windows() {
  // Re-initialization boundary (restart or pipelined epoch roll): reports
  // received before the boundary summarize dead-epoch estimates; leaving
  // them in the robust-combine rings would bias the first post-boundary
  // estimates toward the old epoch. Drop the contents, not just the
  // fill/position counters, so no stale report can ever be read back.
  if (wfill_.empty()) return;
  std::fill(window_.begin(), window_.end(), 0.0);
  std::fill(wfill_.begin(), wfill_.end(), 0);
  std::fill(wpos_.begin(), wpos_.end(), 0);
}

void SimulationCore::size_combine_windows() {
  if (!general_ || !config_.combine.robust()) return;
  const std::uint32_t total = population_.total();
  window_.resize(static_cast<std::size_t>(total) * config_.combine.window,
                 0.0);
  wfill_.resize(total, 0);
  wpos_.resize(total, 0);
}

void SimulationCore::drift_range(std::uint32_t cycle, std::uint32_t lo,
                                 std::uint32_t hi) {
  for (std::uint32_t u = lo; u < hi; ++u) {
    if (!population_.alive_unchecked(NodeId(u)) || byz_[u]) continue;
    const double d = drift_delta(config_.drift, config_.stream_seed, cycle, u);
    if (d == 0.0) continue;
    values_[u] += d;
    if (participant_[u]) estimates_[u] += d;
  }
}

void SimulationCore::service_cycle(std::uint32_t cycle) {
  // Epoch pipelining: on the boundary, publish the epoch's converged
  // report (the mean the statistics layer just recorded) and re-seed the
  // next epoch from the current local values (values_ is always kept
  // under the service) — restart-free continuous operation. The
  // published snapshot keeps serving queries while the next epoch
  // converges.
  const std::uint64_t ending = epoch_machine_->epoch();
  if (epoch_machine_->advance_cycle()) {
    store_.publish(0, cycle_stats_.back().mean(), ending, cycle + 1);
    apply_restart();
  }
  // One query per cycle from first publication on: how stale is the
  // served answer and how far is it from the *current* true mean?
  if (const auto ans = store_.query(0, cycle + 1)) {
    staleness_.push_back(ans->age_cycles);
    served_error_.push_back(std::abs(ans->value - true_mean_));
  }
}

void SimulationCore::record_snapshot(
    std::vector<stats::RunningStats> lanes, double value_mean) {
  cycle_stats_.push_back(lanes[0]);
  if (!values_.empty()) {
    true_mean_ = value_mean;
    tracking_error_.push_back(std::abs(lanes[0].mean() - true_mean_));
  }
  instance_stats_.push_back(std::move(lanes));
}

void SimulationCore::run_cycles(const failure::FailurePlan& plan) {
  GOSSIP_REQUIRE(initialized_, "initialize values before running");
  GOSSIP_REQUIRE(!ran_, "run() may only be called once");
  ran_ = true;
  pin_injected_values();
  if (config_.epoch_restarts) initial_ = estimates_;
  if (config_.drift.enabled() || config_.service.enabled()) {
    values_.reserve(config_.nodes + config_.total_joins);
    values_ = estimates_;  // v_u starts where the estimate starts
  }
  record_stats();  // σ²_0
  for (std::uint32_t cycle = 0; cycle < config_.cycles; ++cycle) {
    const auto event = plan.before_cycle(cycle, population_.live_count());
    apply_failures(event, cycle + 1);
    if (event.restart) apply_restart();
    if (config_.drift.enabled()) apply_drift(cycle);
    size_combine_windows();
    exchange_cycle(cycle);
    record_stats();
    if (config_.service.enabled()) service_cycle(cycle);
  }
}

std::vector<NodeId> SimulationCore::participants() const {
  std::vector<NodeId> out;
  out.reserve(population_.live_count());
  for (NodeId u : population_.live()) {
    if (counted(u)) out.push_back(u);
  }
  return out;
}

double SimulationCore::estimate(NodeId node, std::uint32_t instance) const {
  GOSSIP_REQUIRE(node.is_valid() && node.value() < population_.total(),
                 "estimate() node out of range");
  GOSSIP_REQUIRE(instance < config_.instances,
                 "estimate() instance out of range");
  return estimates_[static_cast<std::size_t>(node.value()) *
                        config_.instances +
                    instance];
}

std::vector<double> SimulationCore::scalar_estimates() const {
  std::vector<double> out;
  for (NodeId u : participants()) out.push_back(estimate(u, 0));
  return out;
}

std::vector<double> SimulationCore::size_estimates() const {
  const std::uint32_t t = config_.instances;
  std::vector<double> out;
  std::vector<double> scratch(t);
  for (NodeId u : participants()) {
    const double* slots = &estimates_[static_cast<std::size_t>(u.value()) * t];
    for (std::uint32_t i = 0; i < t; ++i) {
      scratch[i] = slots[i] > 0.0 ? 1.0 / slots[i]
                                  : std::numeric_limits<double>::infinity();
    }
    out.push_back(core::robust_combine(scratch));
  }
  return out;
}

stats::ConvergenceTracker SimulationCore::tracker() const {
  stats::ConvergenceTracker t;
  for (const auto& rs : cycle_stats_) t.record(rs.variance());
  return t;
}

}  // namespace gossip::experiment
