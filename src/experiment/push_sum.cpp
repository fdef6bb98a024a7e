#include "experiment/push_sum.hpp"

#include <algorithm>

namespace gossip::experiment {

PushSumSimulation::PushSumSimulation(const PushSumConfig& config, Rng rng)
    : config_(config),
      rng_(rng),
      population_(config.nodes),
      overlay_(build_overlay(config.topology, config.nodes, rng_)),
      sampler_(make_sampler(overlay_, population_)) {
  GOSSIP_REQUIRE(config.nodes >= 2, "push-sum needs at least two nodes");
  GOSSIP_REQUIRE(
      config.p_message_loss >= 0.0 && config.p_message_loss <= 1.0,
      "loss must be a probability");
  sums_.assign(config.nodes, 0.0);
  weights_.assign(config.nodes, 1.0);
}

void PushSumSimulation::init_scalar(
    const std::function<double(NodeId)>& value_of) {
  GOSSIP_REQUIRE(!ran_, "cannot re-initialize a finished run");
  for (std::uint32_t u = 0; u < config_.nodes; ++u) {
    sums_[u] = value_of(NodeId(u));
    weights_[u] = 1.0;
  }
  initialized_ = true;
}

void PushSumSimulation::run() {
  GOSSIP_REQUIRE(initialized_, "initialize values before running");
  GOSSIP_REQUIRE(!ran_, "run() may only be called once");
  ran_ = true;
  record_stats();
  std::vector<double> next_sums(sums_.size());
  std::vector<double> next_weights(weights_.size());
  for (std::uint32_t cycle = 0; cycle < config_.cycles; ++cycle) {
    if (overlay_.newscast) {
      overlay_.newscast->run_cycle(population_, cycle + 1, rng_);
    }
    std::fill(next_sums.begin(), next_sums.end(), 0.0);
    std::fill(next_weights.begin(), next_weights.end(), 0.0);
    // One variant visit per round, same devirtualized dispatch as the
    // push–pull driver.
    std::visit(
        [&](const auto& sampler) {
          push_round(sampler, next_sums, next_weights);
        },
        sampler_);
    sums_.swap(next_sums);
    weights_.swap(next_weights);
    record_stats();
  }
}

template <typename Sampler>
void PushSumSimulation::push_round(const Sampler& sampler,
                                   std::vector<double>& next_sums,
                                   std::vector<double>& next_weights) {
  // Synchronous round (Kempe et al.): every node halves its pair,
  // keeps one half, pushes the other to a uniform peer.
  for (std::uint32_t u = 0; u < config_.nodes; ++u) {
    const double half_s = sums_[u] / 2.0;
    const double half_w = weights_[u] / 2.0;
    next_sums[u] += half_s;
    next_weights[u] += half_w;
    const NodeId target = sampler.sample(NodeId(u), rng_);
    if (!target.is_valid()) continue;  // isolated: keeps only its half
    if (config_.p_message_loss > 0.0 &&
        rng_.chance(config_.p_message_loss)) {
      continue;  // the pushed half is simply gone — mass destroyed
    }
    next_sums[target.value()] += half_s;
    next_weights[target.value()] += half_w;
  }
}

std::vector<double> PushSumSimulation::estimates() const {
  std::vector<double> out;
  out.reserve(sums_.size());
  for (std::size_t u = 0; u < sums_.size(); ++u) {
    if (weights_[u] > 0.0) out.push_back(sums_[u] / weights_[u]);
  }
  return out;
}

double PushSumSimulation::total_sum() const {
  double total = 0.0;
  for (double s : sums_) total += s;
  return total;
}

double PushSumSimulation::total_weight() const {
  double total = 0.0;
  for (double w : weights_) total += w;
  return total;
}

void PushSumSimulation::record_stats() {
  stats::RunningStats rs;
  for (std::size_t u = 0; u < sums_.size(); ++u) {
    if (weights_[u] > 0.0) rs.add(sums_[u] / weights_[u]);
  }
  cycle_stats_.push_back(rs);
}

stats::ConvergenceTracker PushSumSimulation::tracker() const {
  stats::ConvergenceTracker t;
  for (const auto& rs : cycle_stats_) t.record(rs.variance());
  return t;
}

}  // namespace gossip::experiment
