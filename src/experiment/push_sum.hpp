// Push-sum (Kempe, Dobra, Gehrke, FOCS'03) — the related-work baseline
// the paper positions itself against (§8): averaging by *push-only*
// gossip. Every node holds a (sum, weight) pair initialized to
// (value, 1); each cycle it halves the pair, keeps one half and pushes
// the other to a random peer; the estimate is sum/weight.
//
// Implemented on the same substrate as the push–pull driver — the overlay
// from build_overlay and the GETNEIGHBOR() variant from make_sampler
// (experiment/sim_core.hpp) over a Population — so the two protocols can
// be compared on identical overlays (the baseline_push_sum scenario).
// The instructive contrasts:
//  * push-sum needs no replies (one-way UDP-style traffic), but
//  * any lost message destroys conserved mass (both sum and weight),
//    where push–pull only suffers from the response-loss asymmetry.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "experiment/sim_core.hpp"
#include "overlay/population.hpp"
#include "stats/convergence.hpp"
#include "stats/running_stats.hpp"

namespace gossip::experiment {

struct PushSumConfig {
  std::uint32_t nodes = 10000;
  std::uint32_t cycles = 30;
  TopologyConfig topology;
  double p_message_loss = 0.0;  ///< each pushed half is lost independently
};

class PushSumSimulation {
public:
  PushSumSimulation(const PushSumConfig& config, Rng rng);

  /// Sets the initial values (weights start at 1).
  void init_scalar(const std::function<double(NodeId)>& value_of);

  /// Runs all cycles; call once.
  void run();

  /// sum/weight per node (weight 0 — possible only after losses — yields
  /// an excluded node).
  [[nodiscard]] std::vector<double> estimates() const;

  /// Total conserved quantities (exact without loss).
  [[nodiscard]] double total_sum() const;
  [[nodiscard]] double total_weight() const;

  /// Estimate statistics per cycle (index 0 = initial).
  [[nodiscard]] const std::vector<stats::RunningStats>& cycle_stats() const {
    return cycle_stats_;
  }
  [[nodiscard]] stats::ConvergenceTracker tracker() const;

private:
  void record_stats();

  template <typename Sampler>
  void push_round(const Sampler& sampler, std::vector<double>& next_sums,
                  std::vector<double>& next_weights);

  PushSumConfig config_;
  Rng rng_;
  overlay::Population population_;
  Overlay overlay_;
  SamplerVariant sampler_;  // same devirtualized dispatch as CycleSimulation
  std::vector<double> sums_;
  std::vector<double> weights_;
  std::vector<stats::RunningStats> cycle_stats_;
  bool initialized_ = false;
  bool ran_ = false;
};

}  // namespace gossip::experiment
