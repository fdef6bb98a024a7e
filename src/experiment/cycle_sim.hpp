// The cycle-driven simulator — our C++ equivalent of PeerSim's
// cycle-based mode, which is what the paper ran every §7 experiment on.
//
// Execution model per cycle:
//   1. the failure plan's kills/joins are applied (crashes land *before*
//      the cycle, the paper's worst case);
//   2. if the overlay is NEWSCAST, every live node performs one cache
//      exchange (random permutation order);
//   3. every live participating node initiates one aggregation exchange
//      with a peer drawn from its view; the communication-failure model
//      decides whether the exchange completes, vanishes, or half-applies
//      (response loss);
//   4. estimate statistics are recorded.
//
// A node is *participating* if it was present when the epoch started;
// joiners sit out (paper §4.2) but still run NEWSCAST, and they refuse
// aggregation exchanges — which the paper notes acts like link failure.
//
// The simulation carries `instances` concurrent aggregation slots per
// node (the t of §7.3); every exchange averages all slots element-wise,
// matching the CountMap merge with absent-keys-as-zero (equivalence
// tested in core_test.cpp).
//
// The overlay, its GETNEIGHBOR() sampler and the live set come from
// SimulationCore; this driver adds the shuffled sequential pairing, the
// draw-kill-draw crash order and one Welford stream per lane.
#pragma once

#include <cstdint>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "experiment/sim_core.hpp"
#include "failure/failure_plan.hpp"

namespace gossip::experiment {

/// One single-epoch aggregation run. Construct, initialize values, run,
/// then read estimates/statistics (the shared surface of SimulationCore).
class CycleSimulation final : public SimulationCore {
public:
  CycleSimulation(const SimConfig& config, Rng rng)
      : SimulationCore(config, rng) {}

  /// Runs `config.cycles` cycles under the given failure plan. Can only
  /// be called once per simulation.
  void run(const failure::FailurePlan& plan) { run_cycles(plan); }

private:
  std::uint32_t kill_range(std::uint32_t lo, std::uint32_t hi,
                           std::uint32_t max_kills) override;
  void kill_uniform(std::uint32_t kills) override;
  void apply_drift(std::uint32_t cycle) override;
  void exchange_cycle(std::uint32_t cycle) override;
  void record_stats() override;
  template <typename Sampler>
  void aggregation_cycle_with(const Sampler& sampler, std::uint32_t cycle);

  std::vector<NodeId> order_scratch_;  // aggregation permutation
  CombineScratch combine_scratch_;
};

}  // namespace gossip::experiment
