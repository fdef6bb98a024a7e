// Node-level failure scenarios of §6–§7, expressed as *plans*: before
// every cycle the plan says how many nodes crash and how many join. The
// experiment driver executes the plan against the Population (crashes are
// injected before the cycle's exchanges — the paper's worst case, when
// estimate variance is at its maximum).
#pragma once

#include <cstdint>
#include <memory>

namespace gossip::failure {

/// What happens to the population right before a cycle runs. Beyond the
/// historical random kill/join counts, an event may carry a *targeted*
/// id-range kill (correlated block-scoped waves: every live node with
/// kill_lo <= id < kill_hi crashes) and an epoch-restart flag (every
/// live node re-seeds from its initial value and joins the epoch).
/// Drivers apply the kills through apply_kills, which clamps the total
/// kill volume so at least one node survives.
struct CycleEvent {
  std::uint32_t kills = 0;    ///< uniformly drawn victims
  std::uint32_t joins = 0;    ///< brand-new identities
  std::uint32_t kill_lo = 0;  ///< targeted id-range kill [kill_lo, kill_hi)
  std::uint32_t kill_hi = 0;  ///< empty when kill_hi <= kill_lo
  bool restart = false;       ///< epoch boundary: re-seed and re-admit
};

/// Applies `event`'s kills to a population of `live` nodes and keeps at
/// least one alive. Over-killing plans (a wave over an already shrunken
/// population, a crash rate above the live count) are clamped: the
/// targeted range kill spends a budget of live - 1 first —
/// `kill_range(lo, hi, max_kills)` kills at most max_kills live ids in
/// [lo, hi) and returns how many it killed — and the uniform kills take
/// what remains through `kill_uniform(count)`, called only with
/// count >= 1. Every driver routes its kills through here.
template <typename KillRange, typename KillUniform>
void apply_kills(const CycleEvent& event, std::uint32_t live,
                 KillRange&& kill_range, KillUniform&& kill_uniform) {
  std::uint32_t budget = live > 0 ? live - 1 : 0;
  if (event.kill_hi > event.kill_lo) {
    budget -= kill_range(event.kill_lo, event.kill_hi, budget);
  }
  const std::uint32_t kills = event.kills < budget ? event.kills : budget;
  if (kills > 0) kill_uniform(kills);
}

class FailurePlan {
public:
  virtual ~FailurePlan() = default;
  FailurePlan() = default;
  FailurePlan(const FailurePlan&) = delete;
  FailurePlan& operator=(const FailurePlan&) = delete;

  /// Event to apply before `cycle` (0-based) given the current live count.
  [[nodiscard]] virtual CycleEvent before_cycle(std::uint32_t cycle,
                                                std::uint32_t live) const = 0;

  /// Nodes the plan joins over a run of `cycles` cycles, so a driver can
  /// size its per-node arrays once. Only Churn joins.
  [[nodiscard]] virtual std::uint64_t total_joins(std::uint32_t) const {
    return 0;
  }
};

/// The §3 baseline: a static network.
class NoFailures final : public FailurePlan {
public:
  CycleEvent before_cycle(std::uint32_t, std::uint32_t) const override {
    return {};
  }
};

/// §6.1 / fig. 5: before every cycle a fixed proportion P_f of the
/// *current* nodes crashes (without replacement), so the live count decays
/// as N(1-P_f)^i.
class ProportionalCrash final : public FailurePlan {
public:
  explicit ProportionalCrash(double p_fail);
  CycleEvent before_cycle(std::uint32_t cycle,
                          std::uint32_t live) const override;

private:
  double p_fail_;
};

/// Fig. 6a: a fixed fraction of the network dies at once, right before
/// `death_cycle`.
class SuddenDeath final : public FailurePlan {
public:
  SuddenDeath(std::uint32_t death_cycle, double fraction);
  CycleEvent before_cycle(std::uint32_t cycle,
                          std::uint32_t live) const override;

private:
  std::uint32_t death_cycle_;
  double fraction_;
};

/// Fig. 6b / fig. 8a: every cycle, `rate` nodes crash and `rate` brand-new
/// nodes join, keeping the size constant while the composition churns.
class Churn final : public FailurePlan {
public:
  explicit Churn(std::uint32_t rate);
  CycleEvent before_cycle(std::uint32_t cycle,
                          std::uint32_t live) const override;
  std::uint64_t total_joins(std::uint32_t cycles) const override {
    return std::uint64_t{rate_} * cycles;
  }

private:
  std::uint32_t rate_;
};

/// Fig. 8a variant: a constant number of crashes per cycle, no
/// replacement.
class ConstantCrash final : public FailurePlan {
public:
  explicit ConstantCrash(std::uint32_t rate);
  CycleEvent before_cycle(std::uint32_t cycle,
                          std::uint32_t live) const override;

private:
  std::uint32_t rate_;
};

/// Correlated (cascading) crash waves: starting at `trigger`, one wave per
/// cycle for `waves` cycles. Wave w (0-based) wipes the contiguous id block
/// [w*block, (w+1)*block) — nodes that share a block (rack, datacenter, AS)
/// die together, unlike the independent-crash plans above.
class CorrelatedWaves final : public FailurePlan {
public:
  CorrelatedWaves(std::uint32_t trigger, std::uint32_t waves,
                  std::uint32_t block);
  CycleEvent before_cycle(std::uint32_t cycle,
                          std::uint32_t live) const override;

private:
  std::uint32_t trigger_;
  std::uint32_t waves_;
  std::uint32_t block_;
};

/// §4.2 epochs: every `period` cycles the protocol restarts — live nodes
/// re-seed from their initial local value and every node (including
/// previously joined ones sitting out) is admitted to the new epoch. No
/// node dies or joins.
class EpochRestart final : public FailurePlan {
public:
  explicit EpochRestart(std::uint32_t period);
  CycleEvent before_cycle(std::uint32_t cycle,
                          std::uint32_t live) const override;

private:
  std::uint32_t period_;
};

}  // namespace gossip::failure
