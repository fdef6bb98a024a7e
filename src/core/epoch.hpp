// Automatic restarting and epoch synchronization (paper §4.1, §4.3).
//
// The protocol runs in epochs of γ cycles. At the end of an epoch every
// node reports its estimate as the aggregation output and re-initializes
// from its current local value. Messages carry the sender's epoch id;
// a node that sees a higher epoch abandons its own and jumps — this is
// the epidemic synchronization that keeps slow nodes from dragging an
// epoch on forever. Messages from older epochs are refused.
#pragma once

#include <cstdint>

#include "common/require.hpp"

namespace gossip::core {

/// Pure epoch bookkeeping, shared by the cycle engines' service pipeline
/// and the event-driven stack.
class EpochMachine {
public:
  /// `cycles_per_epoch` is the paper's γ (30 in all §7 experiments).
  explicit EpochMachine(std::uint32_t cycles_per_epoch)
      : cycles_per_epoch_(cycles_per_epoch) {
    GOSSIP_REQUIRE(cycles_per_epoch >= 1, "epochs need at least one cycle");
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint32_t cycle_in_epoch() const { return cycle_; }
  [[nodiscard]] std::uint32_t cycles_per_epoch() const {
    return cycles_per_epoch_;
  }

  /// How an incoming message tagged `remote_epoch` must be treated.
  enum class TagAction {
    kAccept,  ///< same epoch: perform the exchange
    kAdopt,   ///< newer epoch: re-initialize, jump, then exchange
    kStale,   ///< older epoch: refuse the exchange
  };

  [[nodiscard]] TagAction classify(std::uint64_t remote_epoch) const {
    if (remote_epoch == epoch_) return TagAction::kAccept;
    return remote_epoch > epoch_ ? TagAction::kAdopt : TagAction::kStale;
  }

  /// Jumps to a strictly newer epoch (§4.3). The caller must
  /// re-initialize its estimate from the current local value.
  void adopt(std::uint64_t remote_epoch) {
    GOSSIP_REQUIRE(remote_epoch > epoch_, "adopt() needs a newer epoch");
    epoch_ = remote_epoch;
    cycle_ = 0;
  }

  /// Advances one local cycle. Returns true when this completed the
  /// epoch; the machine has then already rolled into the next epoch
  /// (cycle position 0) and the caller reports + re-initializes.
  bool advance_cycle() {
    ++cycle_;
    if (cycle_ < cycles_per_epoch_) return false;
    // Wraparound guard: a 64-bit epoch counter only overflows after an
    // adopt() of a (forged or corrupted) tag near 2^64 — rolling over to
    // epoch 0 would make every honest message look stale forever, so
    // refuse loudly instead.
    GOSSIP_REQUIRE(epoch_ != ~std::uint64_t{0},
                   "epoch counter would wrap around");
    ++epoch_;
    cycle_ = 0;
    return true;
  }

private:
  std::uint32_t cycles_per_epoch_;
  std::uint64_t epoch_ = 0;
  std::uint32_t cycle_ = 0;
};

/// Join gating (§4.2): a node that joins while epoch e is running is told
/// the *next* epoch id and sits out until it starts — so every epoch
/// aggregates exactly the values present at its own start.
class JoinGate {
public:
  /// For founding members, active from the first epoch.
  JoinGate() = default;

  /// For a node that joined during `current_epoch`.
  static JoinGate joined_during(std::uint64_t current_epoch) {
    JoinGate g;
    g.active_from_ = current_epoch + 1;
    return g;
  }

  [[nodiscard]] bool participates_in(std::uint64_t epoch) const {
    return epoch >= active_from_;
  }

  [[nodiscard]] std::uint64_t active_from() const { return active_from_; }

private:
  std::uint64_t active_from_ = 0;
};

}  // namespace gossip::core
