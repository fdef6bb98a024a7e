// Communication-level failure models of §2, §6.2 and §7.2.
//
// Three distinct per-exchange mechanisms, because they have distinct
// effects (CommFailureModel, drawn once per exchange by the cycle
// engines):
//  * link failure (P_d): the whole exchange silently never happens —
//    symmetric, only slows convergence (ρ_d = e^(P_d−1));
//  * request loss: the initiator's push never arrives — same symmetric
//    no-op as link failure;
//  * response loss: the passive peer has already replied *and updated*,
//    but the initiator never hears back — asymmetric, changes the global
//    sum. This is why fig. 7b looks so much worse than fig. 7a.
//
// And one per-message mechanism, §2's system model: any message may be
// lost or delayed. message_delay() draws one message's fate (loss, then
// a Latency delay); both hosts of the §4 node call it, proto::World on
// virtual time and runtime::Transport on the wall clock, so request and
// response loss there fall out of the hosts' own timeouts.
#pragma once

#include <cstdint>
#include <optional>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace gossip::failure {

/// How one attempted push–pull exchange ended.
enum class ExchangeOutcome {
  kCompleted,     ///< both peers updated
  kLinkDown,      ///< nothing happened (link failure)
  kRequestLost,   ///< nothing happened (push lost)
  kResponseLost,  ///< passive peer updated, initiator did not
};

/// Probabilities of the communication failures, applied independently to
/// every exchange.
class CommFailureModel {
public:
  CommFailureModel() = default;
  CommFailureModel(double p_link_down, double p_message_loss)
      : p_link_down_(p_link_down), p_message_loss_(p_message_loss) {
    GOSSIP_REQUIRE(p_link_down >= 0.0 && p_link_down <= 1.0,
                   "P_d must be a probability");
    GOSSIP_REQUIRE(p_message_loss >= 0.0 && p_message_loss <= 1.0,
                   "message loss must be a probability");
  }

  /// Fig. 7a model: each pairwise link is down with probability p.
  static CommFailureModel link_failure(double p) {
    return CommFailureModel(p, 0.0);
  }

  /// Fig. 7b model: every message (request or response) is independently
  /// lost with probability p.
  static CommFailureModel message_loss(double p) {
    return CommFailureModel(0.0, p);
  }

  static CommFailureModel none() { return CommFailureModel(); }

  [[nodiscard]] double p_link_down() const { return p_link_down_; }
  [[nodiscard]] double p_message_loss() const { return p_message_loss_; }

  /// Draws the fate of one exchange. Order matters and mirrors the wire:
  /// link down → request lost → response lost.
  ExchangeOutcome sample(Rng& rng) const {
    if (p_link_down_ > 0.0 && rng.chance(p_link_down_)) {
      return ExchangeOutcome::kLinkDown;
    }
    if (p_message_loss_ > 0.0) {
      if (rng.chance(p_message_loss_)) return ExchangeOutcome::kRequestLost;
      if (rng.chance(p_message_loss_)) return ExchangeOutcome::kResponseLost;
    }
    return ExchangeOutcome::kCompleted;
  }

private:
  double p_link_down_ = 0.0;
  double p_message_loss_ = 0.0;
};

/// One-way message delay in microseconds (§2: "communication incurs
/// unpredictable delays"). kFixed waits lo; kUniform draws [lo, hi];
/// kExponential waits lo plus an exponential tail of mean hi; kNone
/// waits 0. The bounds are the host's to check: uniform needs lo <= hi
/// and exponential hi > 0 (runtime::Transport checks both).
struct Latency {
  enum class Kind { kNone, kFixed, kUniform, kExponential };

  Kind kind = Kind::kNone;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  /// kNone and kFixed draw nothing; kUniform draws one
  /// below(hi - lo + 1), kExponential one exponential(hi).
  [[nodiscard]] std::uint64_t sample(Rng& rng) const {
    switch (kind) {
      case Kind::kNone: return 0;
      case Kind::kFixed: return lo;
      case Kind::kUniform: return lo + rng.below(hi - lo + 1);
      case Kind::kExponential:
        return lo + static_cast<std::uint64_t>(
                        rng.exponential(static_cast<double>(hi)));
    }
    return 0;
  }
};

/// One message's fate: nullopt when lost (one chance(p_loss) draw, made
/// only when p_loss > 0), otherwise its delay from `latency`.
[[nodiscard]] inline std::optional<std::uint64_t> message_delay(
    double p_loss, const Latency& latency, Rng& rng) {
  if (p_loss > 0.0 && rng.chance(p_loss)) return std::nullopt;
  return latency.sample(rng);
}

}  // namespace gossip::failure
