// One protocol node of the §4 "practical protocol": fig. 1's push–pull
// aggregation with atomic exchanges, exchange timeouts and join gating
// (§4.2), epoch restart and synchronization (§4.1, §4.3), and a NEWSCAST
// view maintained over the same transport (§4.4).
//
// The node is sans-I/O: it owns no timer, clock, thread, socket or random
// stream. A host drives it and sends what it returns. proto::World hosts
// nodes on virtual time over a simulated network; runtime::Executor hosts
// them on worker threads over a wire transport. Each host owns the δ
// timers, the exchange timeouts and the peer draws; both run this one
// copy of the protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/node_id.hpp"
#include "core/epoch.hpp"
#include "core/update.hpp"
#include "membership/newscast_cache.hpp"
#include "proto/messages.hpp"

namespace gossip::proto {

/// Which aggregate the swarm computes (§3, §5).
using UpdateKind = core::UpdateKind;

struct ProtocolConfig {
  std::uint32_t cycles_per_epoch = 30;    ///< γ
  std::size_t cache_size = 30;            ///< NEWSCAST c
  UpdateKind update = UpdateKind::kAverage;
  /// Refuse incoming pushes while our own exchange is in flight. This is
  /// required for mass conservation (fig. 1 is implicitly atomic per
  /// exchange); turning it off reproduces the naive concurrent reading
  /// and its systematic estimate drift — see the ablation_atomicity
  /// bench. Leave on outside of ablations.
  bool atomic_exchanges = true;
};

class Node {
public:
  /// Protocol counters; the runtime sums them into RuntimeCounters under
  /// the same names.
  struct Stats {
    std::uint64_t pushes_sent = 0;       ///< exchanges initiated
    std::uint64_t pushes_received = 0;   ///< every push handled
    std::uint64_t replies_sent = 0;      ///< replies, refusals included
    std::uint64_t replies_received = 0;  ///< replies matched to our pending
    /// Pushes refused with a NACK: our own exchange was pending, or we sit
    /// the push's epoch out.
    std::uint64_t busy_nacks = 0;
    std::uint64_t refusals_sent = 0;     ///< stale-epoch pushes refused
    std::uint64_t timeouts = 0;
    std::uint64_t late_replies = 0;      ///< replies matching no pending
    std::uint64_t exchanges_completed = 0;  ///< active side, reply applied
    std::uint64_t news_exchanges = 0;       ///< NEWSCAST replies merged
    std::uint64_t epochs_adopted = 0;       ///< §4.3 jumps

    bool operator==(const Stats&) const = default;
  };

  /// The exchange this node initiated and still awaits.
  struct Pending {
    std::uint64_t request_id = 0;
    NodeId peer;
  };

  /// A founding member.
  Node(NodeId id, double local_value, const ProtocolConfig& config);

  /// A node joining while `contact_epoch` is running: it adopts that
  /// epoch's clock but participates only from the next one (§4.2).
  Node(NodeId id, double local_value, const ProtocolConfig& config,
       std::uint64_t contact_epoch);

  /// Seeds the NEWSCAST view (bootstrap or join copy).
  void bootstrap_view(std::span<const membership::CacheEntry> view);

  /// This cycle's NEWSCAST push, with our own descriptor stamped `now`.
  /// The host draws its destination from view().
  [[nodiscard]] NewsPush news_push(std::uint64_t now) const;

  /// Fig. 1's active thread: the push to send to `peer`. Empty while we
  /// sit the epoch out or an exchange is pending, and for an invalid
  /// peer or ourselves.
  std::optional<AggPush> begin_exchange(NodeId peer);

  /// Handles one message from `from` stamped `now`; returns the reply
  /// owed to `from`. A reply counts only from the peer we pushed to.
  std::optional<Message> on_message(NodeId from, const Message& message,
                                    std::uint64_t now);

  /// §4.2: "If the timeout expires before the message is received, the
  /// exchange step is skipped." No-op unless `request_id` is pending.
  void on_timeout(std::uint64_t request_id);

  /// The §4.1 epoch clock: one local cycle ended. At the γ-th the node
  /// reports its estimate and re-initializes from its local value.
  void end_cycle();

  /// Moves the local value by `delta`; a participating estimate moves
  /// with it, so the drift preserves mass.
  void drift(double delta);

  /// Updates the underlying local value; the next epoch re-initializes
  /// from it (this is what makes the protocol adaptive).
  void set_local_value(double value) { local_value_ = value; }

  // ---- observers -------------------------------------------------------

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] double estimate() const { return estimate_; }
  [[nodiscard]] double local_value() const { return local_value_; }
  [[nodiscard]] std::uint64_t epoch() const { return epochs_.epoch(); }
  [[nodiscard]] bool participating() const {
    return gate_.participates_in(epochs_.epoch());
  }
  [[nodiscard]] const std::optional<Pending>& pending() const {
    return pending_;
  }
  /// Output of the last completed epoch, if any (§4.1: the estimate is
  /// returned as aggregation output at epoch end).
  [[nodiscard]] std::optional<double> last_report() const {
    return last_report_;
  }
  [[nodiscard]] const membership::NewscastCache& view() const {
    return cache_;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

private:
  AggReply serve(const AggPush& push);
  void receive(NodeId from, const AggReply& reply);
  void adopt_epoch(std::uint64_t remote_epoch);
  [[nodiscard]] std::vector<membership::CacheEntry> view_copy() const;

  NodeId id_;
  double local_value_;
  double estimate_;
  ProtocolConfig config_;
  core::EpochMachine epochs_;
  core::JoinGate gate_;
  membership::NewscastCache cache_;

  std::uint64_t next_request_id_ = 1;
  std::optional<Pending> pending_;
  std::optional<double> last_report_;
  Stats stats_;
};

}  // namespace gossip::proto
