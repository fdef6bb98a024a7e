// Observability counters of the deployment runtime (executor.hpp):
// everything the protocol does on the wire, summed over the workers and
// the nodes' proto::Node::Stats at the end of a run. Split into its own
// header so the experiment layer can embed the struct in RunResult
// without pulling in threads or sockets.
#pragma once

#include <cstdint>

namespace gossip::runtime {

/// Aggregated per-node transport/protocol counters of one executor run.
struct RuntimeCounters {
  std::uint64_t pushes_sent = 0;       ///< AggPush initiations
  std::uint64_t pushes_received = 0;   ///< AggPush served (incl. refusals)
  std::uint64_t replies_sent = 0;      ///< AggReply sent (incl. busy NACKs)
  std::uint64_t replies_received = 0;  ///< AggReply matched to a pending
  std::uint64_t busy_nacks = 0;        ///< refusals sent (exchange atomicity)
  std::uint64_t timeouts = 0;          ///< pendings expired without a reply
  std::uint64_t late_replies = 0;      ///< replies arriving after expiry
  std::uint64_t exchanges_completed = 0;  ///< full push–pull value merges
  std::uint64_t news_exchanges = 0;       ///< NEWSCAST cache merges on reply
  std::uint64_t dropped_loss = 0;      ///< messages the loss model ate
  std::uint64_t dropped_dead = 0;      ///< messages delivered to dead nodes
  std::uint64_t messages_sent = 0;     ///< frames handed to the transport
  std::uint64_t messages_received = 0; ///< frames fully processed
  std::uint64_t bytes_encoded = 0;     ///< proto::encode output volume
  std::uint64_t bytes_decoded = 0;     ///< proto::decode input volume

  void add(const RuntimeCounters& o) {
    pushes_sent += o.pushes_sent;
    pushes_received += o.pushes_received;
    replies_sent += o.replies_sent;
    replies_received += o.replies_received;
    busy_nacks += o.busy_nacks;
    timeouts += o.timeouts;
    late_replies += o.late_replies;
    exchanges_completed += o.exchanges_completed;
    news_exchanges += o.news_exchanges;
    dropped_loss += o.dropped_loss;
    dropped_dead += o.dropped_dead;
    messages_sent += o.messages_sent;
    messages_received += o.messages_received;
    bytes_encoded += o.bytes_encoded;
    bytes_decoded += o.bytes_decoded;
  }
};

}  // namespace gossip::runtime
