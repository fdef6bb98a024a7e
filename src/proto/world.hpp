// The deterministic host of the §4 node: virtual time on sim::EventLoop,
// §2's lossy, latent network and N protocol nodes with bootstrap views.
// The world owns what the sans-I/O node leaves to its host: each node's δ
// timer at a random phase, the exchange timeouts, the peer draws (one
// random stream per node) and each message's fate, drawn by
// failure::message_delay on one network stream as runtime::Transport
// draws it on the wall clock. Its live set is an overlay::Population, as
// on every other host. This is the harness the event driver and the
// integration tests drive; it plays the role PeerSim's event-based mode
// played for the authors.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "failure/comm_failure.hpp"
#include "overlay/population.hpp"
#include "proto/node.hpp"
#include "sim/event_loop.hpp"
#include "stats/summary.hpp"

namespace gossip::proto {

struct WorldConfig {
  std::uint32_t nodes = 100;
  ProtocolConfig protocol;
  /// Per-message loss probability (fig. 7b's model at the transport).
  double p_loss = 0.0;
  std::uint64_t seed = 1;
  /// Initial local value per node; defaults to the peak distribution
  /// (node 0 holds `nodes`, rest 0) whose true average is 1.
  std::function<double(NodeId)> initial_value;
};

class World {
public:
  /// δ, in µs of virtual time.
  static constexpr sim::SimTime kCycleLength = 1'000'000;
  /// The exchange timeout (§4.2).
  static constexpr sim::SimTime kTimeout = 400'000;
  /// One-way delay, uniform in [5, 50] ms: a round trip stays well under
  /// the timeout, so only loss and crashes make exchanges time out.
  static constexpr failure::Latency kLatency{failure::Latency::Kind::kUniform,
                                             5'000, 50'000};

  explicit World(WorldConfig config);

  /// Starts every node at a random phase.
  void start();

  /// Advances virtual time by `cycles` × δ.
  void run_cycles(double cycles);

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] bool alive(NodeId id) const { return population_.alive(id); }

  /// Crashes a live node: its δ timer and timeouts stop, and messages
  /// still in flight to it are dropped at delivery (what it sent before
  /// has left the host and still arrives).
  void crash(NodeId id) { population_.kill(id); }

  /// Joins a brand-new node through `contact` (§4.2): it copies the
  /// contact's view, learns the current epoch, and participates from the
  /// next one. Returns the new node's id.
  NodeId join(NodeId contact, double local_value);

  /// Estimates of live, epoch-participating nodes.
  [[nodiscard]] std::vector<double> estimates() const;
  [[nodiscard]] stats::Summary estimate_summary() const {
    return stats::summarize(estimates());
  }

  /// Last-epoch reports of live participating nodes (empty until the
  /// first epoch completes).
  [[nodiscard]] std::vector<double> reports() const;

private:
  /// Adds node `nodes_.size()` with its own random stream.
  void add_node(Node node);
  /// Arms the first cycle of node `u` at a random phase within δ.
  void start_node(std::uint32_t u);
  void on_cycle(std::uint32_t u);
  /// Draws the message's fate and schedules its delivery. Only live nodes
  /// send: a crashed node's timer stops and it receives nothing to answer.
  void send(NodeId from, NodeId to, Message message);
  /// Hands the message to a live receiver and sends its reply, if any.
  void deliver(NodeId from, NodeId to, const Message& message);

  WorldConfig config_;
  Rng rng_;
  Rng net_rng_;  ///< every message's loss and delay draws
  sim::EventLoop loop_;
  overlay::Population population_;
  std::vector<Node> nodes_;
  std::vector<Rng> rngs_;  ///< per node: phase and peer draws
};

}  // namespace gossip::proto
