// The deterministic host of the §4 node: virtual time on sim::EventLoop,
// a lossy, latent net::Network, and N protocol nodes with bootstrap
// views. The world owns what the sans-I/O node leaves to its host: each
// node's δ timer at a random phase, the exchange timeouts and the peer
// draws (one random stream per node). This is the harness the event
// driver and the integration tests drive; it plays the role PeerSim's
// event-based mode played for the authors.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "proto/node.hpp"
#include "sim/event_loop.hpp"
#include "stats/summary.hpp"

namespace gossip::proto {

struct WorldConfig {
  std::uint32_t nodes = 100;
  ProtocolConfig protocol;
  sim::SimTime cycle_length = 1'000'000;  ///< δ (µs of virtual time)
  sim::SimTime timeout = 400'000;         ///< exchange timeout (§4.2)
  /// Per-message loss probability (fig. 7b's model at the transport).
  double p_loss = 0.0;
  /// One-way latency bounds (uniform). Must stay well under the timeout
  /// for the no-failure regime.
  sim::SimTime latency_lo = 5'000;
  sim::SimTime latency_hi = 50'000;
  std::uint64_t seed = 1;
  /// Initial local value per node; defaults to the peak distribution
  /// (node 0 holds `nodes`, rest 0) whose true average is 1.
  std::function<double(NodeId)> initial_value;
};

class World {
public:
  explicit World(WorldConfig config);

  /// Starts every node at a random phase.
  void start();

  /// Advances virtual time by `cycles` × δ.
  void run_cycles(double cycles);

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] net::Network<Message>& network() { return *network_; }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] bool alive(NodeId id) const {
    return network_->alive(id);
  }

  /// Crashes a node: silences its transport and stops its δ timer.
  void crash(NodeId id);

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
  /// Adds node `nodes_.size()` with its own random stream and transport
  /// handler.
  void add_node(Node node);
  /// Arms the first cycle of node `u` at a random phase within δ.
  void start_node(std::uint32_t u);
  void on_cycle(std::uint32_t u);

  WorldConfig config_;
  Rng rng_;
  sim::EventLoop loop_;
  std::unique_ptr<net::Network<Message>> network_;
  std::vector<Node> nodes_;
  std::vector<Rng> rngs_;  ///< per node: phase and peer draws
};

}  // namespace gossip::proto
