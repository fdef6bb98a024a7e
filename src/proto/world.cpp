#include "proto/world.hpp"

#include <utility>

#include "membership/bootstrap.hpp"

namespace gossip::proto {

World::World(WorldConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      net_rng_(rng_.split()),  // the first split, before the node streams
      population_(0) {
  GOSSIP_REQUIRE(config_.nodes >= 2, "world needs at least two nodes");
  GOSSIP_REQUIRE(config_.p_loss >= 0.0 && config_.p_loss <= 1.0,
                 "loss must be a probability");
  if (!config_.initial_value) {
    const double peak = static_cast<double>(config_.nodes);
    config_.initial_value = [peak](NodeId id) {
      return id.value() == 0 ? peak : 0.0;
    };
  }

  population_.reserve(config_.nodes);
  nodes_.reserve(config_.nodes);
  rngs_.reserve(config_.nodes);
  for (std::uint32_t u = 0; u < config_.nodes; ++u) {
    const NodeId id(u);
    add_node(Node(id, config_.initial_value(id), config_.protocol));
  }
  // Random bootstrap views: the cycle engines' §4.2 draw, node by node.
  std::vector<membership::CacheEntry> view(
      std::min<std::size_t>(config_.protocol.cache_size, config_.nodes - 1));
  for (std::uint32_t u = 0; u < config_.nodes; ++u) {
    membership::draw_bootstrap(rng_, config_.nodes, view);
    membership::settle_bootstrap(u, config_.nodes, 0, view);
    nodes_[u].bootstrap_view(view);
  }
}

void World::add_node(Node node) {
  population_.add();
  nodes_.push_back(std::move(node));
  rngs_.push_back(rng_.split());
}

void World::start() {
  for (std::uint32_t u = 0; u < nodes_.size(); ++u) start_node(u);
}

void World::start_node(std::uint32_t u) {
  loop_.schedule_after(rngs_[u].below(kCycleLength),
                       [this, u] { on_cycle(u); });
}

void World::on_cycle(std::uint32_t u) {
  const NodeId id(u);
  if (!population_.alive(id)) return;  // a crashed node's timer stops
  loop_.schedule_after(kCycleLength, [this, u] { on_cycle(u); });
  Node& node = nodes_[u];
  Rng& rng = rngs_[u];

  // NEWSCAST exchange: runs in every cycle regardless of epoch gating —
  // membership is what keeps the overlay repaired (§4.4).
  const NodeId news_peer = node.view().sample(rng);
  if (news_peer.is_valid()) send(id, news_peer, node.news_push(loop_.now()));

  // Aggregation exchange (fig. 1 active thread), only while this node
  // participates in the running epoch.
  if (node.participating()) {
    const NodeId peer = node.view().sample(rng);
    if (auto push = node.begin_exchange(peer)) {
      const std::uint64_t request_id = push->request_id;
      send(id, peer, *push);
      loop_.schedule_after(kTimeout, [this, u, request_id] {
        if (population_.alive(NodeId(u))) nodes_[u].on_timeout(request_id);
      });
    }
  }

  node.end_cycle();
}

void World::send(NodeId from, NodeId to, Message message) {
  const auto delay =
      failure::message_delay(config_.p_loss, kLatency, net_rng_);
  if (!delay) return;
  loop_.schedule_after(*delay,
                       [this, from, to, message = std::move(message)] {
                         deliver(from, to, message);
                       });
}

void World::deliver(NodeId from, NodeId to, const Message& message) {
  if (!population_.alive(to)) return;  // dropped at a dead receiver
  if (auto reply = nodes_[to.value()].on_message(from, message, loop_.now())) {
    send(to, from, std::move(*reply));
  }
}

void World::run_cycles(double cycles) {
  GOSSIP_REQUIRE(cycles >= 0.0, "cannot run negative cycles");
  const auto span = static_cast<sim::SimTime>(
      cycles * static_cast<double>(kCycleLength));
  loop_.run_until(loop_.now() + span);
}

Node& World::node(NodeId id) {
  GOSSIP_REQUIRE(id.is_valid() && id.value() < nodes_.size(),
                 "node() id out of range");
  return nodes_[id.value()];
}

NodeId World::join(NodeId contact, double local_value) {
  GOSSIP_REQUIRE(alive(contact), "join contact must be alive");
  const NodeId id(static_cast<std::uint32_t>(nodes_.size()));
  // §4.2 join: the contact hands over its view (plus itself) and the
  // running epoch.
  const Node& contact_node = node(contact);
  std::vector<membership::CacheEntry> view(
      contact_node.view().entries().begin(),
      contact_node.view().entries().end());
  view.push_back(membership::CacheEntry{contact, loop_.now()});
  Node fresh(id, local_value, config_.protocol, contact_node.epoch());
  fresh.bootstrap_view(view);
  add_node(std::move(fresh));
  start_node(id.value());
  return id;
}

std::vector<double> World::estimates() const {
  std::vector<double> out;
  out.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    if (population_.alive(node.id()) && node.participating()) {
      out.push_back(node.estimate());
    }
  }
  return out;
}

std::vector<double> World::reports() const {
  std::vector<double> out;
  for (const Node& node : nodes_) {
    if (population_.alive(node.id()) && node.participating() &&
        node.last_report()) {
      out.push_back(*node.last_report());
    }
  }
  return out;
}

}  // namespace gossip::proto
