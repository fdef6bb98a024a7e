#include "proto/node.hpp"

namespace gossip::proto {

Node::Node(NodeId id, double local_value, const ProtocolConfig& config)
    : id_(id),
      local_value_(local_value),
      estimate_(local_value),
      config_(config),
      epochs_(config.cycles_per_epoch),
      cache_(config.cache_size) {}

Node::Node(NodeId id, double local_value, const ProtocolConfig& config,
           std::uint64_t contact_epoch)
    : Node(id, local_value, config) {
  if (contact_epoch > 0) epochs_.adopt(contact_epoch);
  gate_ = core::JoinGate::joined_during(contact_epoch);
}

void Node::bootstrap_view(std::span<const membership::CacheEntry> view) {
  cache_.merge(view, membership::CacheEntry{NodeId::invalid(), 0}, id_);
}

std::vector<membership::CacheEntry> Node::view_copy() const {
  return {cache_.entries().begin(), cache_.entries().end()};
}

NewsPush Node::news_push(std::uint64_t now) const {
  return NewsPush{view_copy(), membership::CacheEntry{id_, now}};
}

std::optional<AggPush> Node::begin_exchange(NodeId peer) {
  if (!participating() || pending_ || !peer.is_valid() || peer == id_) {
    return std::nullopt;
  }
  const std::uint64_t request_id = next_request_id_++;
  pending_ = Pending{request_id, peer};
  ++stats_.pushes_sent;
  return AggPush{epochs_.epoch(), request_id, estimate_};
}

void Node::on_timeout(std::uint64_t request_id) {
  if (pending_ && pending_->request_id == request_id) {
    pending_.reset();
    ++stats_.timeouts;
  }
}

void Node::end_cycle() {
  if (!epochs_.advance_cycle()) return;
  // §4.1: report the estimate as output, re-initialize from the current
  // local value. A still-pending exchange belongs to the finished epoch;
  // its reply will count as late.
  last_report_ = estimate_;
  estimate_ = local_value_;
  pending_.reset();
}

void Node::drift(double delta) {
  local_value_ += delta;
  if (participating()) estimate_ += delta;
}

void Node::adopt_epoch(std::uint64_t remote_epoch) {
  // §4.3: jump to the newer epoch. Preemption *terminates* the epoch we
  // were running, and §4.1 says a terminated epoch returns the current
  // estimate as output — without this, a node that adopted epoch e some
  // cycles late would always be preempted by e+1 before its own γ-count
  // completes, and would never report at all.
  if (participating() && epochs_.cycle_in_epoch() > 0) {
    last_report_ = estimate_;
  }
  epochs_.adopt(remote_epoch);
  estimate_ = local_value_;
  pending_.reset();
  ++stats_.epochs_adopted;
}

std::optional<Message> Node::on_message(NodeId from, const Message& message,
                                        std::uint64_t now) {
  if (const auto* push = std::get_if<AggPush>(&message)) return serve(*push);
  if (const auto* reply = std::get_if<AggReply>(&message)) {
    receive(from, *reply);
    return std::nullopt;
  }
  if (const auto* news = std::get_if<NewsPush>(&message)) {
    // §4.4: answer with our view as it was, then merge theirs.
    NewsReply answer{view_copy(), membership::CacheEntry{id_, now}};
    cache_.merge(news->entries, news->fresh, id_);
    return answer;
  }
  const auto& answer = std::get<NewsReply>(message);
  cache_.merge(answer.entries, answer.fresh, id_);
  ++stats_.news_exchanges;
  return std::nullopt;
}

AggReply Node::serve(const AggPush& push) {
  ++stats_.pushes_received;
  ++stats_.replies_sent;
  // Refuse with a NACK, which frees the initiator at once:
  //  * a joiner sits out the epoch it joined in (§4.2);
  //  * exchange atomicity — while our own push is in flight, the estimate
  //    is committed to that exchange, and serving another against it
  //    would double-count mass and break sum conservation (the fig. 1
  //    pseudocode is implicitly atomic per exchange).
  if (!gate_.participates_in(push.epoch) ||
      (config_.atomic_exchanges && pending_)) {
    ++stats_.busy_nacks;
    return AggReply{epochs_.epoch(), push.request_id, 0.0, /*refused=*/true};
  }
  switch (epochs_.classify(push.epoch)) {
    case core::EpochMachine::TagAction::kStale:
      // Push from an older epoch: tell the sender about ours.
      ++stats_.refusals_sent;
      return AggReply{epochs_.epoch(), push.request_id, 0.0,
                      /*refused=*/true};
    case core::EpochMachine::TagAction::kAdopt:
      adopt_epoch(push.epoch);
      break;
    case core::EpochMachine::TagAction::kAccept:
      break;
  }
  // Fig. 1 passive thread: reply with the pre-update state, then update.
  const AggReply reply{epochs_.epoch(), push.request_id, estimate_,
                       /*refused=*/false};
  estimate_ = core::apply_update(config_.update, estimate_, push.value);
  return reply;
}

void Node::receive(NodeId from, const AggReply& reply) {
  if (pending_ && pending_->request_id == reply.request_id &&
      pending_->peer == from) {
    pending_.reset();
    ++stats_.replies_received;
    if (!reply.refused &&
        epochs_.classify(reply.epoch) ==
            core::EpochMachine::TagAction::kAccept) {
      estimate_ = core::apply_update(config_.update, estimate_, reply.value);
      ++stats_.exchanges_completed;
      return;
    }
  } else {
    // After a timeout or an epoch roll the exchange is void.
    ++stats_.late_replies;
    if (!reply.refused) return;
  }
  // A refusal, or a reply from another epoch: no exchange happened, but a
  // newer epoch id still spreads (§4.3).
  if (epochs_.classify(reply.epoch) ==
      core::EpochMachine::TagAction::kAdopt) {
    adopt_epoch(reply.epoch);
  }
}

}  // namespace gossip::proto
