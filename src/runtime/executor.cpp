#include "runtime/executor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <iterator>
#include <utility>

#include "common/require.hpp"
#include "common/stream_salt.hpp"
#include "proto/wire.hpp"

namespace gossip::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// Frames ordered latest-deadline-first, so std::push_heap/pop_heap over
/// this predicate keep the earliest deliverable frame at the front.
bool later(const Frame& a, const Frame& b) {
  return a.deliver_at > b.deliver_at;
}

ExecutorConfig normalized(ExecutorConfig c) {
  GOSSIP_REQUIRE(c.nodes >= 2, "executor needs at least two nodes");
  GOSSIP_REQUIRE(c.local_lo < c.local_hi && c.local_hi <= c.nodes,
                 "executor local range must be a nonempty slice of [0, N)");
  GOSSIP_REQUIRE(c.initial.size() == c.nodes,
                 "executor needs one initial value per global node");
  GOSSIP_REQUIRE(c.cycles >= 1, "executor needs at least one cycle");
  if (c.overlay == OverlayMode::kStatic) {
    GOSSIP_REQUIRE(c.graph != nullptr && c.graph->node_count() == c.nodes,
                   "static overlay mode needs a graph over all N nodes");
  }
  GOSSIP_REQUIRE(c.cache_size >= 1, "newscast cache needs capacity >= 1");
  const std::uint32_t local = c.local_hi - c.local_lo;
  c.workers = std::clamp<std::uint32_t>(c.workers, 1, local);
  c.wheel_slots = std::max<std::uint32_t>(c.wheel_slots, 1);
  return c;
}

/// Frames queued, or processed, between two flushes of a worker's
/// outboxes. Measured on runtime_loopback (N=5000, 4 workers on a 4-core
/// host, two runs each): flushing only at each drain's start and end
/// delays replies, and it raised the busy-NACK share from per-frame
/// publishing's 0.39 to 0.43–0.45 and the convergence factor from 0.53 to
/// 0.55; every 4, 16 or 64 frames kept both at per-frame values, and 16
/// took 1.2–1.3 s to result where 4 took 1.5 s. The queued count matters
/// too: flushed only on processed frames, a wheel tick's pushes left
/// after the whole tick, when their targets had started exchanges of
/// their own, and the share read 0.40–0.41.
constexpr std::uint32_t kFlushEvery = 16;

/// Payload buffers a worker keeps per message family. On runtime_loopback
/// (N=5000, 4 workers on a 4-core host) an uncapped worker ended its runs
/// holding 1250–2220 of them, every payload of the largest burst it
/// processed; with a cap below that each cycle's burst mallocs again, and
/// a cap of 256 took 1.18–1.35 s to result where 2048 took 1.03–1.09 s.
constexpr std::size_t kMaxSpares = 4096;

/// The spare pool a message's payload belongs to: aggregation frames are
/// 25–26 bytes and NEWSCAST frames 17 + 12c, so a buffer never grows past
/// its family's size. One shared pool grew every buffer to the NEWSCAST
/// size and raised runtime_loopback's peak RSS by ~1.3 MB.
std::size_t family(const proto::Message& message) {
  return std::holds_alternative<proto::NewsPush>(message) ||
                 std::holds_alternative<proto::NewsReply>(message)
             ? 1
             : 0;
}

/// Which executor's worker the current thread is, if any. The sink
/// queues a frame sent from one of its own workers in that worker's
/// outbox; any other thread's frame (the socket receiver's, or another
/// executor's worker's) goes straight to the mailbox.
struct WorkerIdentity {
  const Executor* executor = nullptr;
  std::uint32_t index = 0;
};
thread_local WorkerIdentity current_worker;

/// Sums one node's protocol counters into the run's.
void add_protocol(RuntimeCounters& c, const proto::Node::Stats& s) {
  c.pushes_sent += s.pushes_sent;
  c.pushes_received += s.pushes_received;
  c.replies_sent += s.replies_sent;
  c.replies_received += s.replies_received;
  c.busy_nacks += s.busy_nacks;
  c.timeouts += s.timeouts;
  c.late_replies += s.late_replies;
  c.exchanges_completed += s.exchanges_completed;
  c.news_exchanges += s.news_exchanges;
}

}  // namespace

Executor::Executor(ExecutorConfig config, Transport& transport)
    : config_(normalized(std::move(config))),
      transport_(transport),
      population_(0),
      sync_(static_cast<std::ptrdiff_t>(config_.workers) + 1),
      driver_rng_(config_.seed ^ salt::kRuntimeDriver) {
  const std::uint32_t local = config_.local_hi - config_.local_lo;
  nodes_.reserve(local);
  population_.reserve(local);

  workers_.reserve(config_.workers);
  Rng worker_seeds(config_.seed ^ salt::kRuntimeWorkerPool);
  for (std::uint32_t i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->outbox.resize(config_.workers);
    w->wheel.resize(config_.wheel_slots);
    w->rng = worker_seeds.split();
    workers_.push_back(std::move(w));
  }

  for (std::uint32_t slot = 0; slot < local; ++slot) {
    add_node(config_.initial[config_.local_lo + slot], /*participant=*/true,
             /*bootstrap_ts=*/0);
  }

  transport_.set_sink([this](Frame&& frame) { sink(std::move(frame)); });
}

Executor::~Executor() = default;

std::uint32_t Executor::lower_slot(std::uint32_t id) const {
  const std::uint32_t local = config_.local_hi - config_.local_lo;
  if (id <= config_.local_lo) return 0;
  if (id < config_.local_hi) return id - config_.local_lo;
  if (id <= config_.nodes) return local;
  // Ids past the initial space are locally-joined churn identities.
  return local + (id - config_.nodes);
}

std::uint32_t Executor::slot_of(NodeId id) const {
  const std::uint32_t slot = lower_slot(id.value());
  return slot < population_.total() && global_of(slot) == id.value()
             ? slot
             : kNoSlot;
}

std::uint32_t Executor::global_of(std::uint32_t slot) const {
  const std::uint32_t local = config_.local_hi - config_.local_lo;
  if (slot < local) return config_.local_lo + slot;
  return config_.nodes + (slot - local);
}

void Executor::sink(Frame&& frame) {
  const std::uint32_t slot = slot_of(frame.dst);
  if (slot == kNoSlot) return;  // not ours: drop silently
  const std::uint32_t to = slot % config_.workers;
  if (current_worker.executor == this) {
    // Counted in flight when the sender's outbox flushes.
    Worker& from = *workers_[current_worker.index];
    from.outbox[to].push_back(std::move(frame));
    ++from.queued;
    return;
  }
  Worker& w = *workers_[to];
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  std::scoped_lock lock(w.mutex);
  w.ingress.push_back(std::move(frame));
}

ExecutorResult Executor::run(const failure::FailurePlan& plan) {
  // Joins append slots; room for the plan's whole join volume means no
  // join batch re-copies the nodes.
  const std::size_t capacity =
      nodes_.size() + plan.total_joins(config_.cycles);
  nodes_.reserve(capacity);
  population_.reserve(capacity);
  transport_.start();
  const auto t0 = Clock::now();

  record_stats();
  long double sum_initial = 0.0L;
  for (const NodeId u : population_.live()) {
    if (nodes_[u.value()].participating()) {
      sum_initial += nodes_[u.value()].estimate();
    }
  }

  apply_failures(0, plan);
  apply_drift(0);
  cycle_ = 0;
  resolved_.store(0, std::memory_order_relaxed);
  cycle_start_ = Clock::now();

  std::vector<std::thread> threads;
  threads.reserve(config_.workers);
  for (std::uint32_t i = 0; i < config_.workers; ++i) {
    threads.emplace_back([this, i] { worker_main(i); });
  }

  for (std::uint32_t c = 0; c < config_.cycles; ++c) {
    sync_.arrive_and_wait();  // cycle c's exchanges all settled
    try {
      record_stats();
      if (c + 1 < config_.cycles) {
        apply_failures(c + 1, plan);
        apply_drift(c + 1);
        resolved_.store(0, std::memory_order_relaxed);
        cycle_ = c + 1;
        cycle_start_ = Clock::now();
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }
    sync_.arrive_and_wait();  // cycle c+1 state published
  }
  sync_.arrive_and_wait();  // multi-process straggler grace done
  for (auto& t : threads) t.join();
  transport_.shutdown();

  if (failed_.load(std::memory_order_acquire)) {
    std::scoped_lock lock(fail_mutex_);
    throw require_error("executor run failed: " + fail_message_);
  }

  ExecutorResult result;
  result.per_cycle = std::move(per_cycle_);
  result.tracking_error = std::move(tracking_error_);
  for (const proto::Node& node : nodes_) {
    add_protocol(result.counters, node.stats());
  }
  long double sum_final = 0.0L;
  for (const NodeId u : population_.live()) {
    const proto::Node& node = nodes_[u.value()];
    if (!node.participating()) continue;
    result.final_estimates.push_back(node.estimate());
    sum_final += node.estimate();
    ++result.participants;
  }
  result.sum_initial = static_cast<double>(sum_initial);
  result.sum_final = static_cast<double>(sum_final);
  for (const auto& w : workers_) result.counters.add(w->counters);
  result.counters.dropped_loss = transport_.drops();
  result.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

void Executor::worker_main(std::uint32_t index) {
  Worker& w = *workers_[index];
  current_worker = {this, index};
  for (std::uint32_t c = 0; c < config_.cycles; ++c) {
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        run_cycle(w, c);
      } catch (const std::exception& e) {
        fail(e.what());
      }
    }
    sync_.arrive_and_wait();
    sync_.arrive_and_wait();
  }
  if (!failed_.load(std::memory_order_relaxed) && !single_process()) {
    // Serve remote stragglers: a peer process may still be resolving its
    // last cycle and waiting on replies from nodes hosted here.
    const auto until = Clock::now() + std::chrono::milliseconds(200);
    try {
      while (Clock::now() < until) {
        if (!drain(w)) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }
  // Payloads go back to the allocator here, on the thread that last used
  // them, not on the driver's when the executor is destroyed.
  for (auto& pool : w.spares) std::vector<std::vector<std::byte>>().swap(pool);
  current_worker = {};
  sync_.arrive_and_wait();
}

void Executor::run_cycle(Worker& w, std::uint32_t cycle) {
  const auto slot_len =
      config_.delta_us > 0
          ? std::chrono::microseconds(config_.delta_us / config_.wheel_slots)
          : std::chrono::microseconds(0);
  for (std::uint32_t s = 0; s < config_.wheel_slots; ++s) {
    if (slot_len.count() > 0) {
      std::this_thread::sleep_until(cycle_start_ + s * slot_len);
    }
    for (std::uint32_t u : w.wheel[s]) {
      if (!population_.alive_unchecked(NodeId(u))) continue;
      proto::Node& node = nodes_[u];
      if (config_.overlay == OverlayMode::kNewscast) {
        const NodeId peer = node.view().sample(w.rng);
        if (peer.is_valid()) {
          send_message(w, u, peer, node.news_push(cycle_ + 1));
        }
      }
      if (node.participating()) {
        const NodeId peer = pick_peer(w, u);
        if (const auto push = node.begin_exchange(peer)) {
          send_message(w, u, peer, *push);
        }
      }
    }
    drain(w);
    if (failed_.load(std::memory_order_relaxed)) return;
  }

  const auto deadline = cycle_start_ +
                        std::chrono::microseconds(config_.delta_us) +
                        config_.cycle_timeout;

  // Resolution, local half: every pending on a local peer either gets its
  // reply or is proven lost (in_flight == 0 means no local frame exists,
  // so no local reply can ever arrive).
  for (;;) {
    if (failed_.load(std::memory_order_relaxed)) return;
    const bool any = drain(w);
    if (!has_pending(w, /*local_only=*/true)) break;
    if (in_flight_.load(std::memory_order_acquire) == 0 ||
        Clock::now() >= deadline) {
      expire_pendings(w, /*local_only=*/true);
      break;
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Resolution, remote half: announce once all local workers settled,
  // then keep serving until every peer announced and this worker's own
  // pendings resolved. Remote pendings ride reliable TCP — they resolve
  // when the peer serves them (possibly from its own resolution loop) and
  // expire only on the wall deadline.
  //
  // The global in_flight == 0 requirement applies in single-process mode
  // only. There it is safe (once every worker is past phase 1 no new
  // frame can be created, so the count drains to zero) and it guarantees
  // every mailbox is empty at the barrier. In multi-process mode it would
  // deadlock: a peer that already closed this cycle can push into the
  // mailbox of a worker that has already reached the barrier, and nobody
  // can drain that count until the barrier releases — so cross-process
  // stragglers are instead served by the next cycle's drain (and by the
  // end-of-run grace loop), which the protocol tolerates by design.
  if (resolved_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      config_.workers) {
    transport_.announce_cycle_done(cycle);
  }
  const bool quiesce = single_process();
  for (;;) {
    if (failed_.load(std::memory_order_relaxed)) return;
    const bool any = drain(w);
    if (!has_pending(w, /*local_only=*/false)) {
      if (resolved_.load(std::memory_order_acquire) == config_.workers &&
          transport_.peers_done(cycle) &&
          (!quiesce ||
           in_flight_.load(std::memory_order_acquire) == 0)) {
        break;
      }
    } else if (Clock::now() >= deadline) {
      expire_pendings(w, /*local_only=*/false);
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool Executor::drain(Worker& w) {
  flush(w);
  {
    std::scoped_lock lock(w.mutex);
    w.grab.swap(w.ingress);
  }
  bool processed = false;
  const auto now = Clock::now();
  for (auto& frame : w.grab) {
    if (frame.deliver_at > now) {
      w.held.push_back(std::move(frame));
      std::push_heap(w.held.begin(), w.held.end(), later);
    } else {
      handle(w, frame);
      processed = true;
    }
  }
  w.grab.clear();
  while (!w.held.empty() && w.held.front().deliver_at <= Clock::now()) {
    std::pop_heap(w.held.begin(), w.held.end(), later);
    Frame frame = std::move(w.held.back());
    w.held.pop_back();
    handle(w, frame);
    processed = true;
  }
  flush(w);
  return processed;
}

void Executor::flush(Worker& w) {
  if (w.queued > 0) {
    // Counted before published, so no worker can read in_flight_ == 0
    // while one of these frames exists.
    in_flight_.fetch_add(w.queued, std::memory_order_acq_rel);
    w.queued = 0;
    for (std::size_t d = 0; d < w.outbox.size(); ++d) {
      std::vector<Frame>& batch = w.outbox[d];
      if (batch.empty()) continue;
      {
        Worker& to = *workers_[d];
        std::scoped_lock lock(to.mutex);
        to.ingress.insert(to.ingress.end(),
                          std::make_move_iterator(batch.begin()),
                          std::make_move_iterator(batch.end()));
      }
      batch.clear();
    }
  }
  // Released only now, after the replies they caused were counted.
  if (w.processed > 0) {
    in_flight_.fetch_sub(w.processed, std::memory_order_acq_rel);
    w.processed = 0;
  }
}

void Executor::handle(Worker& w, Frame& frame) {
  process(w, frame);
  if (++w.processed == kFlushEvery) flush(w);
}

void Executor::process(Worker& w, Frame& frame) {
  w.counters.messages_received++;
  w.counters.bytes_decoded += frame.payload.size();
  const proto::Message message = proto::decode(frame.payload);
  if (auto& pool = w.spares[family(message)]; pool.size() < kMaxSpares) {
    pool.push_back(std::move(frame.payload));
  }
  const std::uint32_t d = slot_of(frame.dst);  // sink admitted it
  if (!population_.alive_unchecked(NodeId(d))) {
    w.counters.dropped_dead++;
    // A push delivered to a dead node still counts as received.
    if (std::holds_alternative<proto::AggPush>(message)) {
      w.counters.pushes_received++;
    }
    return;
  }
  if (const auto reply = nodes_[d].on_message(frame.src, message, cycle_ + 1)) {
    send_message(w, d, frame.src, *reply);
  }
}

void Executor::send_message(Worker& w, std::uint32_t from_slot, NodeId to,
                            const proto::Message& message) {
  std::vector<std::byte> bytes;
  if (auto& pool = w.spares[family(message)]; !pool.empty()) {
    bytes = std::move(pool.back());
    pool.pop_back();
  }
  proto::encode(message, bytes);
  w.counters.messages_sent++;
  w.counters.bytes_encoded += bytes.size();
  // A false return means the loss model ate it; the transport counts the
  // drop, and the pending (if any) resolves through quiescence/timeout.
  (void)transport_.send(NodeId(global_of(from_slot)), to, std::move(bytes));
  if (w.queued >= kFlushEvery) flush(w);
}

NodeId Executor::pick_peer(Worker& w, std::uint32_t slot) {
  switch (config_.overlay) {
    case OverlayMode::kComplete: {
      const std::uint32_t self = global_of(slot);
      if (self >= config_.nodes) {
        return NodeId(static_cast<std::uint32_t>(
            w.rng.below(config_.nodes)));
      }
      auto pick =
          static_cast<std::uint32_t>(w.rng.below(config_.nodes - 1));
      if (pick >= self) ++pick;
      return NodeId(pick);
    }
    case OverlayMode::kStatic: {
      const auto neighbors =
          config_.graph->neighbors(NodeId(global_of(slot)));
      if (neighbors.empty()) return NodeId::invalid();
      return neighbors[w.rng.below(neighbors.size())];
    }
    case OverlayMode::kNewscast:
      return nodes_[slot].view().sample(w.rng);
  }
  return NodeId::invalid();
}

void Executor::expire_pendings(Worker& w, bool local_only) {
  for (std::uint32_t u : w.own) {
    const auto& pending = nodes_[u].pending();
    if (!pending) continue;
    if (local_only && !transport_.is_local(pending->peer)) continue;
    nodes_[u].on_timeout(pending->request_id);
  }
}

bool Executor::has_pending(const Worker& w, bool local_only) const {
  for (std::uint32_t u : w.own) {
    const auto& pending = nodes_[u].pending();
    if (!pending) continue;
    if (local_only && !transport_.is_local(pending->peer)) continue;
    return true;
  }
  return false;
}

void Executor::fail(const std::string& message) {
  bool expected = false;
  if (failed_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
    std::scoped_lock lock(fail_mutex_);
    fail_message_ = message;
  }
}

void Executor::apply_failures(std::uint32_t cycle,
                              const failure::FailurePlan& plan) {
  const std::uint32_t live = population_.live_count();
  const failure::CycleEvent event = plan.before_cycle(cycle, live);
  GOSSIP_REQUIRE(!event.restart,
                 "epoch restarts are not supported on the runtime path");

  failure::apply_kills(
      event, live,
      [this](std::uint32_t lo, std::uint32_t hi, std::uint32_t max_kills) {
        return population_.kill_range_batch(lower_slot(lo), lower_slot(hi),
                                            max_kills);
      },
      [this](std::uint32_t kills) {
        population_.kill_uniform_batch(kills, driver_rng_);
      });

  for (std::uint32_t j = 0; j < event.joins; ++j) {
    add_node(0.0, /*participant=*/false, /*bootstrap_ts=*/cycle);
  }
}

void Executor::apply_drift(std::uint32_t cycle) {
  if (!config_.drift) return;
  for (const NodeId u : population_.live()) {
    nodes_[u.value()].drift(config_.drift(cycle, global_of(u.value())));
  }
}

void Executor::record_stats() {
  stats::RunningStats estimate_stats;
  stats::RunningStats value_stats;
  for (const NodeId u : population_.live()) {
    const proto::Node& node = nodes_[u.value()];
    if (!node.participating()) continue;
    estimate_stats.add(node.estimate());
    value_stats.add(node.local_value());
  }
  per_cycle_.push_back(estimate_stats);
  if (config_.drift) {
    tracking_error_.push_back(
        std::fabs(estimate_stats.mean() - value_stats.mean()));
  }
}

void Executor::add_node(double value, bool participant,
                        std::uint32_t bootstrap_ts) {
  const std::uint32_t slot = population_.add().value();
  const NodeId self(global_of(slot));
  proto::ProtocolConfig protocol;
  protocol.cache_size = config_.cache_size;
  // The run is one epoch, which a joiner (joined during epoch 0) sits out.
  nodes_.push_back(participant ? proto::Node(self, value, protocol)
                               : proto::Node(self, value, protocol, 0));
  if (config_.overlay == OverlayMode::kNewscast) {
    // Bootstrap with a few random peers so the node can gossip at once.
    // Initial nodes point anywhere in the global id space; churn joiners
    // (bootstrap_ts > 0) must name live local nodes, so draw from slots.
    std::array<membership::CacheEntry, 8> view;
    const std::uint32_t fanout =
        std::min<std::uint32_t>(config_.cache_size, view.size());
    std::size_t filled = 0;
    for (std::uint32_t i = 0; i < fanout; ++i) {
      std::uint32_t peer;
      if (bootstrap_ts == 0) {
        peer = static_cast<std::uint32_t>(driver_rng_.below(config_.nodes));
      } else {
        const auto other =
            static_cast<std::uint32_t>(driver_rng_.below(slot));
        if (!population_.alive_unchecked(NodeId(other))) continue;
        peer = global_of(other);
      }
      view[filled++] = membership::CacheEntry(NodeId(peer), bootstrap_ts);
    }
    nodes_.back().bootstrap_view({view.data(), filled});
  }
  Worker& w = *workers_[slot % config_.workers];
  w.own.push_back(slot);
  w.wheel[(slot * 2654435761u) % config_.wheel_slots].push_back(slot);
}

}  // namespace gossip::runtime
