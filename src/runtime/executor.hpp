// The deployment-runtime executor: the actual protocol (paper fig. 1) on
// real threads and a real transport, with an event-driven dispatcher so
// N=10³–10⁴ nodes fit in one process (and K processes can host disjoint
// id ranges over the socket transport).
//
// Architecture: W worker threads each own a partition of the local nodes.
// A per-worker timer wheel staggers each node's δ-cycle wakeup across
// `wheel_slots` ticks; between ticks workers drain their ingress mailbox,
// handing each frame to its proto::Node and holding delay-injected frames
// until their deadline — all non-blocking. The protocol itself is the
// shared sans-I/O node that the event driver's proto::World also hosts,
// so exchange atomicity is its busy-NACK rule: a node whose own push is
// in flight refuses incoming pushes with a NACK.
//
// Cycle closure is quiescence-based, which makes timeouts loss-exact: a
// global in-flight frame counter follows a strict discipline — a frame is
// counted before it is published, and a processed frame is released only
// after the replies it caused are counted — so in_flight == 0 proves no
// local reply can ever arrive: any pending still open at that point
// corresponds to a genuinely lost message. Consequence: under zero
// injected loss the global sum is conserved exactly (both sides of every
// completed exchange compute (a+b)/2 from identical operands, and no
// pending is ever expired while its reply is alive). Replies to remote
// peers ride reliable TCP and expire only on the per-cycle wall deadline.
//
// Frame payloads allocate nothing in steady state, and a worker takes one
// lock per batch of frames. A worker encodes each send into a payload
// buffer recycled from a frame it processed, and its local sends wait in
// one outbox per destination worker. A flush counts every queued frame
// with one add, hands each batch to its worker's mailbox under one lock,
// and then releases the frames processed since the last flush with one
// subtract. Workers flush at the start and end of each drain, and
// whenever kFlushEvery frames are queued or processed since the last
// flush. Frames the socket receiver thread delivers skip the outboxes:
// they are counted and published one at a time.
//
// The executor runs one cycle-stepped epoch: between cycles a driver
// thread applies the failure plan (kills/joins), the drift stream and
// records per-cycle estimate statistics, exactly like the simulators —
// which is what makes the runtime_vs_sim cross-check meaningful. The live
// set is an overlay::Population over the local slots, and the plan's
// crashes retire through its batch kills, the intra-rep engine's code: the
// same seed names the same victims on both. Runs with
// several workers are wall-clock concurrent and NOT bit-deterministic;
// their tests assert protocol invariants (conservation, convergence). A
// one-worker loopback run handles every frame in one order and is pinned.
#pragma once

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "failure/failure_plan.hpp"
#include "overlay/graph.hpp"
#include "overlay/population.hpp"
#include "proto/node.hpp"
#include "runtime/counters.hpp"
#include "runtime/transport.hpp"
#include "stats/running_stats.hpp"

namespace gossip::runtime {

/// How GETNEIGHBOR() resolves.
enum class OverlayMode {
  kComplete,  ///< uniform over the global id space
  kStatic,    ///< a prebuilt overlay::Graph (identical in every process)
  kNewscast,  ///< live NEWSCAST caches exchanged over the wire (§4.4)
};

struct ExecutorConfig {
  std::uint32_t nodes = 0;     ///< global N across all processes
  std::uint32_t local_lo = 0;  ///< this process's id range [lo, hi)
  std::uint32_t local_hi = 0;  ///< == nodes when single-process
  std::uint32_t cycles = 30;
  std::uint32_t workers = 1;      ///< dispatcher threads W
  std::uint32_t wheel_slots = 8;  ///< timer-wheel wakeup ticks per δ cycle
  std::uint32_t delta_us = 0;     ///< δ wall pacing per cycle; 0 free-runs
  /// Per-cycle resolution wall guard: pendings that survive quiescence
  /// (remote peers, broken peers) expire this long after the cycle began.
  std::chrono::milliseconds cycle_timeout{2000};
  std::uint64_t seed = 1;
  OverlayMode overlay = OverlayMode::kNewscast;
  const overlay::Graph* graph = nullptr;  ///< kStatic; caller keeps it alive
  std::uint32_t cache_size = 30;          ///< kNewscast capacity c
  /// Global initial values, size `nodes`; every process slices its range.
  std::vector<double> initial;
  /// Mass-preserving drift applied between cycles (value and estimate
  /// move together); null = static values. Must be a pure function of
  /// (cycle, node) so cooperating processes agree.
  std::function<double(std::uint32_t cycle, std::uint32_t node)> drift;
};

struct ExecutorResult {
  /// Estimate stats over local live participants: [0] initial, [i >= 1]
  /// after cycle i.
  std::vector<stats::RunningStats> per_cycle;
  /// |estimate mean − true local-value mean| per recorded cycle; empty
  /// unless a drift stream ran.
  std::vector<double> tracking_error;
  std::vector<double> final_estimates;  ///< local live participants
  /// Global-sum conservation pair over local participants' estimates
  /// (accumulated in long double). Equal under zero loss and no failures.
  double sum_initial = 0.0;
  double sum_final = 0.0;
  std::uint32_t participants = 0;  ///< local live participants at the end
  RuntimeCounters counters;
  double elapsed_seconds = 0.0;
};

class Executor {
public:
  /// Wires itself as `transport`'s sink; the transport must outlive the
  /// executor and must not be started yet.
  Executor(ExecutorConfig config, Transport& transport);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs the full epoch. Throws require_error if a worker or the
  /// transport failed. One run per Executor.
  ExecutorResult run(const failure::FailurePlan& plan);

private:
  struct Worker {
    std::mutex mutex;
    std::vector<Frame> ingress;  ///< MPSC mailbox: flushes, receiver thread
    std::vector<Frame> grab;          ///< drain swap buffer
    std::vector<Frame> held;          ///< delay-injected min-heap
    /// Local sends, one batch per destination worker, until a flush.
    std::vector<std::vector<Frame>> outbox;
    std::uint32_t queued = 0;     ///< frames in outbox, not yet counted
    std::uint32_t processed = 0;  ///< frames handled, not yet released
    /// Recycled payloads, one pool per message family (aggregation,
    /// NEWSCAST), so a buffer is reused at the size its family needs.
    std::array<std::vector<std::vector<std::byte>>, 2> spares;
    std::vector<std::uint32_t> own;   ///< local slots this worker owns
    std::vector<std::vector<std::uint32_t>> wheel;  ///< slot buckets
    Rng rng;
    RuntimeCounters counters;
  };

  /// The first local slot whose global id is >= `id`. global_of is
  /// increasing, so a global id range [lo, hi) is the slot interval
  /// [lower_slot(lo), lower_slot(hi)).
  [[nodiscard]] std::uint32_t lower_slot(std::uint32_t id) const;
  /// The local slot hosting `id`, or kNoSlot for a remote, stale or
  /// corrupt destination.
  [[nodiscard]] std::uint32_t slot_of(NodeId id) const;
  [[nodiscard]] std::uint32_t global_of(std::uint32_t slot) const;
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  [[nodiscard]] bool single_process() const {
    return config_.local_hi - config_.local_lo == config_.nodes;
  }

  void sink(Frame&& frame);
  void worker_main(std::uint32_t index);
  void run_cycle(Worker& w, std::uint32_t cycle);
  bool drain(Worker& w);
  void flush(Worker& w);
  void handle(Worker& w, Frame& frame);
  void process(Worker& w, Frame& frame);
  void send_message(Worker& w, std::uint32_t from_slot, NodeId to,
                    const proto::Message& message);
  [[nodiscard]] NodeId pick_peer(Worker& w, std::uint32_t slot);
  void expire_pendings(Worker& w, bool local_only);
  [[nodiscard]] bool has_pending(const Worker& w, bool local_only) const;
  void fail(const std::string& message);

  // Driver-side (single-threaded between cycle barriers).
  void apply_failures(std::uint32_t cycle, const failure::FailurePlan& plan);
  void apply_drift(std::uint32_t cycle);
  void record_stats();
  void add_node(double value, bool participant, std::uint32_t bootstrap_ts);

  ExecutorConfig config_;
  Transport& transport_;

  // Node state and the live set (ascending slots), indexed by local slot.
  // A node is mutated by its owning worker during a cycle; the driver
  // mutates both between barriers only.
  std::vector<proto::Node> nodes_;
  overlay::Population population_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::uint32_t> resolved_{0};
  std::barrier<> sync_;
  std::uint32_t cycle_ = 0;  ///< written by the driver between barriers
  std::chrono::steady_clock::time_point cycle_start_;

  std::atomic<bool> failed_{false};
  std::mutex fail_mutex_;
  std::string fail_message_;

  Rng driver_rng_;
  std::vector<stats::RunningStats> per_cycle_;
  std::vector<double> tracking_error_;
};

}  // namespace gossip::runtime
