// Transport abstraction of the deployment runtime: encoded proto wire
// bytes move between nodes through one of two implementations —
//
//  * LoopbackTransport: in-process delivery straight into the sink (the
//    executor's per-worker ingress queue), for N=10³–10⁴ nodes in one
//    process;
//  * SocketTransport: real TCP over loopback between K processes hosting
//    disjoint node-id ranges, length-prefixed frames, plus a cycle-done
//    control channel so cooperating processes can close each δ cycle
//    together.
//
// Both implementations inject per-message faults before delivery through
// failure::message_delay, the draw proto::World makes on virtual time: a
// Bernoulli loss, then a one-way delay (the delayed frame is held by the
// receiving worker until its deadline). Messages are opaque byte payloads
// here — encoding/decoding stays in the executor so byte counters measure
// real wire volume on the loopback path too.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "failure/comm_failure.hpp"

namespace gossip::runtime {

/// One delivered message: proto wire bytes plus addressing and the
/// injected-delay deadline the receiving worker honours.
struct Frame {
  NodeId src;
  NodeId dst;
  std::vector<std::byte> payload;
  std::chrono::steady_clock::time_point deliver_at;
};

/// Shared fault-injection knobs. Latency kind kNone injects no delay.
struct FaultConfig {
  double p_loss = 0.0;
  failure::Latency latency;  ///< in microseconds
  std::uint64_t seed = 1;
};

/// Where delivered frames land. The executor registers one sink that
/// routes to the destination node's worker; the transport may call it
/// from any sending worker thread or from its own receiver thread.
using FrameSink = std::function<void(Frame&&)>;

class Transport {
public:
  /// Rejects latency bounds no delay can satisfy: uniform lo > hi, or an
  /// exponential tail mean of 0.
  explicit Transport(FaultConfig faults);
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Wires the delivery sink; must be called (followed by start())
  /// before any send.
  void set_sink(FrameSink sink) { sink_ = std::move(sink); }

  /// Brings the transport up (socket accept/connect happens here).
  virtual void start() {}

  /// Delivers `payload` from src to dst, applying loss and delay.
  /// Returns false when the loss model dropped the message. Thread-safe.
  virtual bool send(NodeId src, NodeId dst,
                    std::vector<std::byte> payload) = 0;

  /// True when `id` is hosted by this process.
  [[nodiscard]] virtual bool is_local(NodeId id) const = 0;

  /// Cross-process cycle barrier: announce this process finished `cycle`,
  /// and poll whether every peer has. Single-process transports are
  /// always done.
  virtual void announce_cycle_done(std::uint32_t cycle) { (void)cycle; }
  [[nodiscard]] virtual bool peers_done(std::uint32_t cycle) {
    (void)cycle;
    return true;
  }

  /// Tears the transport down; idempotent.
  virtual void shutdown() {}

  [[nodiscard]] std::uint64_t drops() const {
    return drops_.load(std::memory_order_relaxed);
  }

protected:
  /// Applies the fault model: true → message dropped (counted). When not
  /// dropped, `deliver_at` is now + the sampled one-way delay.
  bool fault_drop(std::chrono::steady_clock::time_point& deliver_at);

  /// Hands a surviving frame to the executor's sink.
  void deliver(Frame&& frame) { sink_(std::move(frame)); }

private:
  FrameSink sink_;
  FaultConfig faults_;
  std::mutex fault_mutex_;
  Rng fault_rng_;
  std::atomic<std::uint64_t> drops_{0};
};

/// In-process transport: every node is local, frames go straight to the
/// sink after the fault draw.
class LoopbackTransport final : public Transport {
public:
  explicit LoopbackTransport(FaultConfig faults = {});

  bool send(NodeId src, NodeId dst, std::vector<std::byte> payload) override;
  [[nodiscard]] bool is_local(NodeId) const override { return true; }
};

/// Static placement of the global id space over K processes: near-equal
/// contiguous ranges, process p owning [lo(p), hi(p)).
struct ProcessPartition {
  std::uint32_t nodes = 0;
  std::uint32_t processes = 1;

  [[nodiscard]] std::uint32_t lo(std::uint32_t p) const;
  [[nodiscard]] std::uint32_t hi(std::uint32_t p) const { return lo(p + 1); }
  [[nodiscard]] std::uint32_t owner(std::uint32_t id) const;
};

struct SocketConfig {
  std::uint32_t nodes = 0;          ///< global N
  std::uint32_t processes = 2;      ///< cooperating process count K
  std::uint32_t process_index = 0;  ///< this process's shard in [0, K)
  std::uint16_t port_base = 0;      ///< process p listens on port_base + p
  std::chrono::milliseconds connect_timeout{15000};
};

/// TCP-over-loopback transport between K processes. Frames between local
/// nodes short-circuit through the sink (fault-injected like everything
/// else); frames to remote nodes are written length-prefixed to the peer
/// connection and fault-injected on the receiving side. TCP keeps
/// delivery reliable, so "zero induced loss ⇒ exact conservation" holds
/// across processes too.
class SocketTransport final : public Transport {
public:
  SocketTransport(FaultConfig faults, SocketConfig config);
  ~SocketTransport() override;

  void start() override;
  bool send(NodeId src, NodeId dst, std::vector<std::byte> payload) override;
  [[nodiscard]] bool is_local(NodeId id) const override;
  void announce_cycle_done(std::uint32_t cycle) override;
  [[nodiscard]] bool peers_done(std::uint32_t cycle) override;
  void shutdown() override;

private:
  struct PeerIn {
    int fd = -1;
    std::vector<std::byte> buffer;  ///< partial-frame reassembly
  };

  void receive_loop();
  void handle_frame(std::uint32_t src, std::uint32_t dst, std::uint8_t type,
                    std::vector<std::byte> payload);
  void write_all(std::uint32_t peer, const std::byte* data, std::size_t len);

  SocketConfig config_;
  ProcessPartition partition_;
  int listen_fd_ = -1;
  std::vector<int> out_fds_;                  ///< indexed by peer process
  std::vector<std::unique_ptr<std::mutex>> out_mutexes_;
  std::vector<PeerIn> in_;                    ///< accepted connections
  std::vector<std::atomic<std::int64_t>> peer_done_;  ///< last announced cycle
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread receiver_;
};

}  // namespace gossip::runtime
