#include "runtime/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "common/require.hpp"

namespace gossip::runtime {

namespace {

using Clock = std::chrono::steady_clock;

// Wire frame header between processes (little-endian):
// [u32 payload_len][u32 src][u32 dst][u8 type] payload…
// type 0 carries proto wire bytes between nodes; type 1 is the cycle-done
// control frame (src = sender's process index, dst = the finished cycle,
// empty payload).
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 1;
constexpr std::uint8_t kFrameData = 0;
constexpr std::uint8_t kFrameCycleDone = 1;

// Payloads are single protocol messages; anything bigger than this is a
// corrupt length prefix, not a legal frame.
constexpr std::uint32_t kMaxPayload = 1 << 20;

void put_u32(std::byte* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

// gossip-lint: allow(unchecked-wire-read): definition site — every call
// sits inside the parse loop's kHeaderSize/len guards (receive_loop).
std::uint32_t get_u32(const std::byte* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------- base

Transport::Transport(FaultConfig faults)
    : faults_(faults), fault_rng_(faults_.seed) {
  using Kind = failure::Latency::Kind;
  const failure::Latency& latency = faults_.latency;
  GOSSIP_REQUIRE(latency.kind != Kind::kUniform || latency.lo <= latency.hi,
                 "uniform latency needs lo <= hi");
  GOSSIP_REQUIRE(latency.kind != Kind::kExponential || latency.hi > 0,
                 "exponential latency needs a positive tail mean");
}

bool Transport::fault_drop(Clock::time_point& deliver_at) {
  deliver_at = Clock::now();
  if (faults_.p_loss <= 0.0 &&
      faults_.latency.kind == failure::Latency::Kind::kNone) {
    return false;
  }
  const std::lock_guard lock(fault_mutex_);
  const auto delay =
      failure::message_delay(faults_.p_loss, faults_.latency, fault_rng_);
  if (!delay) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  deliver_at += std::chrono::microseconds(*delay);
  return false;
}

// ------------------------------------------------------------ loopback

LoopbackTransport::LoopbackTransport(FaultConfig faults)
    : Transport(faults) {}

bool LoopbackTransport::send(NodeId src, NodeId dst,
                             std::vector<std::byte> payload) {
  Clock::time_point deliver_at;
  if (fault_drop(deliver_at)) return false;
  deliver(Frame{src, dst, std::move(payload), deliver_at});
  return true;
}

// ----------------------------------------------------------- partition

std::uint32_t ProcessPartition::lo(std::uint32_t p) const {
  const std::uint32_t base = nodes / processes;
  const std::uint32_t rem = nodes % processes;
  return p * base + std::min(p, rem);
}

std::uint32_t ProcessPartition::owner(std::uint32_t id) const {
  GOSSIP_REQUIRE(id < nodes, "node id outside the partitioned id space");
  const std::uint32_t base = nodes / processes;
  const std::uint32_t rem = nodes % processes;
  const std::uint32_t wide = rem * (base + 1);  // ids held by the p < rem ranges
  if (id < wide) return id / (base + 1);
  return rem + (id - wide) / base;
}

// -------------------------------------------------------------- socket

SocketTransport::SocketTransport(FaultConfig faults, SocketConfig config)
    : Transport(faults),
      config_(config),
      partition_{config.nodes, config.processes},
      out_fds_(config.processes, -1),
      peer_done_(config.processes) {
  GOSSIP_REQUIRE(config_.processes >= 2,
                 "socket transport needs >= 2 processes (use loopback)");
  GOSSIP_REQUIRE(config_.process_index < config_.processes,
                 "process_index out of range");
  GOSSIP_REQUIRE(config_.port_base >= 1024, "port_base must be >= 1024");
  for (auto& done : peer_done_) done.store(-1, std::memory_order_relaxed);
  for (std::uint32_t p = 0; p < config_.processes; ++p) {
    out_mutexes_.push_back(std::make_unique<std::mutex>());
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  GOSSIP_REQUIRE(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(config_.port_base + config_.process_index));
  GOSSIP_REQUIRE(
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) == 0,
      "bind() failed — is another runtime process using this port_base?");
  GOSSIP_REQUIRE(::listen(listen_fd_, static_cast<int>(config_.processes)) == 0,
                 "listen() failed");
}

SocketTransport::~SocketTransport() { shutdown(); }

void SocketTransport::start() {
  if (started_) return;
  started_ = true;

  // Connect to every peer, retrying while they come up; our own listener
  // is already bound, so a fleet of processes started in any order meets
  // in the middle.
  const auto deadline = Clock::now() + config_.connect_timeout;
  for (std::uint32_t p = 0; p < config_.processes; ++p) {
    if (p == config_.process_index) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port_base + p));
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      GOSSIP_REQUIRE(fd >= 0, "socket() failed");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        break;
      }
      ::close(fd);
      fd = -1;
      GOSSIP_REQUIRE(Clock::now() < deadline,
                     "timed out connecting to a peer runtime process");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    out_fds_[p] = fd;
  }

  receiver_ = std::thread([this] { receive_loop(); });
}

bool SocketTransport::is_local(NodeId id) const {
  return partition_.owner(id.value()) == config_.process_index;
}

bool SocketTransport::send(NodeId src, NodeId dst,
                           std::vector<std::byte> payload) {
  if (is_local(dst)) {
    Clock::time_point deliver_at;
    if (fault_drop(deliver_at)) return false;
    deliver(Frame{src, dst, std::move(payload), deliver_at});
    return true;
  }
  // Remote: faults are injected on the receiving side (one application
  // per message, like the local path); TCP itself never drops.
  const std::uint32_t peer = partition_.owner(dst.value());
  std::vector<std::byte> frame(kHeaderSize + payload.size());
  put_u32(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32(frame.data() + 4, src.value());
  put_u32(frame.data() + 8, dst.value());
  frame[12] = static_cast<std::byte>(kFrameData);
  std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  write_all(peer, frame.data(), frame.size());
  return true;
}

void SocketTransport::announce_cycle_done(std::uint32_t cycle) {
  std::byte frame[kHeaderSize];
  put_u32(frame, 0);
  put_u32(frame + 4, config_.process_index);
  put_u32(frame + 8, cycle);
  frame[12] = static_cast<std::byte>(kFrameCycleDone);
  for (std::uint32_t p = 0; p < config_.processes; ++p) {
    if (p != config_.process_index) write_all(p, frame, sizeof(frame));
  }
}

bool SocketTransport::peers_done(std::uint32_t cycle) {
  for (std::uint32_t p = 0; p < config_.processes; ++p) {
    if (p == config_.process_index) continue;
    if (peer_done_[p].load(std::memory_order_acquire) <
        static_cast<std::int64_t>(cycle)) {
      return false;
    }
  }
  return true;
}

void SocketTransport::write_all(std::uint32_t peer, const std::byte* data,
                                std::size_t len) {
  const std::lock_guard lock(*out_mutexes_[peer]);
  const int fd = out_fds_[peer];
  GOSSIP_REQUIRE(fd >= 0, "send to a peer process before start()");
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    GOSSIP_REQUIRE(n > 0, "peer runtime process connection broke mid-write");
    off += static_cast<std::size_t>(n);
  }
}

void SocketTransport::handle_frame(std::uint32_t src, std::uint32_t dst,
                                   std::uint8_t type,
                                   std::vector<std::byte> payload) {
  if (type == kFrameCycleDone) {
    GOSSIP_REQUIRE(src < config_.processes,
                   "cycle-done frame from an unknown process index");
    // dst carries the finished cycle. Peers only move forward.
    std::int64_t prev = peer_done_[src].load(std::memory_order_relaxed);
    const auto cycle = static_cast<std::int64_t>(dst);
    while (prev < cycle && !peer_done_[src].compare_exchange_weak(
                               prev, cycle, std::memory_order_release)) {
    }
    return;
  }
  GOSSIP_REQUIRE(type == kFrameData, "unknown inter-process frame type");
  Clock::time_point deliver_at;
  if (fault_drop(deliver_at)) return;
  deliver(Frame{NodeId(src), NodeId(dst), std::move(payload), deliver_at});
}

void SocketTransport::receive_loop() {
  std::vector<std::byte> chunk(64 * 1024);
  while (!stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    const bool accepting = in_.size() + 1 < config_.processes;
    if (accepting) fds.push_back({listen_fd_, POLLIN, 0});
    for (const PeerIn& peer : in_) fds.push_back({peer.fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
    if (ready <= 0) continue;

    std::size_t fi = 0;
    if (accepting) {
      if ((fds[fi].revents & POLLIN) != 0) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          in_.push_back(PeerIn{fd, {}});
        }
      }
      ++fi;
    }
    for (std::size_t i = 0; i < in_.size() && fi + i < fds.size(); ++i) {
      if ((fds[fi + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      PeerIn& peer = in_[i];
      const ssize_t n = ::recv(peer.fd, chunk.data(), chunk.size(), 0);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
      }
      if (n <= 0) {
        // Peer closed: it finished (or died — its missing results fail
        // the orchestration, not this process's barrier).
        ::close(peer.fd);
        peer.fd = -1;
        for (auto& done : peer_done_) {
          done.store(std::numeric_limits<std::int64_t>::max(),
                     std::memory_order_release);
        }
        in_.erase(in_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      peer.buffer.insert(peer.buffer.end(), chunk.begin(), chunk.begin() + n);
      // Parse every complete frame in the reassembly buffer.
      std::size_t off = 0;
      while (peer.buffer.size() - off >= kHeaderSize) {
        const std::uint32_t len = get_u32(peer.buffer.data() + off);
        GOSSIP_REQUIRE(len <= kMaxPayload,
                       "inter-process frame length prefix is corrupt");
        if (peer.buffer.size() - off < kHeaderSize + len) break;
        const std::uint32_t src = get_u32(peer.buffer.data() + off + 4);
        const std::uint32_t dst = get_u32(peer.buffer.data() + off + 8);
        const auto type = std::to_integer<std::uint8_t>(peer.buffer[off + 12]);
        std::vector<std::byte> payload(
            peer.buffer.begin() + static_cast<std::ptrdiff_t>(off + kHeaderSize),
            peer.buffer.begin() +
                static_cast<std::ptrdiff_t>(off + kHeaderSize + len));
        handle_frame(src, dst, type, std::move(payload));
        off += kHeaderSize + len;
      }
      peer.buffer.erase(peer.buffer.begin(),
                        peer.buffer.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
}

void SocketTransport::shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  if (receiver_.joinable()) receiver_.join();
  for (int& fd : out_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  for (PeerIn& peer : in_) {
    if (peer.fd >= 0) ::close(peer.fd);
    peer.fd = -1;
  }
  in_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace gossip::runtime
