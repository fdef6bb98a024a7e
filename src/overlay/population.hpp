// Live/dead membership of a simulated network with O(1) kill, join and
// uniform sampling of live nodes.
//
// Node ids are dense and never reused: per-node protocol state lives in
// arrays indexed by NodeId that only ever grow. This is what the churn
// experiments (fig. 6b) need — every replacement node is a brand-new
// identity that must not inherit the estimate of the node it replaces.
//
// Both cycle engines and the runtime executor run on this one live set.
// The serial driver kills one node at a time (kill's swap-remove); the
// intra-rep engine and the executor retire each cycle's victims in one
// batch (kill_range_batch / kill_uniform_batch, through kill_many's
// stable compaction, whose count and scatter passes fan out through the
// ParallelFor it is given). The batch path never reorders survivors, so a
// set edited only by add() and batch kills keeps live() ascending, and
// one seed names the same victims on every host of it. Every mutation is
// issued from the driver thread between the hosts' parallel phases, so
// the class takes no locks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/node_id.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"

namespace gossip::overlay {

/// Minimal executor seam: run job(0) … job(count-1), possibly in
/// parallel. Kept as a std::function so the overlay layer does not
/// depend on the experiment engine's thread pool.
using ParallelFor =
    std::function<void(std::size_t count,
                       const std::function<void(std::size_t)>& job)>;

class Population {
public:
  /// Starts with `initial` live nodes, ids [0, initial).
  explicit Population(std::uint32_t initial);

  /// Adds a brand-new live node and returns its id (== total() - 1).
  NodeId add();

  /// Reserves room for `total` ids, so joins up to that many ids never
  /// reallocate.
  void reserve(std::size_t total) {
    live_.reserve(total);
    position_.reserve(total);
  }

  /// Marks a live node as crashed. O(1).
  void kill(NodeId id);

  /// Kills every live node with id in [lo, hi), scanning ids in ascending
  /// order, but at most `max_kills` of them. Returns the number killed.
  /// This is the correlated-wave primitive: the block defines *which*
  /// nodes die, the budget keeps the caller's survivor guarantee.
  std::uint32_t kill_range(std::uint32_t lo, std::uint32_t hi,
                           std::uint32_t max_kills);

  /// Retires a whole batch of distinct live victims at once via a stable
  /// compaction: survivors keep their relative live-list order (kill()
  /// swap-removes instead), so the resulting state is a pure function of
  /// (previous state, victim set). The survivor count and scatter passes
  /// split the live list into `chunks` slices run through `par` (serially
  /// when null); the result is the same for any chunk count and schedule.
  void kill_many(std::span<const NodeId> victims, unsigned chunks = 1,
                 const ParallelFor* par = nullptr);

  /// kill_range's victims — the live ids in [lo, hi), ascending, at most
  /// `max_kills` — retired in one kill_many. Returns the number killed.
  std::uint32_t kill_range_batch(std::uint32_t lo, std::uint32_t hi,
                                 std::uint32_t max_kills, unsigned chunks = 1,
                                 const ParallelFor* par = nullptr);

  /// Retires the nodes at live-list positions
  /// rng.sample_distinct(live_count(), kills) in one kill_many: one
  /// distinct-position draw in place of kill()'s draw-kill-draw.
  void kill_uniform_batch(std::uint32_t kills, Rng& rng, unsigned chunks = 1,
                          const ParallelFor* par = nullptr);

  [[nodiscard]] bool alive(NodeId id) const {
    GOSSIP_REQUIRE(id.is_valid() && id.value() < total(),
                   "alive() id out of range");
    return position_[id.value()] != kDead;
  }

  /// alive() without the range check, for per-node hot loops whose ids
  /// provably come from this population (live list walks, ids already
  /// range-checked against total()).
  [[nodiscard]] bool alive_unchecked(NodeId id) const noexcept {
    return position_[id.value()] != kDead;
  }

  /// Number of ids ever issued (live + dead).
  [[nodiscard]] std::uint32_t total() const {
    return static_cast<std::uint32_t>(position_.size());
  }

  [[nodiscard]] std::uint32_t live_count() const {
    return static_cast<std::uint32_t>(live_.size());
  }

  /// Live ids: ascending while only add() and the batch kills edit the
  /// set; kill() swap-removes.
  [[nodiscard]] const std::vector<NodeId>& live() const { return live_; }

  /// Uniform random live node. Requires at least one live node.
  NodeId sample_live(Rng& rng) const;

  /// Uniform random live node different from `self` (which may itself be
  /// dead). Requires at least one such node; returns invalid() when the
  /// only live node is `self`. The rejection loop is bounded: after
  /// kMaxRejections collisions with `self` it switches to an exact O(1)
  /// skip-one draw, so the call can never spin regardless of the live-set
  /// shape.
  NodeId sample_live_other(NodeId self, Rng& rng) const;

  /// Rejection budget of sample_live_other before the deterministic
  /// fallback. With >= 2 live nodes a collision has probability <= 1/2,
  /// so the fallback fires with probability <= 2^-64 per call — the
  /// goldens pinned against the unbounded loop are unaffected.
  static constexpr int kMaxRejections = 64;

private:
  static constexpr std::uint32_t kDead = static_cast<std::uint32_t>(-1);

  /// Stages kill_range's victims in victims_.
  void stage_range(std::uint32_t lo, std::uint32_t hi,
                   std::uint32_t max_kills);

  std::vector<NodeId> live_;            // compact list of live ids
  std::vector<std::uint32_t> position_;  // id -> index in live_, or kDead
  std::vector<NodeId> victims_;          // batch kill staging
  std::vector<NodeId> compact_;          // kill_many scatter target
  std::vector<std::size_t> chunk_offsets_;  // kill_many survivor prefix sums
};

}  // namespace gossip::overlay
