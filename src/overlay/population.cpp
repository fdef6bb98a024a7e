#include "overlay/population.hpp"

#include <utility>

namespace gossip::overlay {

Population::Population(std::uint32_t initial) {
  live_.reserve(initial);
  position_.reserve(initial);
  for (std::uint32_t i = 0; i < initial; ++i) {
    live_.emplace_back(i);
    position_.push_back(i);
  }
}

NodeId Population::add() {
  const NodeId id(total());
  position_.push_back(live_count());
  live_.push_back(id);
  return id;
}

void Population::kill(NodeId id) {
  GOSSIP_REQUIRE(id.is_valid() && id.value() < total(),
                 "kill() id out of range");
  const std::uint32_t pos = position_[id.value()];
  GOSSIP_REQUIRE(pos != kDead, "kill() on an already dead node");
  const NodeId moved = live_.back();
  live_[pos] = moved;
  position_[moved.value()] = pos;
  live_.pop_back();
  position_[id.value()] = kDead;
}

void Population::stage_range(std::uint32_t lo, std::uint32_t hi,
                             std::uint32_t max_kills) {
  // Serial and in ascending id order: the victim set is a pure function
  // of the live set, whatever retires it.
  victims_.clear();
  const std::uint32_t end = hi < total() ? hi : total();
  for (std::uint32_t id = lo; id < end && victims_.size() < max_kills; ++id) {
    if (position_[id] != kDead) victims_.emplace_back(id);
  }
}

std::uint32_t Population::kill_range(std::uint32_t lo, std::uint32_t hi,
                                     std::uint32_t max_kills) {
  stage_range(lo, hi, max_kills);
  for (const NodeId v : victims_) kill(v);
  return static_cast<std::uint32_t>(victims_.size());
}

std::uint32_t Population::kill_range_batch(std::uint32_t lo, std::uint32_t hi,
                                           std::uint32_t max_kills,
                                           unsigned chunks,
                                           const ParallelFor* par) {
  stage_range(lo, hi, max_kills);
  kill_many(victims_, chunks, par);
  return static_cast<std::uint32_t>(victims_.size());
}

void Population::kill_uniform_batch(std::uint32_t kills, Rng& rng,
                                    unsigned chunks, const ParallelFor* par) {
  victims_.clear();
  for (const std::uint64_t pos : rng.sample_distinct(live_count(), kills)) {
    victims_.push_back(live_[pos]);
  }
  kill_many(victims_, chunks, par);
}

void Population::kill_many(std::span<const NodeId> victims, unsigned chunks,
                           const ParallelFor* par) {
  if (victims.empty()) return;
  GOSSIP_REQUIRE(chunks >= 1, "kill_many() needs at least one chunk");
  GOSSIP_REQUIRE(victims.size() <= live_.size(),
                 "kill_many() exceeds the live population");
  // Mark (serial, O(victims)). A repeated victim trips the already-dead
  // requirement, so distinctness comes for free.
  for (NodeId v : victims) {
    GOSSIP_REQUIRE(v.is_valid() && v.value() < total(),
                   "kill_many() id out of range");
    GOSSIP_REQUIRE(position_[v.value()] != kDead,
                   "kill_many() on an already dead node");
    position_[v.value()] = kDead;
  }

  const std::size_t n = live_.size();
  const auto bounds = [n, chunks](std::size_t c) {
    return std::pair<std::size_t, std::size_t>{n * c / chunks,
                                               n * (c + 1) / chunks};
  };
  const auto run = [&](const std::function<void(std::size_t)>& job) {
    if (par != nullptr) {
      (*par)(chunks, job);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) job(c);
    }
  };

  // Count the survivors of each chunk of the live list.
  chunk_offsets_.assign(chunks + 1, 0);
  run([&](std::size_t c) {
    const auto [lo, hi] = bounds(c);
    std::size_t kept = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      kept += position_[live_[i].value()] != kDead;
    }
    chunk_offsets_[c + 1] = kept;
  });
  for (unsigned c = 0; c < chunks; ++c) {
    chunk_offsets_[c + 1] += chunk_offsets_[c];
  }

  // Stable scatter of the survivors and position rebuild. Writes are
  // disjoint by construction: chunk c owns output slots
  // [chunk_offsets_[c], chunk_offsets_[c + 1]).
  compact_.resize(chunk_offsets_[chunks]);
  run([&](std::size_t c) {
    const auto [lo, hi] = bounds(c);
    std::size_t out = chunk_offsets_[c];
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId id = live_[i];
      if (position_[id.value()] == kDead) continue;
      compact_[out] = id;
      position_[id.value()] = static_cast<std::uint32_t>(out);
      ++out;
    }
  });
  live_.swap(compact_);
}

NodeId Population::sample_live(Rng& rng) const {
  GOSSIP_REQUIRE(!live_.empty(), "sample_live() on an empty population");
  return live_[rng.below(live_.size())];
}

NodeId Population::sample_live_other(NodeId self, Rng& rng) const {
  GOSSIP_REQUIRE(!live_.empty(), "sample_live_other() on empty population");
  if (live_.size() == 1 && live_.front() == self) return NodeId::invalid();
  for (int attempt = 0; attempt < kMaxRejections; ++attempt) {
    const NodeId pick = live_[rng.below(live_.size())];
    if (pick != self) return pick;
  }
  // Only a live `self` can collide, and the 1-live case returned above,
  // so here live_.size() >= 2 and self occupies one known slot: draw
  // uniformly over the other slots and skip past it.
  const std::uint32_t self_pos = position_[self.value()];
  std::uint64_t idx = rng.below(live_.size() - 1);
  if (idx >= self_pos) ++idx;
  return live_[idx];
}

}  // namespace gossip::overlay
