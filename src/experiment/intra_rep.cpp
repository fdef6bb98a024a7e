#include "experiment/intra_rep.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/stream_salt.hpp"
#include "experiment/parallel_runner.hpp"
#include "stats/reduction.hpp"

namespace gossip::experiment {

namespace {
// Phase salts keeping the newscast and aggregation draws of one (cycle,
// node) on independent streams live in the compile-time registry
// (common/stream_salt.hpp): salt::kIntraRepNewscast / salt::kIntraRepAgg
// plus the round-mixing helpers, distinctness static_assert-checked.

/// The intra-rep engine's own limits, checked before the core builds
/// the topology.
SimConfig checked(const SimConfig& config) {
  GOSSIP_REQUIRE(config.match_rounds >= 1,
                 "need at least one match round per cycle");
  return config;
}
}  // namespace

void sort_by_key(std::vector<std::uint64_t>& words,
                 std::vector<std::uint64_t>& scratch) {
  constexpr unsigned kPasses = 3;
  constexpr unsigned kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const auto digit = [](std::uint64_t w, unsigned pass) {
    return static_cast<std::size_t>(w >> (32 + pass * kDigitBits)) &
           (kBuckets - 1);
  };
  // One read pass counts all three digits; each counting pass then
  // scatters in input order, which is what keeps the sort stable.
  std::vector<std::size_t> offsets(kPasses * kBuckets, 0);
  for (const std::uint64_t w : words) {
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      ++offsets[pass * kBuckets + digit(w, pass)];
    }
  }
  scratch.resize(words.size());
  for (unsigned pass = 0; pass < kPasses; ++pass) {
    std::size_t* next = &offsets[pass * kBuckets];
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      sum += std::exchange(next[b], sum);
    }
    for (const std::uint64_t w : words) scratch[next[digit(w, pass)]++] = w;
    words.swap(scratch);
  }
}

IntraRepSimulation::IntraRepSimulation(const SimConfig& config,
                                       std::uint64_t seed, unsigned shards,
                                       const overlay::ParallelFor* bootstrap)
    : SimulationCore(checked(config), Rng(seed), bootstrap),
      seed_(seed),
      // Degenerate-geometry guard: more shards than nodes would only
      // schedule empty per-shard jobs every phase (`--set shards=4096`
      // against N=8). Shard count is semantically invisible — output is
      // bit-identical for any value — so clamping to N never changes a
      // result.
      shards_(std::max(1u, std::min(shards, config.nodes))),
      combine_scratch_(shards_),
      par_([this](std::size_t count,
                  const std::function<void(std::size_t)>& job) {
        par_run(count, job);
      }) {}

void IntraRepSimulation::par_run(
    std::size_t count, const std::function<void(std::size_t)>& job) {
  if (profile_ == nullptr) {
    pool_->run(count, job);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  pool_->run(count, job);
  profile_->parallel_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

std::uint32_t IntraRepSimulation::kill_range(std::uint32_t lo,
                                             std::uint32_t hi,
                                             std::uint32_t max_kills) {
  return population_.kill_range_batch(lo, hi, max_kills, shards_, &par_);
}

void IntraRepSimulation::kill_uniform(std::uint32_t kills) {
  population_.kill_uniform_batch(kills, rng_, shards_, &par_);
}

void IntraRepSimulation::apply_drift(std::uint32_t cycle) {
  par_run(shards_, [&](std::size_t s) {
    const auto [lo, hi] = id_range(static_cast<unsigned>(s));
    drift_range(cycle, lo, hi);
  });
}

template <typename Sampler>
void IntraRepSimulation::propose(std::uint32_t cycle, std::uint64_t salt,
                                 bool draw_outcome, bool participants_only,
                                 const Sampler& sampler) {
  par_run(shards_, [&](std::size_t s) {
    const auto [lo, hi] = id_range(static_cast<unsigned>(s));
    for (std::uint32_t u = lo; u < hi; ++u) {
      const NodeId p(u);
      if (!population_.alive_unchecked(p)) continue;
      if (participants_only && !participating(p)) continue;
      Rng stream = node_stream(cycle, u, salt);
      // kCandidates proposals per node: the trailing ones are fallbacks
      // the match resolution turns to when an earlier choice is alive
      // but already claimed. Extra candidates sharply cut the nodes a
      // round leaves unmatched, and the matched fraction is what the
      // per-round convergence factor hinges on.
      NodeId* cand = &proposals_[static_cast<std::size_t>(u) * kCandidates];
      for (unsigned c = 0; c < kCandidates; ++c) {
        cand[c] = sampler.sample(p, stream);
      }
      if (draw_outcome && cand[0].is_valid()) {
        outcome_[u] = static_cast<std::uint8_t>(config_.comm.sample(stream));
      }
      // The match priority key (31 bits; the intra-rep goldens pin this
      // exact draw). A fresh pseudorandom order per (cycle, round) plays
      // the role the serial driver's per-cycle permutation plays: without
      // it the same low-priority nodes find every candidate claimed round
      // after round — persistent stragglers whose deviation dominates
      // late-cycle variance.
      key_[u] = static_cast<std::uint32_t>(stream() >> 33);
    }
  });
}

void IntraRepSimulation::match(bool participants_only) {
  // Greedy matching in priority order: nodes are taken by (key, id), and
  // each still-unmatched node claims its first candidate that is unmatched
  // at its turn, with the §4.2 break-on-dead rule. The pair set is a pure
  // function of (keys, proposals, liveness) — state keyed by node id,
  // never by the decomposition — so shards, threads and shards emptied by
  // a mass crash are invisible. The sort and scan are serial on purpose:
  // the scan visits each active node once with a few plain loads, while
  // parallel deterministic reservations (Blelloch et al., PPoPP 2012),
  // which commit exactly these pairs, revisit every node over several
  // contended CAS rounds and measured slower on 4 cores.
  const std::uint32_t total = population_.total();
  active_.resize(shards_);

  // Init pass: per-node match state, candidate-list truncation (the
  // break conditions — invalid/self/dead/refusing — depend only on
  // state frozen for the whole match), and the per-shard active lists
  // as (key << 32) | id sort words, ascending in id.
  par_run(shards_, [&](std::size_t s) {
    const auto [lo, hi] = id_range(static_cast<unsigned>(s));
    // Filled as a local: the shards' vector headers share cache lines,
    // and a push_back through active_[s] would write them every node.
    std::vector<std::uint64_t> active = std::move(active_[s]);
    active.clear();
    for (std::uint32_t u = lo; u < hi; ++u) {
      matched_[u] = 0;
      partner_[u] = NodeId::invalid();
      initiator_[u] = 0;
      const NodeId p(u);
      if (!population_.alive_unchecked(p)) {
        ncand_[u] = 0;
        continue;
      }
      const bool proposer =
          !participants_only || participating(p);
      const NodeId* cand =
          &proposals_[static_cast<std::size_t>(u) * kCandidates];
      std::uint8_t n = 0;
      if (proposer) {
        for (; n < kCandidates; ++n) {
          const NodeId q = cand[n];
          // An invalid, self, crashed or refusing (non-participating)
          // candidate ends the attempt: the timeout / refusal already
          // cost p its round, exactly as in the serial driver's §4.2
          // semantics. Only an alive-but-claimed peer falls through to
          // the next view entry.
          if (!q.is_valid() || q == p || q.value() >= total) break;
          if (!population_.alive_unchecked(q)) break;
          if (participants_only && !participating(q)) break;
        }
      }
      ncand_[u] = n;
      if (n > 0) {
        active.push_back((static_cast<std::uint64_t>(key_[u]) << 32) | u);
      }
    }
    active_[s] = std::move(active);
  });

  // The shard lists concatenate in id order, and the stable key sort
  // keeps that order among equal keys: the scan order is (key, id).
  order_.clear();
  for (const auto& active : active_) {
    order_.insert(order_.end(), active.begin(), active.end());
  }
  sort_by_key(order_, sort_scratch_);

  // The scan visits nodes in key order, i.e. at random ids: prefetch the
  // proposal row a few nodes ahead, as apply_pairs prefetches its pairs.
  constexpr std::size_t kPrefetchAhead = 8;
  const std::size_t count = order_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kPrefetchAhead < count) {
      const std::size_t ahead =
          static_cast<std::uint32_t>(order_[i + kPrefetchAhead]);
      __builtin_prefetch(&proposals_[ahead * kCandidates], /*rw=*/0,
                         /*locality=*/1);
    }
    const auto u = static_cast<std::uint32_t>(order_[i]);
    if (matched_[u]) continue;  // claimed by an earlier node
    const NodeId* cand =
        &proposals_[static_cast<std::size_t>(u) * kCandidates];
    for (std::uint8_t c = 0; c < ncand_[u]; ++c) {
      const std::uint32_t q = cand[c].value();
      if (matched_[q]) continue;
      matched_[u] = 1;
      matched_[q] = 1;
      partner_[u] = NodeId(q);
      partner_[q] = NodeId(u);
      initiator_[u] = 1;
      break;
    }
  }

  collect_pairs();
}

void IntraRepSimulation::collect_pairs() {
  // Gather the committed pairs in global initiator-id order: per-shard
  // counts, an O(shards) exclusive prefix, then a parallel scatter — the
  // resulting pairs_ content (and order) is a pure function of the
  // matching, not of the decomposition.
  pair_offsets_.assign(shards_ + 1, 0);
  par_run(shards_, [&](std::size_t s) {
    const auto [lo, hi] = id_range(static_cast<unsigned>(s));
    std::size_t count = 0;
    for (std::uint32_t u = lo; u < hi; ++u) count += initiator_[u];
    pair_offsets_[s + 1] = count;
  });
  for (unsigned s = 0; s < shards_; ++s) {
    pair_offsets_[s + 1] += pair_offsets_[s];
  }
  pairs_.resize(pair_offsets_[shards_]);
  par_run(shards_, [&](std::size_t s) {
    const auto [lo, hi] = id_range(static_cast<unsigned>(s));
    std::size_t w = pair_offsets_[s];
    for (std::uint32_t u = lo; u < hi; ++u) {
      if (initiator_[u]) pairs_[w++] = {NodeId(u), partner_[u]};
    }
  });
}

void IntraRepSimulation::newscast_round(std::uint32_t cycle,
                                        std::uint32_t round,
                                        std::uint64_t now) {
  // One matched membership sub-round (all rounds of a cycle share the
  // same logical time, so descriptor aging stays per-cycle). A single
  // matching gives every node at most one cache merge per cycle — far
  // less view mixing than the serial run_cycle, where a node serves
  // several initiators — and under-mixed caches leave the aggregation
  // rounds drawing correlated partners: without a membership round per
  // aggregation round, extra aggregation rounds stop paying on NEWSCAST
  // (the factor stalls near 0.48 instead of compounding).
  // The round multiplier must differ from node_stream's cycle and node
  // multipliers — reusing one would let (cycle, round) pairs collide to
  // the same per-node stream (e.g. cycle 0 round 3 vs cycle 2 round 1);
  // the stream-salt registry static_asserts that distinctness.
  const std::uint64_t salt = salt::newscast_round_salt(round);
  membership::NewscastNetwork& newscast = *overlay_.newscast;
  propose(cycle, salt, /*draw_outcome=*/false,
          /*participants_only=*/false,
          membership::NewscastPeerSampler(newscast));
  match(/*participants_only=*/false);
  // Pairs are disjoint, so chunked application with per-chunk merge
  // buffers writes disjoint cache slots — race-free without locks, and
  // chunk boundaries cannot influence any merge result. Because of that
  // invariance the chunk count follows the *worker* count, not the shard
  // count: each MergeBuffers carries one dedup byte per registered id,
  // and sizing them by the shard count would be pure memory waste when
  // only pool_->threads() jobs ever run at once.
  const std::size_t chunks =
      std::min<std::size_t>(shards_, std::max(1u, pool_->threads()));
  if (merge_buffers_.size() < chunks) merge_buffers_.resize(chunks);
  const std::size_t count = pairs_.size();
  const bool pollute = pollutes_caches();
  par_run(chunks, [&](std::size_t s) {
    auto& buffers = merge_buffers_[s];
    const std::size_t lo = count * s / chunks;
    const std::size_t hi = count * (s + 1) / chunks;
    // Same software pipeline as the serial driver's run_cycle: the
    // N≥10⁴ entry pool misses cache on both slots of every exchange, so
    // the next pair's slots are prefetched while the current pair
    // merges. Purely a latency hint — merge order is unchanged.
    if (lo < hi) {
      newscast.prefetch_slots(pairs_[lo].first, pairs_[lo].second);
    }
    for (std::size_t k = lo; k < hi; ++k) {
      if (k + 1 < hi) {
        newscast.prefetch_slots(pairs_[k + 1].first, pairs_[k + 1].second);
      }
      const auto [a, b] = pairs_[k];
      if (pollute && (byz_[a.value()] || byz_[b.value()])) {
        // A polluting side advertises only itself (exchange_partial
        // touches just this pair's slots, so chunking stays race-free).
        newscast.exchange_partial(buffers, a, b, now, byz_[a.value()] == 0,
                                  byz_[b.value()] == 0);
      } else {
        newscast.exchange(buffers, a, b, now);
      }
    }
  });
}

void IntraRepSimulation::apply_pairs(std::uint32_t cycle) {
  const std::size_t count = pairs_.size();
  const std::uint32_t t = config_.instances;
  const bool partitioned = config_.partition.active(cycle);
  par_run(shards_, [&](std::size_t s) {
    const std::size_t lo = count * s / shards_;
    const std::size_t hi = count * (s + 1) / shards_;
    // One-pair-ahead prefetch of both estimate rows (and the outcome
    // byte), mirroring the apply pipeline of the serial driver: the
    // updates themselves are two dependent random rows per pair, which
    // is exactly the latency-bound pattern at N ≥ 10⁴.
    const auto prefetch_pair = [&](std::size_t k) {
      const auto [p, q] = pairs_[k];
      __builtin_prefetch(&estimates_[static_cast<std::size_t>(p.value()) * t],
                         /*rw=*/1, /*locality=*/1);
      __builtin_prefetch(&estimates_[static_cast<std::size_t>(q.value()) * t],
                         /*rw=*/1, /*locality=*/1);
      __builtin_prefetch(&outcome_[p.value()], /*rw=*/0, /*locality=*/1);
    };
    if (lo < hi) prefetch_pair(lo);
    for (std::size_t k = lo; k < hi; ++k) {
      if (k + 1 < hi) prefetch_pair(k + 1);
      const auto [p, q] = pairs_[k];
      // Outcomes are pre-drawn, so the partition filter perturbs no
      // random stream. Pairs are disjoint, so every write is race-free
      // and the result depends only on the pair — shard/thread-invariant.
      if (severed(partitioned, p.value(), q.value())) continue;
      exchange(p.value(), q.value(),
               static_cast<failure::ExchangeOutcome>(outcome_[p.value()]),
               combine_scratch_[s]);
    }
  });
}

void IntraRepSimulation::aggregation_round(std::uint32_t cycle,
                                           std::uint32_t round) {
  // One independent propose/match/apply round: fresh proposals
  // (round-salted streams) resolve into a disjoint matching, applied
  // before the next round samples — so round r+1 mixes the values round
  // r produced.
  const std::uint64_t salt = salt::agg_round_salt(round);
  // One variant visit per round; propose is stamped out per concrete
  // sampler so GETNEIGHBOR() inlines into the per-node loop.
  std::visit(
      [&](const auto& sampler) {
        propose(cycle, salt, /*draw_outcome=*/true,
                /*participants_only=*/true, sampler);
      },
      sampler_);
  match(/*participants_only=*/true);
  apply_pairs(cycle);
}

void IntraRepSimulation::exchange_cycle(std::uint32_t cycle) {
  const std::uint32_t total = population_.total();
  proposals_.resize(static_cast<std::size_t>(total) * kCandidates,
                    NodeId::invalid());
  outcome_.resize(total, 0);
  key_.resize(total, 0);
  matched_.resize(total, 0);
  partner_.resize(total, NodeId::invalid());
  initiator_.resize(total, 0);
  ncand_.resize(total, 0);
  // Matched sub-rounds: `match_rounds` membership rounds (NEWSCAST
  // needs the extra view mixing — a single matching merges each cache
  // at most once per cycle, and under-mixed views leave aggregation
  // partners correlated across rounds), then `match_rounds`
  // aggregation rounds, each applied before the next draws.
  for (std::uint32_t round = 0; round < config_.match_rounds; ++round) {
    if (overlay_.newscast) newscast_round(cycle, round, cycle + 1);
  }
  for (std::uint32_t round = 0; round < config_.match_rounds; ++round) {
    aggregation_round(cycle, round);
  }
}

void IntraRepSimulation::record_stats() {
  // Parallel per-segment pass over the *fixed* kStatsSegments id-space
  // decomposition (never the shard count — Chan merges are not
  // associative in floating point, so the partial shapes must be
  // constant), folded per lane through stats::merge_tree's fixed-shape
  // reduction. Every instance lane is recorded: multi-instance runs
  // (figs. 6/8) carry one variance trajectory per concurrent aggregate.
  const std::uint32_t t = config_.instances;
  const std::uint32_t total = population_.total();
  const bool track_values = !values_.empty();
  // Allocated once and cleared inside the parallel pass, so no serial
  // pass re-zeroes kStatsSegments × t streams every cycle.
  seg_stats_.resize(kStatsSegments);
  if (track_values && val_seg_stats_.size() != kStatsSegments) {
    val_seg_stats_.resize(kStatsSegments);
  }
  par_run(kStatsSegments, [&](std::size_t s) {
    const std::uint32_t lo = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(total) * s / kStatsSegments);
    const std::uint32_t hi = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(total) * (s + 1) / kStatsSegments);
    stats::LaneStats& seg = seg_stats_[s];
    seg.reset(t);
    for (std::uint32_t u = lo; u < hi; ++u) {
      const NodeId p(u);
      if (!population_.alive_unchecked(p) || !counted(p)) continue;
      seg.add(&estimates_[static_cast<std::size_t>(u) * t]);
    }
    if (track_values) {
      // Second fold input: the underlying values over the same counted
      // population — same fixed segments, same merge_tree shape, so the
      // true mean is shard/thread-invariant like every other statistic.
      stats::RunningStats vs;
      for (std::uint32_t u = lo; u < hi; ++u) {
        const NodeId p(u);
        if (!population_.alive_unchecked(p) || !counted(p)) continue;
        vs.add(values_[u]);
      }
      val_seg_stats_[s] = vs;
    }
  });
  lane_scratch_.resize(kStatsSegments);
  std::vector<stats::RunningStats> lanes(t);
  for (std::uint32_t i = 0; i < t; ++i) {
    for (std::uint32_t s = 0; s < kStatsSegments; ++s) {
      lane_scratch_[s] = seg_stats_[s].lane(i);
    }
    lanes[i] = stats::merge_tree(lane_scratch_);
  }
  record_snapshot(std::move(lanes),
                  track_values ? stats::merge_tree(val_seg_stats_).mean()
                               : 0.0);
}

void IntraRepSimulation::run(const failure::FailurePlan& plan,
                             ParallelRunner& pool) {
  const auto run_start = std::chrono::steady_clock::now();
  pool_ = &pool;
  run_cycles(plan);
  pool_ = nullptr;
  if (profile_ != nullptr) {
    profile_->total_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
  }
}

}  // namespace gossip::experiment
