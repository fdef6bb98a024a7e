#include "experiment/cycle_sim.hpp"

namespace gossip::experiment {

std::uint32_t CycleSimulation::kill_range(std::uint32_t lo, std::uint32_t hi,
                                          std::uint32_t max_kills) {
  return population_.kill_range(lo, hi, max_kills);
}

void CycleSimulation::kill_uniform(std::uint32_t kills) {
  for (std::uint32_t k = 0; k < kills; ++k) {
    population_.kill(population_.sample_live(rng_));
  }
}

void CycleSimulation::apply_drift(std::uint32_t cycle) {
  drift_range(cycle, 0, population_.total());
}

void CycleSimulation::exchange_cycle(std::uint32_t cycle) {
  if (overlay_.newscast) {
    overlay_.newscast->run_cycle(population_, cycle + 1, rng_,
                                 pollutes_caches() ? &byz_ : nullptr);
  }
  // One variant visit per cycle; the loop body is stamped out per
  // concrete sampler so GETNEIGHBOR() fully inlines.
  std::visit(
      [this, cycle](const auto& sampler) {
        aggregation_cycle_with(sampler, cycle);
      },
      sampler_);
}

template <typename Sampler>
void CycleSimulation::aggregation_cycle_with(const Sampler& sampler,
                                             std::uint32_t cycle) {
  // The per-cycle permutation reuses a member scratch buffer: at N=100k
  // the old copy-construct allocated 400 KB per cycle per rep.
  const auto& live = population_.live();
  order_scratch_.assign(live.begin(), live.end());
  rng_.shuffle(order_scratch_);
  const std::uint32_t total = population_.total();
  const bool partitioned = config_.partition.active(cycle);
  for (NodeId p : order_scratch_) {
    if (!population_.alive_unchecked(p) || !participating(p)) continue;
    const NodeId q = sampler.sample(p, rng_);
    if (!q.is_valid() || q == p) continue;
    // Timeout (§4.2): crashed peers never answer. Joiners refuse
    // exchanges of the running epoch — the paper equates this with link
    // failure.
    if (q.value() >= total || !population_.alive_unchecked(q) ||
        !participating(q)) {
      continue;
    }
    // Checked before the comm draw, so an inactive partition perturbs
    // neither the RNG stream nor any golden.
    if (severed(partitioned, p.value(), q.value())) continue;
    exchange(p.value(), q.value(), config_.comm.sample(rng_),
             combine_scratch_);
  }
}

void CycleSimulation::record_stats() {
  // One Welford stream per lane over the counted live nodes in live-list
  // order — the stream the serial goldens are pinned against.
  const std::uint32_t t = config_.instances;
  const bool track_values = !values_.empty();
  stats::LaneStats lanes(t);
  stats::RunningStats values;
  for (NodeId u : population_.live()) {
    if (!counted(u)) continue;
    lanes.add(&estimates_[static_cast<std::size_t>(u.value()) * t]);
    if (track_values) values.add(values_[u.value()]);
  }
  record_snapshot(lanes.split(), values.mean());
}

}  // namespace gossip::experiment
