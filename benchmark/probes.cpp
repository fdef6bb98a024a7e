#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/update.hpp"
#include "membership/newscast.hpp"
#include "membership/newscast_cache.hpp"
#include "overlay/population.hpp"
#include "proto/wire.hpp"
#include "runtime/transport.hpp"
#include "stats/running_stats.hpp"
#include "stats/summary.hpp"

namespace gossip::bench {
namespace {

/// Keeps the compiler from discarding work whose result is never read.
void keep(const void* p) { __asm__ volatile("" : : "r"(p) : "memory"); }

/// Runs `batch` (which performs `ops` operations) at least `min_batches`
/// times and until `min_seconds` have passed, at most `max_batches` times;
/// returns the median nanoseconds per operation.
template <typename Fn>
double median_ns_per_op(double ops, double min_seconds, int min_batches,
                        int max_batches, Fn&& batch) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_batches ||
         (seconds_since(start) < min_seconds &&
          static_cast<int>(samples.size()) < max_batches)) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(seconds_since(t0) * 1e9 / ops);
  }
  return stats::summarize(samples).median;
}

void membership_probes(const ProbeShape& shape, Rng& rng, Tracer& tracer,
                       std::uint32_t parent,
                       std::map<std::string, double>& out) {
  const std::uint32_t n = shape.nodes;
  std::unique_ptr<membership::NewscastNetwork> net;
  {
    // The simulators' set-up wall at large N: one serial N·c loop.
    ScopedSpan span(&tracer, "probe.membership.bootstrap", parent);
    out["membership.bootstrap_s"] =
        1e-9 * median_ns_per_op(1, 0.3, 1, 9, [&] {
          net = std::make_unique<membership::NewscastNetwork>(
              shape.cache_size);
          net->bootstrap_random(n, 0, rng);
        });
  }
  std::uint64_t now = 1;
  {
    ScopedSpan span(&tracer, "probe.membership.run_cycle", parent);
    const overlay::Population population(n);
    out["membership.run_cycle_ms"] =
        1e-6 * median_ns_per_op(1, 0.3, 2, 50, [&] {
          net->run_cycle(population, now++, rng);
        });
  }
  {
    // Random pairs with caller-owned buffers: the intra-rep apply path.
    ScopedSpan span(&tracer, "probe.membership.exchange", parent);
    membership::NewscastNetwork::MergeBuffers buffers;
    constexpr std::size_t kPairs = 50'000;
    std::vector<std::pair<NodeId, NodeId>> pairs(kPairs);
    for (auto& [a, b] : pairs) {
      a = NodeId(static_cast<std::uint32_t>(rng.below(n)));
      b = NodeId(static_cast<std::uint32_t>(rng.below(n - 1)));
      if (b.value() >= a.value()) b = NodeId(b.value() + 1);
    }
    out["membership.exchange_ns"] =
        median_ns_per_op(kPairs, 0.3, 3, 20, [&] {
          ++now;
          for (const auto& [a, b] : pairs) net->exchange(buffers, a, b, now);
        });
  }
  {
    // Joins copy the contact's cache (the churn path).
    ScopedSpan span(&tracer, "probe.membership.add_node", parent);
    constexpr std::size_t kJoins = 20'000;
    constexpr int kBatches = 3;
    net->reserve_joins(kJoins * kBatches);
    out["membership.add_node_ns"] =
        median_ns_per_op(kJoins, 0.0, kBatches, kBatches, [&] {
          for (std::size_t j = 0; j < kJoins; ++j) {
            const NodeId contact(static_cast<std::uint32_t>(rng.below(n)));
            net->add_node(NodeId(static_cast<std::uint32_t>(net->size())),
                          contact, now);
          }
        });
  }
  {
    // NewscastCache::merge, the runtime's per-message membership step.
    ScopedSpan span(&tracer, "probe.membership.cache_merge", parent);
    const std::uint32_t caches_n = std::min<std::uint32_t>(n, 10'000);
    std::vector<membership::NewscastCache> caches(
        caches_n, membership::NewscastCache(shape.cache_size));
    for (auto& cache : caches) {
      for (std::uint32_t k = 0; k < shape.cache_size; ++k) {
        cache.insert(membership::CacheEntry(
            NodeId(static_cast<std::uint32_t>(rng.below(n))), 0));
      }
    }
    constexpr std::size_t kMerges = 50'000;
    std::uint32_t ts = 0;
    out["membership.cache_merge_ns"] =
        median_ns_per_op(kMerges, 0.3, 3, 20, [&] {
          for (std::size_t m = 0; m < kMerges; ++m) {
            const auto i = static_cast<std::uint32_t>(rng.below(caches_n));
            const auto j = static_cast<std::uint32_t>(rng.below(caches_n));
            caches[i].merge(caches[j].entries(),
                            membership::CacheEntry(NodeId(j), ++ts),
                            NodeId(i));
          }
        });
  }
}

void lane_and_stats_probes(const ProbeShape& shape, Rng& rng, Tracer& tracer,
                           std::uint32_t parent,
                           std::map<std::string, double>& out) {
  const std::uint32_t n = shape.nodes;
  const std::uint32_t t = shape.instances;
  // The flat [node * t + lane] estimate array both cycle drivers keep.
  std::vector<double> estimates(static_cast<std::size_t>(n) * t);
  for (double& e : estimates) e = rng.uniform();
  {
    ScopedSpan span(&tracer, "probe.core.lane_average", parent);
    const std::size_t pairs_n =
        std::min<std::size_t>(2'000'000, 20'000'000 / t);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(pairs_n);
    for (auto& [p, q] : pairs) {
      p = static_cast<std::uint32_t>(rng.below(n));
      q = static_cast<std::uint32_t>(rng.below(n));
    }
    out["core.lane_average_ns"] = median_ns_per_op(
        static_cast<double>(pairs_n) * t, 0.2, 3, 10, [&] {
          for (const auto& [p, q] : pairs) {
            double* ep = &estimates[static_cast<std::size_t>(p) * t];
            double* eq = &estimates[static_cast<std::size_t>(q) * t];
            for (std::uint32_t i = 0; i < t; ++i) {
              const double u = core::AverageUpdate::apply(ep[i], eq[i]);
              ep[i] = u;
              eq[i] = u;
            }
          }
          keep(estimates.data());
        });
    // Each exchange reads and writes t lanes on both nodes.
    out["core.lane_bytes_per_exchange"] = 32.0 * t;
  }
  {
    // One cycle's statistics pass as record_stats makes it: node by node,
    // one running accumulator per lane.
    ScopedSpan span(&tracer, "probe.stats.record", parent);
    std::vector<stats::RunningStats> lanes(t);
    out["stats.record_ns_per_value"] = median_ns_per_op(
        static_cast<double>(estimates.size()), 0.2, 3, 20, [&] {
          std::fill(lanes.begin(), lanes.end(), stats::RunningStats{});
          for (std::size_t u = 0; u < n; ++u) {
            const double* e = &estimates[u * t];
            for (std::uint32_t i = 0; i < t; ++i) lanes[i].add(e[i]);
          }
          keep(lanes.data());
        });
  }
}

void proto_probes(const ProbeShape& shape, Rng& rng, Tracer& tracer,
                  std::uint32_t parent, std::map<std::string, double>& out) {
  proto::NewsPush news;
  for (std::uint32_t k = 0; k < shape.cache_size; ++k) {
    news.entries.emplace_back(
        NodeId(static_cast<std::uint32_t>(rng.below(shape.nodes))), k);
  }
  news.fresh = membership::CacheEntry(NodeId(0), shape.cache_size);
  const std::pair<const char*, proto::Message> messages[] = {
      {"news_push", news},
      {"agg_push", proto::AggPush{0, (std::uint64_t{1} << 32) | 1, 0.5}},
  };
  constexpr std::size_t kOps = 50'000;
  for (const auto& entry : messages) {
    const std::string suffix = entry.first;
    const proto::Message& message = entry.second;
    ScopedSpan span(&tracer, "probe.proto." + suffix, parent);
    out["proto.encode_ns." + suffix] =
        median_ns_per_op(kOps, 0.1, 3, 20, [&] {
          for (std::size_t i = 0; i < kOps; ++i) {
            const auto bytes = proto::encode(message);
            keep(bytes.data());
          }
        });
    const auto bytes = proto::encode(message);
    out["proto.decode_ns." + suffix] =
        median_ns_per_op(kOps, 0.1, 3, 20, [&] {
          for (std::size_t i = 0; i < kOps; ++i) {
            const auto decoded = proto::decode(bytes);
            keep(&decoded);
          }
        });
    out["proto.encoded_bytes." + suffix] =
        static_cast<double>(proto::encoded_size(message));
  }

  // LoopbackTransport::send with a sink that only queues the frame, as
  // the executor's mailbox push does; payloads are encoded beforehand.
  ScopedSpan span(&tracer, "probe.runtime.transport_send", parent);
  runtime::LoopbackTransport transport;
  std::vector<runtime::Frame> delivered;
  transport.set_sink(
      [&](runtime::Frame&& frame) { delivered.push_back(std::move(frame)); });
  transport.start();
  constexpr std::size_t kSends = 20'000;
  const auto payload = proto::encode(messages[0].second);
  std::vector<std::vector<std::byte>> payloads;
  std::vector<double> samples;
  for (int batch = 0; batch < 5; ++batch) {
    payloads.assign(kSends, payload);
    delivered.clear();
    delivered.reserve(kSends);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kSends; ++i) {
      (void)transport.send(NodeId(0), NodeId(1), std::move(payloads[i]));
    }
    samples.push_back(seconds_since(t0) * 1e9 / kSends);
  }
  transport.shutdown();
  out["runtime.transport_send_ns"] = stats::summarize(samples).median;
}

}  // namespace

std::map<std::string, double> run_probes(const ProbeShape& shape,
                                         std::uint64_t seed, Tracer& tracer,
                                         std::uint32_t parent) {
  std::map<std::string, double> out;
  Rng rng(seed);
  membership_probes(shape, rng, tracer, parent, out);
  lane_and_stats_probes(shape, rng, tracer, parent, out);
  proto_probes(shape, rng, tracer, parent, out);
  return out;
}

}  // namespace gossip::bench
