// Compile-time registry of every RNG stream salt and keying multiplier.
//
// Bit-identical determinism across engines, shards, threads and processes
// rests on every logical random stream being keyed by a *distinct* salt:
// two streams sharing a salt (or two keying dimensions sharing a
// multiplier) silently collapse onto the same draw sequence — the exact
// bug class PR 4 shipped, where reusing the cycle multiplier for the
// round index let (cycle 0, round 3) and (cycle 2, round 1) collide onto
// one per-node stream, and only a slow golden diff diagnosed it.
//
// Discipline (machine-checked, see tools/gossip_lint.py rule
// raw-stream-salt): no call site may XOR or multiply a raw hex constant
// into a seed. Every salt lives here as a named constexpr, is listed in
// exactly one domain table below, and the all-pairs-distinct
// static_asserts make a duplicated entry a *compile error* instead of a
// corrupted experiment. Values are frozen: every pinned golden in
// tests/ depends on them bit-for-bit — add new salts, never renumber.
#pragma once

#include <array>
#include <cstdint>

namespace gossip::salt {

// ---------------------------------------------------------------------
// Stream salts: tags XOR'd into a run/repetition seed to select an
// independent stream. Globally all-pairs distinct — many are combined
// with the *same* seed, so any two equal tags would alias streams.
// ---------------------------------------------------------------------

/// Initial-value distribution stream (engine.cpp initial_values, shared
/// by every driver): seed ^ salt. The historical 0xabcd of the
/// initial-distribution ablation.
inline constexpr std::uint64_t kEngineInitValues = 0xabcdULL;

/// Static-graph construction for the deployment runtime (must be a pure
/// function of the repetition seed so every cooperating process builds
/// the identical overlay).
inline constexpr std::uint64_t kEngineGraph = 0x715ea7f0c9e2d3b1ULL;

/// Transport fault injection (message loss / latency draws):
/// splitmix64(seed) ^ salt.
inline constexpr std::uint64_t kEngineFaults = 0x5bd1e995cc9e2d51ULL;

/// Intra-rep engine, membership (newscast) phase of a matched cycle.
inline constexpr std::uint64_t kIntraRepNewscast = 0x6e65777363617374ULL;

/// Intra-rep engine, aggregation phase of a matched cycle.
inline constexpr std::uint64_t kIntraRepAgg = 0x6167677265676174ULL;

/// Engine-invariant per-(cycle,node) drift stream (drift_delta), shared
/// bit-exactly by the serial driver, the intra-rep engine and the
/// deployment runtime.
inline constexpr std::uint64_t kDriftDelta = 0x6472696674ULL;

/// Byzantine membership hash (AdversarySpec::is_byzantine) — seedless by
/// design so churn joiners are recruited at the configured rate on every
/// engine, but registered here so no stream can ever reuse its tag.
inline constexpr std::uint64_t kAdversaryMembership = 0x62797a616e74ULL;

/// Deployment-runtime driver stream (churn joins, per-cycle plan draws).
inline constexpr std::uint64_t kRuntimeDriver = 0xd21fe7a9b4c3580fULL;

/// Deployment-runtime per-worker RNG pool seed.
inline constexpr std::uint64_t kRuntimeWorkerPool = 0x9c0b5e1fd2a68734ULL;

inline constexpr std::array<std::uint64_t, 9> kStreamSalts = {
    kEngineInitValues, kEngineGraph,      kEngineFaults,
    kIntraRepNewscast, kIntraRepAgg,      kDriftDelta,
    kAdversaryMembership, kRuntimeDriver, kRuntimeWorkerPool,
};

// ---------------------------------------------------------------------
// Keying multipliers, per-(cycle, node, round) node-stream domain: the
// dimensions of one stream key are separated by multiplying each index
// with its own odd 64-bit constant. All-pairs distinct *within the
// domain* — reusing one across two dimensions is the PR 4 collision.
// (A multiplier may legitimately equal a stream salt from the table
// above: the two tables key different positions of the mix.)
// ---------------------------------------------------------------------

/// Cycle index dimension of node_stream_key().
inline constexpr std::uint64_t kMulCycle = 0x9e3779b97f4a7c15ULL;

/// Node id dimension of node_stream_key().
inline constexpr std::uint64_t kMulNode = 0xd1342543de82ef95ULL;

/// Aggregation sub-round dimension (agg_round_salt).
inline constexpr std::uint64_t kMulAggRound = 0x94d049bb133111ebULL;

/// Membership sub-round dimension (newscast_round_salt).
inline constexpr std::uint64_t kMulNewscastRound = 0xbf58476d1ce4e5b9ULL;

inline constexpr std::array<std::uint64_t, 4> kNodeStreamMultipliers = {
    kMulCycle,
    kMulNode,
    kMulAggRound,
    kMulNewscastRound,
};

// ---------------------------------------------------------------------
// Keying multipliers, sweep-seed domain (rep_seed in engine.cpp): the
// (point, rep) dimensions of the per-repetition seed derivation. Every
// published series depends on these exact values.
// ---------------------------------------------------------------------

inline constexpr std::uint64_t kMulSweepPoint = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kMulSweepRep = 0xbf58476d1ce4e5b9ULL;

inline constexpr std::array<std::uint64_t, 2> kSweepMultipliers = {
    kMulSweepPoint,
    kMulSweepRep,
};

// ---------------------------------------------------------------------
// Keying multipliers, single-dimension domains.
// ---------------------------------------------------------------------

/// Node-id dimension of the byzantine membership hash (seedless, mixed
/// with kAdversaryMembership only — its own one-entry domain).
inline constexpr std::uint64_t kMulAdversaryId = 0xda942042e4dd58b5ULL;

// ---------------------------------------------------------------------
// Distinctness: duplicating any entry inside a domain table refuses to
// compile. constexpr, O(n^2), n <= a few dozen — free at build time.
// ---------------------------------------------------------------------

template <std::size_t N>
constexpr bool all_pairs_distinct(const std::array<std::uint64_t, N>& t) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (t[i] == t[j]) return false;
    }
  }
  return true;
}

static_assert(all_pairs_distinct(kStreamSalts),
              "two RNG stream salts collide: streams XOR'd with the same "
              "tag alias each other — pick a fresh constant");
static_assert(all_pairs_distinct(kNodeStreamMultipliers),
              "two node-stream keying multipliers collide: distinct "
              "(cycle, node, round) tuples would map to one stream (the "
              "PR 4 bug) — pick a fresh constant");
static_assert(all_pairs_distinct(kSweepMultipliers),
              "sweep point and rep multipliers collide: (point, rep) "
              "pairs would share repetition seeds — pick a fresh constant");

template <std::size_t N>
constexpr bool contains(const std::array<std::uint64_t, N>& t,
                        std::uint64_t v) {
  for (std::size_t i = 0; i < N; ++i) {
    if (t[i] == v) return true;
  }
  return false;
}

// Every named salt/multiplier must be registered in its domain table —
// a constant declared above but missing from the table would dodge the
// distinctness check.
static_assert(contains(kStreamSalts, kEngineInitValues) &&
                  contains(kStreamSalts, kEngineGraph) &&
                  contains(kStreamSalts, kEngineFaults) &&
                  contains(kStreamSalts, kIntraRepNewscast) &&
                  contains(kStreamSalts, kIntraRepAgg) &&
                  contains(kStreamSalts, kDriftDelta) &&
                  contains(kStreamSalts, kAdversaryMembership) &&
                  contains(kStreamSalts, kRuntimeDriver) &&
                  contains(kStreamSalts, kRuntimeWorkerPool),
              "stream salt declared but not registered in kStreamSalts");
static_assert(contains(kNodeStreamMultipliers, kMulCycle) &&
                  contains(kNodeStreamMultipliers, kMulNode) &&
                  contains(kNodeStreamMultipliers, kMulAggRound) &&
                  contains(kNodeStreamMultipliers, kMulNewscastRound),
              "node-stream multiplier not registered");
static_assert(contains(kSweepMultipliers, kMulSweepPoint) &&
                  contains(kSweepMultipliers, kMulSweepRep),
              "sweep multiplier not registered");

// ---------------------------------------------------------------------
// Shared keying helpers: the one place the mix shapes live, so every
// engine derives the identical stream from the identical arguments.
// ---------------------------------------------------------------------

/// Pre-splitmix key of one node's stream in one phase of one cycle.
/// Keyed by node identity — never by shard or thread — so partitioning
/// is invisible to the random stream. Callers finalize with
/// splitmix64(key) (drift_delta) or Rng(splitmix64(key)) (node_stream).
constexpr std::uint64_t node_stream_key(std::uint64_t seed,
                                        std::uint32_t cycle,
                                        std::uint32_t node,
                                        std::uint64_t phase_salt) {
  return seed ^ (static_cast<std::uint64_t>(cycle) + 1) * kMulCycle ^
         (static_cast<std::uint64_t>(node) + 1) * kMulNode ^ phase_salt;
}

/// Phase salt of aggregation sub-round `round` (round 0 stays on the
/// plain kIntraRepAgg stream).
constexpr std::uint64_t agg_round_salt(std::uint32_t round) {
  return kIntraRepAgg ^ (static_cast<std::uint64_t>(round) * kMulAggRound);
}

/// Phase salt of membership sub-round `round`. The round multiplier must
/// differ from kMulCycle and kMulNode (enforced above): reusing one would
/// let (cycle, round) pairs collide onto the same per-node stream.
constexpr std::uint64_t newscast_round_salt(std::uint32_t round) {
  return kIntraRepNewscast ^
         (static_cast<std::uint64_t>(round) * kMulNewscastRound);
}

}  // namespace gossip::salt
