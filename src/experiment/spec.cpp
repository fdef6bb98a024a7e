#include "experiment/spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/json.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/spec_fields.hpp"

namespace gossip::experiment {

// ---------------------------------------------------------- FailureSpec

FailureSpec FailureSpec::proportional_crash(double p_fail) {
  FailureSpec f;
  f.kind = Kind::kProportionalCrash;
  f.p = p_fail;
  return f;
}

FailureSpec FailureSpec::sudden_death(std::uint32_t death_cycle,
                                      double fraction) {
  FailureSpec f;
  f.kind = Kind::kSuddenDeath;
  f.cycle = death_cycle;
  f.fraction = fraction;
  return f;
}

FailureSpec FailureSpec::churn(std::uint32_t rate) {
  FailureSpec f;
  f.kind = Kind::kChurn;
  f.rate = rate;
  return f;
}

FailureSpec FailureSpec::churn_fraction(double fraction) {
  FailureSpec f;
  f.kind = Kind::kChurnFraction;
  f.fraction = fraction;
  return f;
}

FailureSpec FailureSpec::constant_crash(std::uint32_t rate) {
  FailureSpec f;
  f.kind = Kind::kConstantCrash;
  f.rate = rate;
  return f;
}

FailureSpec FailureSpec::correlated_waves(std::uint32_t trigger,
                                          std::uint32_t waves,
                                          double fraction) {
  FailureSpec f;
  f.kind = Kind::kCorrelatedWaves;
  f.cycle = trigger;
  f.waves = waves;
  f.fraction = fraction;
  return f;
}

FailureSpec FailureSpec::partition(std::uint32_t start, std::uint32_t duration,
                                   std::uint32_t components) {
  FailureSpec f;
  f.kind = Kind::kPartition;
  f.cycle = start;
  f.duration = duration;
  f.components = components;
  return f;
}

FailureSpec FailureSpec::restart(std::uint32_t period) {
  FailureSpec f;
  f.kind = Kind::kRestart;
  f.cycle = period;
  return f;
}

std::unique_ptr<failure::FailurePlan> FailureSpec::build(
    std::uint32_t nodes) const {
  switch (kind) {
    case Kind::kNone:
      return std::make_unique<failure::NoFailures>();
    case Kind::kProportionalCrash:
      return std::make_unique<failure::ProportionalCrash>(p);
    case Kind::kSuddenDeath:
      return std::make_unique<failure::SuddenDeath>(cycle, fraction);
    case Kind::kChurn:
      return std::make_unique<failure::Churn>(rate);
    case Kind::kChurnFraction:
      // The historical rate arithmetic: truncation of nodes · fraction.
      return std::make_unique<failure::Churn>(
          static_cast<std::uint32_t>(nodes * fraction));
    case Kind::kConstantCrash:
      return std::make_unique<failure::ConstantCrash>(rate);
    case Kind::kCorrelatedWaves:
      return std::make_unique<failure::CorrelatedWaves>(
          cycle, waves, static_cast<std::uint32_t>(nodes * fraction));
    case Kind::kPartition:
      // A partition kills nobody: the drivers enforce it as an exchange
      // filter (SimConfig::partition), wired up by the engine facade.
      return std::make_unique<failure::NoFailures>();
    case Kind::kRestart:
      return std::make_unique<failure::EpochRestart>(cycle);
  }
  throw SpecError("spec: unhandled failure kind");
}

// ------------------------------------------------------------- builders

ScenarioSpec ScenarioSpec::average_peak(std::string name, std::uint32_t nodes,
                                        std::uint32_t cycles) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.nodes = nodes;
  s.cycles = cycles;
  return s;
}

ScenarioSpec ScenarioSpec::count(std::string name, std::uint32_t nodes,
                                 std::uint32_t cycles,
                                 std::uint32_t instances) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.aggregate = AggregateKind::kCount;
  s.nodes = nodes;
  s.cycles = cycles;
  s.instances = instances;
  return s;
}

ScenarioSpec& ScenarioSpec::with_topology(TopologyConfig t) {
  topology = t;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_failure(FailureSpec f) {
  failure = f;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_comm(CommSpec c) {
  comm = c;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_adversary(AdversarySpec a) {
  adversary = a;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_combine(CombineSpec c) {
  combine = c;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_drift(DriftSpec d) {
  drift = d;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_service(ServiceSpec s) {
  service = s;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_init(InitKind k) {
  init = k;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_reps(std::uint32_t r) {
  reps = r;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_seed(std::uint64_t s) {
  seed = s;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_engine(EngineKind k) {
  engine = k;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_driver(DriverKind d) {
  driver = d;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_match_rounds(std::uint32_t r) {
  match_rounds = r;
  return *this;
}
ScenarioSpec& ScenarioSpec::with_sweep(SweepAxis axis,
                                       std::vector<SweepPoint> points) {
  sweep.axis = axis;
  sweep.points = std::move(points);
  return *this;
}
ScenarioSpec& ScenarioSpec::with_seed_point(std::uint64_t seed_point) {
  sweep = SweepSpec::single(seed_point);
  return *this;
}

namespace {

/// The suffix every per-point SpecError ends with.
std::string at_sweep_point(double value) {
  return " at sweep point " + std::to_string(value);
}

}  // namespace

ScenarioSpec ScenarioSpec::at_point(std::size_t index) const {
  if (index >= sweep.points.size()) {
    throw SpecError("spec: sweep point index " + std::to_string(index) +
                    " out of range (have " +
                    std::to_string(sweep.points.size()) + ")");
  }
  ScenarioSpec s = *this;
  const SweepPoint& pt = sweep.points[index];
  const double v = pt.value;
  // The casts below are defined only inside these ranges. Every other
  // rule on a point is its field's own, which validate() checks on the
  // spec this returns.
  const auto in_range = [&](double hi, const char* range) {
    if (!(v >= 0.0 && v <= hi)) {
      throw SpecError("spec: sweep axis '" + to_string(sweep.axis) +
                      "' takes values in " + range + at_sweep_point(v));
    }
    return v;
  };
  const auto u32 = [&] {
    return static_cast<std::uint32_t>(
        in_range(4294967295.0, "[0,4294967295]"));
  };
  switch (sweep.axis) {
    case SweepAxis::kNone:
      break;
    case SweepAxis::kNodes:
      s.nodes = u32();
      break;
    case SweepAxis::kBeta:
      s.topology.beta = v;
      break;
    case SweepAxis::kCacheSize:
      s.topology.cache_size = u32();
      break;
    case SweepAxis::kCrashP:
      s.failure = FailureSpec::proportional_crash(v);
      break;
    case SweepAxis::kDeathCycle:
      s.failure.kind = FailureSpec::Kind::kSuddenDeath;
      s.failure.cycle = u32();
      break;
    case SweepAxis::kChurnFraction:
      s.failure.kind = FailureSpec::Kind::kChurnFraction;
      s.failure.fraction = v;
      break;
    case SweepAxis::kLinkP:
      s.comm.link_failure = v;
      break;
    case SweepAxis::kLossP:
      s.comm.message_loss = v;
      break;
    case SweepAxis::kInstances:
      s.instances = u32();
      break;
    case SweepAxis::kCycles:
      s.cycles = u32();
      break;
    case SweepAxis::kInit:
      s.init = static_cast<InitKind>(static_cast<int>(
          in_range(static_cast<double>(InitKind::kExponential),
                   "0..3 (peak/uniform/bimodal/exponential)")));
      break;
    case SweepAxis::kAtomicity:
      s.atomic_exchanges = in_range(1.0, "[0,1] (0 off, else on)") != 0.0;
      break;
    case SweepAxis::kByzFraction:
      s.adversary.fraction = v;
      break;
    case SweepAxis::kPartitionComponents:
      s.failure.components = u32();
      break;
    case SweepAxis::kPartitionDuration:
      s.failure.duration = u32();
      break;
  }
  s.sweep.axis = sweep.axis;
  s.sweep.points = {pt};
  return s;
}

// ------------------------------------------------------- enum <-> string

namespace {

template <typename E>
struct NameTable {
  E value;
  const char* name;
};

constexpr NameTable<DriverKind> kDriverNames[] = {
    {DriverKind::kCycle, "cycle"},
    {DriverKind::kEvent, "event"},
    {DriverKind::kPushSum, "push_sum"},
    {DriverKind::kRuntime, "runtime"},
};
constexpr NameTable<AggregateKind> kAggregateNames[] = {
    {AggregateKind::kAverage, "average"},
    {AggregateKind::kCount, "count"},
};
constexpr NameTable<InitKind> kInitNames[] = {
    {InitKind::kPeak, "peak"},
    {InitKind::kUniform, "uniform"},
    {InitKind::kBimodal, "bimodal"},
    {InitKind::kExponential, "exponential"},
};
constexpr NameTable<EngineKind> kEngineNames[] = {
    {EngineKind::kAuto, "auto"},
    {EngineKind::kSerial, "serial"},
    {EngineKind::kRepParallel, "rep_parallel"},
    {EngineKind::kIntraRep, "intra_rep"},
};
constexpr NameTable<TopologyKind> kTopologyNames[] = {
    {TopologyKind::kComplete, "complete"},
    {TopologyKind::kRandomKOut, "random_k_out"},
    {TopologyKind::kRingLattice, "ring_lattice"},
    {TopologyKind::kWattsStrogatz, "watts_strogatz"},
    {TopologyKind::kBarabasiAlbert, "barabasi_albert"},
    {TopologyKind::kNewscast, "newscast"},
};
constexpr NameTable<FailureSpec::Kind> kFailureNames[] = {
    {FailureSpec::Kind::kNone, "none"},
    {FailureSpec::Kind::kProportionalCrash, "proportional_crash"},
    {FailureSpec::Kind::kSuddenDeath, "sudden_death"},
    {FailureSpec::Kind::kChurn, "churn"},
    {FailureSpec::Kind::kChurnFraction, "churn_fraction"},
    {FailureSpec::Kind::kConstantCrash, "constant_crash"},
    {FailureSpec::Kind::kCorrelatedWaves, "correlated_waves"},
    {FailureSpec::Kind::kPartition, "partition"},
    {FailureSpec::Kind::kRestart, "restart"},
};
constexpr NameTable<AdversarySpec::Behavior> kAdversaryNames[] = {
    {AdversarySpec::Behavior::kNone, "none"},
    {AdversarySpec::Behavior::kValueInject, "value_inject"},
    {AdversarySpec::Behavior::kAlwaysMax, "always_max"},
    {AdversarySpec::Behavior::kCachePollute, "cache_pollute"},
};
constexpr NameTable<CombineSpec::Kind> kCombineNames[] = {
    {CombineSpec::Kind::kMean, "mean"},
    {CombineSpec::Kind::kTrimmedMean, "trimmed_mean"},
    {CombineSpec::Kind::kMedianOfMeans, "median_of_means"},
};
constexpr NameTable<DriftSpec::Kind> kDriftNames[] = {
    {DriftSpec::Kind::kNone, "none"},
    {DriftSpec::Kind::kLinear, "linear"},
    {DriftSpec::Kind::kRandomWalk, "random_walk"},
    {DriftSpec::Kind::kStep, "step"},
};
constexpr NameTable<RuntimeSpec::TransportKind> kRuntimeTransportNames[] = {
    {RuntimeSpec::TransportKind::kLoopback, "loopback"},
    {RuntimeSpec::TransportKind::kSocket, "socket"},
};
constexpr NameTable<RuntimeSpec::LatencyKind> kRuntimeLatencyNames[] = {
    {RuntimeSpec::LatencyKind::kNone, "none"},
    {RuntimeSpec::LatencyKind::kFixed, "fixed"},
    {RuntimeSpec::LatencyKind::kUniform, "uniform"},
    {RuntimeSpec::LatencyKind::kExponential, "exponential"},
};
constexpr NameTable<SweepAxis> kAxisNames[] = {
    {SweepAxis::kNone, "none"},
    {SweepAxis::kNodes, "nodes"},
    {SweepAxis::kBeta, "beta"},
    {SweepAxis::kCacheSize, "cache_size"},
    {SweepAxis::kCrashP, "crash_p"},
    {SweepAxis::kDeathCycle, "death_cycle"},
    {SweepAxis::kChurnFraction, "churn_fraction"},
    {SweepAxis::kLinkP, "link_p"},
    {SweepAxis::kLossP, "loss_p"},
    {SweepAxis::kInstances, "instances"},
    {SweepAxis::kCycles, "cycles"},
    {SweepAxis::kInit, "init"},
    {SweepAxis::kAtomicity, "atomicity"},
    {SweepAxis::kByzFraction, "byz_fraction"},
    {SweepAxis::kPartitionComponents, "partition_components"},
    {SweepAxis::kPartitionDuration, "partition_duration"},
};

template <typename E, std::size_t N>
std::string name_of(const NameTable<E> (&table)[N], E value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  throw SpecError("spec: unknown enum value");
}

template <typename E, std::size_t N>
E value_of(const NameTable<E> (&table)[N], const std::string& name,
           const char* field) {
  for (const auto& entry : table) {
    if (name == entry.name) return entry.value;
  }
  std::string valid;
  for (const auto& entry : table) {
    if (!valid.empty()) valid += "|";
    valid += entry.name;
  }
  throw SpecError(std::string("spec: ") + field + " must be one of " + valid +
                  ", got '" + name + "'");
}

}  // namespace

std::string to_string(DriverKind k) { return name_of(kDriverNames, k); }
std::string to_string(AggregateKind k) { return name_of(kAggregateNames, k); }
std::string to_string(InitKind k) { return name_of(kInitNames, k); }
std::string to_string(EngineKind k) { return name_of(kEngineNames, k); }
std::string to_string(TopologyKind k) { return name_of(kTopologyNames, k); }
std::string to_string(FailureSpec::Kind k) {
  return name_of(kFailureNames, k);
}
std::string to_string(SweepAxis k) { return name_of(kAxisNames, k); }
std::string to_string(AdversarySpec::Behavior k) {
  return name_of(kAdversaryNames, k);
}
std::string to_string(CombineSpec::Kind k) {
  return name_of(kCombineNames, k);
}
std::string to_string(DriftSpec::Kind k) {
  return name_of(kDriftNames, k);
}
std::string to_string(RuntimeSpec::TransportKind k) {
  return name_of(kRuntimeTransportNames, k);
}
std::string to_string(RuntimeSpec::LatencyKind k) {
  return name_of(kRuntimeLatencyNames, k);
}

// ----------------------------------------------------------------- JSON
//
// Parse and canonical serialization expand from the field-descriptor
// tables in spec_fields.hpp. Key order, conditional emission and the
// dotted error contexts are all properties of the table rows, so the
// canonical JSON (and spec_hash provenance) of every pre-existing spec
// stays bit-identical and a field added to a table can never reach one
// surface but not another. Only the typed getters, the unknown-key
// rejection and the sweep-point array plumbing are hand-written.

namespace {

// GOSSIP_JV_<tag>: the json::Value expression serializing one member.
#define GOSSIP_JV_STR(obj, member, extra) (obj).member
#define GOSSIP_JV_U32(obj, member, extra) (obj).member
#define GOSSIP_JV_U64(obj, member, extra) (obj).member
#define GOSSIP_JV_UNS(obj, member, extra) (obj).member
#define GOSSIP_JV_SIZE(obj, member, extra) \
  static_cast<std::uint64_t>((obj).member)
#define GOSSIP_JV_DBL(obj, member, extra) (obj).member
#define GOSSIP_JV_PROB(obj, member, extra) (obj).member
#define GOSSIP_JV_BOOL(obj, member, extra) (obj).member
#define GOSSIP_JV_ENUM(obj, member, extra) to_string((obj).member)
#define GOSSIP_JV_OBJ(obj, member, extra) extra##_to_json((obj).member)
#define GOSSIP_JV_PTS(obj, member, extra) sweep_points_to_json((obj).member)

// GOSSIP_EMIT_<emit>: the emission predicate. IF_NONZERO/IF_NONEMPTY/
// IF_NONDEFAULT keep fields (and whole objects) that joined the spec
// after provenance hashes were pinned out of every pre-existing spec's
// canonical JSON, so those specs' spec_hash stays byte-identical.
#define GOSSIP_EMIT_ALWAYS(obj, member) true
#define GOSSIP_EMIT_IF_NONZERO(obj, member) ((obj).member != 0)
#define GOSSIP_EMIT_IF_NONEMPTY(obj, member) (!(obj).member.empty())
#define GOSSIP_EMIT_IF_NONDEFAULT(obj, member) \
  (!((obj).member == std::decay_t<decltype((obj).member)>{}))

#define GOSSIP_SER_ONE(member, json_key, tag, extra, emit, set_tok, set_key) \
  if (GOSSIP_EMIT_##emit(obj, member)) {                                    \
    o.set(json_key, GOSSIP_JV_##tag(obj, member, extra));                   \
  }

#define GOSSIP_DEFINE_TO_JSON(name, Type, FIELDS) \
  json::Value name##_to_json(const Type& obj) {   \
    json::Value o = json::Object{};               \
    FIELDS(GOSSIP_SER_ONE)                        \
    return o;                                     \
  }

json::Value sweep_points_to_json(const std::vector<SweepPoint>& points) {
  json::Array arr;
  for (const SweepPoint& obj : points) {
    json::Value o = json::Object{};
    GOSSIP_SPEC_SWEEP_POINT_FIELDS(GOSSIP_SER_ONE)
    arr.push_back(std::move(o));
  }
  return arr;
}

GOSSIP_DEFINE_TO_JSON(topology, TopologyConfig, GOSSIP_SPEC_TOPOLOGY_FIELDS)
GOSSIP_DEFINE_TO_JSON(failure, FailureSpec, GOSSIP_SPEC_FAILURE_FIELDS)
GOSSIP_DEFINE_TO_JSON(comm, CommSpec, GOSSIP_SPEC_COMM_FIELDS)
GOSSIP_DEFINE_TO_JSON(adversary, AdversarySpec, GOSSIP_SPEC_ADVERSARY_FIELDS)
GOSSIP_DEFINE_TO_JSON(combine, CombineSpec, GOSSIP_SPEC_COMBINE_FIELDS)
GOSSIP_DEFINE_TO_JSON(drift, DriftSpec, GOSSIP_SPEC_DRIFT_FIELDS)
GOSSIP_DEFINE_TO_JSON(service, ServiceSpec, GOSSIP_SPEC_SERVICE_FIELDS)
GOSSIP_DEFINE_TO_JSON(runtime, RuntimeSpec, GOSSIP_SPEC_RUNTIME_FIELDS)
GOSSIP_DEFINE_TO_JSON(sweep, SweepSpec, GOSSIP_SPEC_SWEEP_FIELDS)

/// Throws on keys `obj` holds that `allowed` does not list.
void reject_unknown_keys(const json::Value& obj, const char* context,
                         std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.as_object()) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      const std::string suggestion = nearest_key(key, allowed);
      throw SpecError(
          std::string("spec: unknown field '") + key + "' in " + context +
          (suggestion.empty() ? ""
                              : " (did you mean '" + suggestion + "'?)"));
    }
  }
}

double get_probability(const json::Value& v, const char* field) {
  double d = 0.0;
  try {
    d = v.as_double();
  } catch (const json::Error&) {
    throw SpecError(std::string("spec: ") + field + " must be a number");
  }
  if (!(d >= 0.0 && d <= 1.0)) {
    throw SpecError(std::string("spec: ") + field +
                    " must be a probability in [0,1], got " +
                    std::to_string(d));
  }
  return d;
}

std::uint64_t get_u64(const json::Value& v, const char* field) {
  try {
    return v.as_u64();
  } catch (const json::Error&) {
    throw SpecError(std::string("spec: ") + field +
                    " must be a non-negative integer");
  }
}

// U32 and UNS fields: a value past 2^32 - 1 fails, never wraps.
static_assert(sizeof(unsigned) == sizeof(std::uint32_t));
std::uint32_t get_u32(const json::Value& v, const char* field) {
  const std::uint64_t u = get_u64(v, field);
  if (u > std::numeric_limits<std::uint32_t>::max()) {
    throw SpecError(std::string("spec: ") + field +
                    " must be <= 4294967295, got " + std::to_string(u));
  }
  return static_cast<std::uint32_t>(u);
}

double get_double(const json::Value& v, const char* field) {
  try {
    return v.as_double();
  } catch (const json::Error&) {
    throw SpecError(std::string("spec: ") + field + " must be a number");
  }
}

std::string get_string(const json::Value& v, const char* field) {
  try {
    return v.as_string();
  } catch (const json::Error&) {
    throw SpecError(std::string("spec: ") + field + " must be a string");
  }
}

bool get_bool(const json::Value& v, const char* field) {
  try {
    return v.as_bool();
  } catch (const json::Error&) {
    throw SpecError(std::string("spec: ") + field + " must be a boolean");
  }
}

// GOSSIP_PARSE_<tag>: assignment from a found json::Value pointer `gv`;
// `ctx` is the dotted path that SpecError messages name.
#define GOSSIP_PARSE_STR(lhs, ctx, extra) lhs = get_string(*gv, ctx)
#define GOSSIP_PARSE_U32(lhs, ctx, extra) lhs = get_u32(*gv, ctx)
#define GOSSIP_PARSE_U64(lhs, ctx, extra) lhs = get_u64(*gv, ctx)
#define GOSSIP_PARSE_UNS(lhs, ctx, extra) lhs = get_u32(*gv, ctx)
#define GOSSIP_PARSE_SIZE(lhs, ctx, extra) \
  lhs = static_cast<std::size_t>(get_u64(*gv, ctx))
#define GOSSIP_PARSE_DBL(lhs, ctx, extra) lhs = get_double(*gv, ctx)
#define GOSSIP_PARSE_PROB(lhs, ctx, extra) lhs = get_probability(*gv, ctx)
#define GOSSIP_PARSE_BOOL(lhs, ctx, extra) lhs = get_bool(*gv, ctx)
#define GOSSIP_PARSE_ENUM(lhs, ctx, extra) \
  lhs = value_of(extra, get_string(*gv, ctx), ctx)
#define GOSSIP_PARSE_OBJ(lhs, ctx, extra) lhs = extra##_from_json(*gv)
#define GOSSIP_PARSE_PTS(lhs, ctx, extra) lhs = sweep_points_from_json(*gv)

// One `if (found) parse` per row. GOSSIP_PARSE_PREFIX is the dotted
// context prefix of the group currently being expanded ("" at top
// level) — string-literal concatenation builds "failure." "cycle".
#define GOSSIP_PARSE_ONE(member, json_key, tag, extra, emit, set_tok,   \
                         set_key)                                      \
  if (const auto* gv = v.find(json_key)) {                             \
    GOSSIP_PARSE_##tag(obj.member, GOSSIP_PARSE_PREFIX json_key, extra); \
  }

// The allowed-key list for reject_unknown_keys (trailing comma is fine
// in a braced list).
#define GOSSIP_KEY_ONE(member, json_key, tag, extra, emit, set_tok, set_key) \
  json_key,

#define GOSSIP_DEFINE_FROM_JSON(name, Type, FIELDS)         \
  Type name##_from_json(const json::Value& v) {             \
    if (v.kind() != json::Kind::kObject) {                  \
      throw SpecError("spec: " #name " must be an object"); \
    }                                                       \
    reject_unknown_keys(v, #name, {FIELDS(GOSSIP_KEY_ONE)}); \
    Type obj;                                               \
    FIELDS(GOSSIP_PARSE_ONE)                                \
    return obj;                                             \
  }

std::vector<SweepPoint> sweep_points_from_json(const json::Value& pts) {
  if (pts.kind() != json::Kind::kArray) {
    throw SpecError("spec: sweep.points must be an array");
  }
  std::vector<SweepPoint> out;
  for (const json::Value& v : pts.as_array()) {
    if (v.kind() != json::Kind::kObject) {
      throw SpecError("spec: sweep.points entries must be objects");
    }
    reject_unknown_keys(v, "sweep.points",
                        {GOSSIP_SPEC_SWEEP_POINT_FIELDS(GOSSIP_KEY_ONE)});
    SweepPoint obj;
#define GOSSIP_PARSE_PREFIX "sweep.points."
    GOSSIP_SPEC_SWEEP_POINT_FIELDS(GOSSIP_PARSE_ONE)
#undef GOSSIP_PARSE_PREFIX
    out.push_back(std::move(obj));
  }
  return out;
}

#define GOSSIP_PARSE_PREFIX "topology."
GOSSIP_DEFINE_FROM_JSON(topology, TopologyConfig, GOSSIP_SPEC_TOPOLOGY_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "failure."
GOSSIP_DEFINE_FROM_JSON(failure, FailureSpec, GOSSIP_SPEC_FAILURE_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "comm."
GOSSIP_DEFINE_FROM_JSON(comm, CommSpec, GOSSIP_SPEC_COMM_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "adversary."
GOSSIP_DEFINE_FROM_JSON(adversary, AdversarySpec,
                        GOSSIP_SPEC_ADVERSARY_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "combine."
GOSSIP_DEFINE_FROM_JSON(combine, CombineSpec, GOSSIP_SPEC_COMBINE_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "drift."
GOSSIP_DEFINE_FROM_JSON(drift, DriftSpec, GOSSIP_SPEC_DRIFT_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "service."
GOSSIP_DEFINE_FROM_JSON(service, ServiceSpec, GOSSIP_SPEC_SERVICE_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "runtime."
GOSSIP_DEFINE_FROM_JSON(runtime, RuntimeSpec, GOSSIP_SPEC_RUNTIME_FIELDS)
#undef GOSSIP_PARSE_PREFIX
#define GOSSIP_PARSE_PREFIX "sweep."
GOSSIP_DEFINE_FROM_JSON(sweep, SweepSpec, GOSSIP_SPEC_SWEEP_FIELDS)
#undef GOSSIP_PARSE_PREFIX

}  // namespace

std::string to_json(const ScenarioSpec& spec, int indent) {
  const ScenarioSpec& obj = spec;
  json::Value o = json::Object{};
  GOSSIP_SPEC_TOP_FIELDS(GOSSIP_SER_ONE)
  return o.dump(indent);
}

ScenarioSpec spec_from_json(const std::string& text) {
  json::Value root = [&] {
    try {
      return json::parse(text);
    } catch (const json::Error& e) {
      throw SpecError(std::string("spec: invalid JSON: ") + e.what());
    }
  }();
  if (root.kind() != json::Kind::kObject) {
    throw SpecError("spec: top level must be a JSON object");
  }
  reject_unknown_keys(root, "spec", {GOSSIP_SPEC_TOP_FIELDS(GOSSIP_KEY_ONE)});

  ScenarioSpec obj;
  const json::Value& v = root;
#define GOSSIP_PARSE_PREFIX ""
  GOSSIP_SPEC_TOP_FIELDS(GOSSIP_PARSE_ONE)
#undef GOSSIP_PARSE_PREFIX
  validate(obj);
  return obj;
}

// ------------------------------------------------------------ validation

namespace {

/// Every field rule, on one spec as it runs (a sweep point folded in).
void validate_fields(const ScenarioSpec& spec) {
  const auto fail = [](const std::string& message) {
    throw SpecError("spec: " + message);
  };
  if (spec.name.empty()) fail("'name' must be a non-empty string");
  if (spec.nodes < 2) {
    fail("nodes must be >= 2, got " + std::to_string(spec.nodes));
  }
  if (spec.cycles == 0) fail("cycles must be >= 1");
  // The packed 32-bit newscast timestamp (membership::CacheEntry) must
  // hold every logical time a run can stamp; cycle drivers stamp up to
  // cycles + 1.
  if (spec.cycles > 4294967294u) {
    fail("cycles must fit the packed 32-bit logical clock "
         "(<= 4294967294), got " +
         std::to_string(spec.cycles));
  }
  if (spec.reps == 0) fail("reps must be >= 1");
  if (spec.instances == 0) fail("instances must be >= 1");
  // The estimate arrays are flat [node * instances + i]; a product past
  // 2^32 lanes would overflow the packed lane index (and the allocation
  // would be tens of GB). Reject at validation, mirroring the 32-bit
  // clock guard above — never clamp silently.
  if (static_cast<std::uint64_t>(spec.nodes) * spec.instances >
      4294967295ULL) {
    fail("nodes * instances must fit the packed 32-bit lane index "
         "(<= 4294967295), got " +
         std::to_string(static_cast<std::uint64_t>(spec.nodes) *
                        spec.instances));
  }
  if (spec.aggregate == AggregateKind::kCount &&
      spec.instances > spec.nodes) {
    fail("instances must be <= nodes (each COUNT instance needs a "
         "distinct leader), got " +
         std::to_string(spec.instances) + " instances over " +
         std::to_string(spec.nodes) + " nodes");
  }
  if (spec.aggregate == AggregateKind::kAverage && spec.instances != 1) {
    fail("aggregate 'average' requires instances == 1, got " +
         std::to_string(spec.instances));
  }
  if (spec.aggregate == AggregateKind::kCount &&
      spec.init != InitKind::kPeak) {
    fail("aggregate 'count' fixes the initial distribution; init must be "
         "'peak', got '" +
         to_string(spec.init) + "'");
  }
  const TopologyConfig& topo = spec.topology;
  const TopologyConfig topo_defaults;
  if (!(topo.beta >= 0.0 && topo.beta <= 1.0)) {
    fail("topology.beta must be in [0,1], got " + std::to_string(topo.beta));
  }
  if (topo.beta != 0.0 && topo.kind != TopologyKind::kWattsStrogatz) {
    fail("topology.beta is only meaningful for kind 'watts_strogatz'; "
         "leave it at 0");
  }
  if (topo.kind == TopologyKind::kNewscast && topo.cache_size < 2) {
    fail("topology.cache_size must be >= 2 for newscast, got " +
         std::to_string(topo.cache_size));
  }
  if (topo.kind != TopologyKind::kNewscast &&
      topo.cache_size != topo_defaults.cache_size) {
    fail("topology.cache_size is only meaningful for kind 'newscast'; "
         "leave it at " +
         std::to_string(topo_defaults.cache_size));
  }
  // The static generators' preconditions (overlay/generators.cpp), so a
  // spec that validates never aborts while building its graph.
  const auto fail_degree = [&](const std::string& rule) {
    fail("topology.degree must be " + rule + " for " + to_string(topo.kind) +
         ", got degree " + std::to_string(topo.degree) + " with " +
         std::to_string(spec.nodes) + " nodes");
  };
  switch (topo.kind) {
    case TopologyKind::kRandomKOut:
      if (topo.degree < 1 || topo.degree >= spec.nodes) {
        fail_degree("in [1, nodes)");
      }
      break;
    case TopologyKind::kRingLattice:
    case TopologyKind::kWattsStrogatz:
      if (topo.degree < 2 || topo.degree % 2 != 0 ||
          topo.degree >= spec.nodes) {
        fail_degree("even with 2 <= degree < nodes");
      }
      break;
    case TopologyKind::kBarabasiAlbert:
      // m = degree/2 links per joiner, grown from an (m+1)-node clique.
      if (topo.degree < 2 || spec.nodes <= topo.degree / 2 + 1) {
        fail_degree(">= 2 with nodes > degree/2 + 1");
      }
      break;
    case TopologyKind::kComplete:
    case TopologyKind::kNewscast:
      if (topo.degree != topo_defaults.degree) {
        fail("topology.degree is only meaningful for the static kinds; "
             "leave it at " +
             std::to_string(topo_defaults.degree) + " for " +
             to_string(topo.kind));
      }
      break;
  }
  if (!(spec.failure.p >= 0.0 && spec.failure.p <= 1.0)) {
    fail("failure.p must be in [0,1], got " + std::to_string(spec.failure.p));
  }
  if (!(spec.failure.fraction >= 0.0 && spec.failure.fraction <= 1.0)) {
    fail("failure.fraction must be in [0,1], got " +
         std::to_string(spec.failure.fraction));
  }
  if (spec.failure.kind == FailureSpec::Kind::kCorrelatedWaves) {
    if (spec.failure.waves < 1) {
      fail("failure.waves must be >= 1 for correlated_waves, got " +
           std::to_string(spec.failure.waves));
    }
    if (static_cast<std::uint32_t>(spec.nodes * spec.failure.fraction) == 0) {
      fail("correlated_waves wave width floor(nodes * fraction) must be "
           ">= 1 (nodes " +
           std::to_string(spec.nodes) + ", fraction " +
           std::to_string(spec.failure.fraction) + ")");
    }
  }
  if (spec.failure.kind == FailureSpec::Kind::kPartition) {
    if (spec.failure.components < 2) {
      fail("failure.components must be >= 2 for partition, got " +
           std::to_string(spec.failure.components));
    }
    if (spec.failure.duration < 1) {
      fail("failure.duration must be >= 1 for partition, got " +
           std::to_string(spec.failure.duration));
    }
  } else if (spec.failure.components != 0 || spec.failure.duration != 0) {
    fail("failure.components and failure.duration are only meaningful for "
         "kind 'partition'; leave them at 0");
  }
  // Joiners enter through the overlay: the runtime's through NEWSCAST
  // caches, the simulators' through NEWSCAST or the complete overlay.
  if ((spec.failure.kind == FailureSpec::Kind::kChurn ||
       spec.failure.kind == FailureSpec::Kind::kChurnFraction) &&
      topo.kind != TopologyKind::kNewscast &&
      (topo.kind != TopologyKind::kComplete ||
       spec.driver == DriverKind::kRuntime)) {
    fail("churn failure kinds need topology.kind 'newscast' (or "
         "'complete' on a driver other than 'runtime'), got '" +
         to_string(topo.kind) + "' on driver '" + to_string(spec.driver) +
         "'");
  }
  if (spec.failure.kind == FailureSpec::Kind::kRestart) {
    if (spec.failure.cycle < 1) {
      fail("failure.cycle is the restart period for kind 'restart'; "
           "it must be >= 1");
    }
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("failure kind 'restart' re-seeds initial estimates and "
           "requires aggregate 'average'");
    }
  }
  if (!(spec.adversary.fraction >= 0.0 && spec.adversary.fraction < 1.0)) {
    fail("adversary.fraction must be in [0,1), got " +
         std::to_string(spec.adversary.fraction));
  }
  if (spec.adversary.behavior == AdversarySpec::Behavior::kNone &&
      spec.adversary.fraction > 0.0) {
    fail("adversary.fraction > 0 requires an adversary.behavior "
         "(value_inject|always_max|cache_pollute)");
  }
  if (spec.adversary.behavior != AdversarySpec::Behavior::kNone) {
    if (spec.driver != DriverKind::kCycle) {
      fail("adversary.behavior requires driver 'cycle', got driver '" +
           to_string(spec.driver) + "'");
    }
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("adversary.behavior requires aggregate 'average', got '" +
           to_string(spec.aggregate) + "'");
    }
    if (!std::isfinite(spec.adversary.value)) {
      fail("adversary.value must be finite");
    }
    if (spec.adversary.behavior != AdversarySpec::Behavior::kValueInject &&
        spec.adversary.value != 0.0) {
      fail("adversary.value is only meaningful for behavior "
           "'value_inject'; leave it at 0");
    }
  }
  if (spec.combine.kind == CombineSpec::Kind::kTrimmedMean) {
    if (!(spec.combine.alpha > 0.0 && spec.combine.alpha < 0.5)) {
      fail("combine.alpha must be in (0,0.5) for trimmed_mean, got " +
           std::to_string(spec.combine.alpha));
    }
  } else if (spec.combine.alpha != 0.0) {
    fail("combine.alpha is only meaningful for kind 'trimmed_mean'; "
         "leave it at 0");
  }
  if (spec.combine.kind == CombineSpec::Kind::kMedianOfMeans) {
    if (spec.combine.groups < 1) {
      fail("combine.groups must be >= 1 for median_of_means");
    }
    if (spec.combine.groups > spec.combine.window + 1) {
      fail("combine.groups must be <= combine.window + 1 (each group "
           "needs at least one report), got groups " +
           std::to_string(spec.combine.groups) + " with window " +
           std::to_string(spec.combine.window));
    }
  } else if (spec.combine.groups != 0) {
    fail("combine.groups is only meaningful for kind 'median_of_means'; "
         "leave it at 0");
  }
  if (spec.combine.window < 2 || spec.combine.window > 64) {
    fail("combine.window must be in [2,64], got " +
         std::to_string(spec.combine.window));
  }
  if (spec.combine.kind != CombineSpec::Kind::kMean) {
    if (spec.driver != DriverKind::kCycle) {
      fail("robust combine kinds require driver 'cycle', got driver '" +
           to_string(spec.driver) + "'");
    }
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("robust combine kinds require aggregate 'average', got '" +
           to_string(spec.aggregate) + "'");
    }
  }
  if (spec.drift.kind == DriftSpec::Kind::kNone) {
    if (spec.drift.rate != 0.0 || spec.drift.magnitude != 0.0 ||
        spec.drift.start_cycle != 0) {
      fail("drift kind 'none' takes no parameters; leave rate, magnitude "
           "and start_cycle at 0");
    }
  } else {
    if (spec.driver != DriverKind::kCycle &&
        spec.driver != DriverKind::kRuntime) {
      fail("drift requires driver 'cycle' or 'runtime', got driver '" +
           to_string(spec.driver) + "'");
    }
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("drift tracks a moving mean and requires aggregate 'average', "
           "got '" +
           to_string(spec.aggregate) + "'");
    }
    if (spec.drift.start_cycle >= spec.cycles) {
      fail("drift.start_cycle must be < cycles (a drift that starts after "
           "the run ends is a no-op), got " +
           std::to_string(spec.drift.start_cycle) + " with cycles " +
           std::to_string(spec.cycles));
    }
    if (spec.drift.kind == DriftSpec::Kind::kStep) {
      if (!std::isfinite(spec.drift.magnitude) ||
          spec.drift.magnitude == 0.0) {
        fail("drift.magnitude must be finite and non-zero for kind "
             "'step', got " +
             std::to_string(spec.drift.magnitude));
      }
      if (spec.drift.rate != 0.0) {
        fail("drift.rate is only meaningful for kinds "
             "'linear'/'random_walk'; leave it at 0 for 'step'");
      }
    } else {  // linear / random_walk
      if (!std::isfinite(spec.drift.rate) || spec.drift.rate == 0.0 ||
          std::abs(spec.drift.rate) > 1e6) {
        fail("drift.rate must be finite, non-zero and within [-1e6,1e6] "
             "for kind '" +
             to_string(spec.drift.kind) + "', got " +
             std::to_string(spec.drift.rate));
      }
      if (spec.drift.magnitude != 0.0) {
        fail("drift.magnitude is only meaningful for kind 'step'; leave "
             "it at 0");
      }
    }
  }
  if (!spec.service.pipeline) {
    if (spec.service.epoch_cycles != 0 || spec.service.staleness_bound != 0) {
      fail("service parameters need service.pipeline = true; leave "
           "epoch_cycles and staleness_bound at 0");
    }
  } else {
    if (spec.driver != DriverKind::kCycle) {
      fail("service.pipeline requires driver 'cycle', got driver '" +
           to_string(spec.driver) + "'");
    }
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("service.pipeline publishes the scalar mean and requires "
           "aggregate 'average', got '" +
           to_string(spec.aggregate) + "'");
    }
    if (spec.service.epoch_cycles < 1 ||
        spec.service.epoch_cycles > spec.cycles) {
      fail("service.epoch_cycles must be in [1, cycles] (an epoch longer "
           "than the run never publishes), got " +
           std::to_string(spec.service.epoch_cycles) + " with cycles " +
           std::to_string(spec.cycles));
    }
    if (spec.service.staleness_bound < 1) {
      fail("service.staleness_bound must be >= 1 (a freshly published "
           "snapshot is already 1 cycle old when queried)");
    }
    if (spec.failure.kind == FailureSpec::Kind::kRestart) {
      fail("service.pipeline replaces epoch restarts; failure.kind "
           "'restart' is incompatible");
    }
  }
  if (!(spec.comm.link_failure >= 0.0 && spec.comm.link_failure <= 1.0)) {
    fail("comm.link_failure must be a probability in [0,1], got " +
         std::to_string(spec.comm.link_failure));
  }
  if (!(spec.comm.message_loss >= 0.0 && spec.comm.message_loss <= 1.0)) {
    fail("comm.message_loss must be a probability in [0,1], got " +
         std::to_string(spec.comm.message_loss));
  }
  // Drivers must reject spec fields they would otherwise silently drop —
  // a churn plan on a driver that never executes it would produce a
  // clean no-failure series labeled as a churn run.
  if (!spec.atomic_exchanges && spec.driver != DriverKind::kEvent) {
    fail("atomic_exchanges = false requires driver 'event' (every other "
         "driver always runs atomic exchanges), got driver '" +
         to_string(spec.driver) + "'");
  }
  if (spec.driver == DriverKind::kEvent) {
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("driver 'event' supports aggregate 'average' only");
    }
    // Event-engine descriptors are stamped with simulated microseconds
    // (δ = proto::World::kCycleLength = 10⁶ µs), which must fit the
    // packed 32-bit logical clock of membership::CacheEntry.
    if (spec.cycles > 4294u) {
      fail("driver 'event' stamps simulated microseconds into the packed "
           "32-bit logical clock; cycles must be <= 4294, got " +
           std::to_string(spec.cycles));
    }
    if (spec.failure.kind != FailureSpec::Kind::kNone) {
      fail("driver 'event' does not execute a failure plan; failure.kind "
           "must be 'none' (got '" +
           to_string(spec.failure.kind) + "')");
    }
    if (spec.comm.link_failure != 0.0) {
      fail("driver 'event' models message loss only; comm.link_failure "
           "must be 0");
    }
    if (!(spec.topology == TopologyConfig{})) {
      fail("driver 'event' uses its own bootstrap membership and ignores "
           "topology; leave topology at its default");
    }
  }
  if (spec.driver == DriverKind::kPushSum) {
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("driver 'push_sum' supports aggregate 'average' only");
    }
    if (spec.failure.kind != FailureSpec::Kind::kNone) {
      fail("driver 'push_sum' does not execute a failure plan; "
           "failure.kind must be 'none' (got '" +
           to_string(spec.failure.kind) + "')");
    }
    if (spec.comm.link_failure != 0.0) {
      fail("driver 'push_sum' models message loss only; "
           "comm.link_failure must be 0");
    }
  }
  if (spec.driver == DriverKind::kRuntime) {
    if (spec.aggregate != AggregateKind::kAverage) {
      fail("driver 'runtime' supports aggregate 'average' only");
    }
    if (spec.engine != EngineKind::kAuto &&
        spec.engine != EngineKind::kSerial) {
      fail("driver 'runtime' hosts its own worker threads; engine must be "
           "'auto' or 'serial', got '" +
           to_string(spec.engine) + "'");
    }
    if (spec.comm.link_failure != 0.0) {
      fail("driver 'runtime' models per-message loss only; "
           "comm.link_failure must be 0");
    }
    switch (spec.failure.kind) {
      case FailureSpec::Kind::kNone:
      case FailureSpec::Kind::kProportionalCrash:
      case FailureSpec::Kind::kSuddenDeath:
      case FailureSpec::Kind::kChurn:
      case FailureSpec::Kind::kChurnFraction:
      case FailureSpec::Kind::kConstantCrash:
      case FailureSpec::Kind::kCorrelatedWaves:
        break;
      default:
        fail("driver 'runtime' supports failure kinds "
             "none|proportional_crash|sudden_death|churn|churn_fraction|"
             "constant_crash|correlated_waves, got '" +
             to_string(spec.failure.kind) + "'");
    }
    const RuntimeSpec& r = spec.runtime;
    if (r.workers > kMaxThreads) {
      fail("runtime.workers must be <= " + std::to_string(kMaxThreads) +
           ", got " + std::to_string(r.workers));
    }
    if (r.wheel_slots < 1 || r.wheel_slots > 1024) {
      fail("runtime.wheel_slots must be in [1,1024], got " +
           std::to_string(r.wheel_slots));
    }
    if (r.delta_us > 10000000u) {
      fail("runtime.delta_us must be <= 10000000 (10 s per cycle), got " +
           std::to_string(r.delta_us));
    }
    if (r.timeout_ms < 1 || r.timeout_ms > 600000u) {
      fail("runtime.timeout_ms must be in [1,600000], got " +
           std::to_string(r.timeout_ms));
    }
    switch (r.latency) {
      case RuntimeSpec::LatencyKind::kNone:
        if (r.delay_lo_us != 0 || r.delay_hi_us != 0) {
          fail("runtime.latency 'none' takes no delay parameters; leave "
               "delay_lo_us and delay_hi_us at 0");
        }
        break;
      case RuntimeSpec::LatencyKind::kFixed:
        if (r.delay_lo_us < 1 || r.delay_hi_us != 0) {
          fail("runtime.latency 'fixed' uses delay_lo_us (>= 1) as the "
               "delay and leaves delay_hi_us at 0");
        }
        break;
      case RuntimeSpec::LatencyKind::kUniform:
        if (r.delay_hi_us < 1 || r.delay_lo_us > r.delay_hi_us) {
          fail("runtime.latency 'uniform' needs delay_lo_us <= delay_hi_us "
               "with delay_hi_us >= 1");
        }
        break;
      case RuntimeSpec::LatencyKind::kExponential:
        if (r.delay_hi_us < 1) {
          fail("runtime.latency 'exponential' uses delay_lo_us as base and "
               "delay_hi_us (>= 1) as the tail mean");
        }
        break;
    }
    if (r.transport == RuntimeSpec::TransportKind::kLoopback) {
      if (r.processes != 1 || r.process_index != 0 || r.port_base != 0) {
        fail("runtime.transport 'loopback' is single-process; leave "
             "processes at 1, process_index and port_base at 0");
      }
    } else {  // socket
      if (r.processes < 2 || r.processes > 64) {
        fail("runtime.transport 'socket' needs processes in [2,64], got " +
             std::to_string(r.processes));
      }
      if (r.process_index >= r.processes) {
        fail("runtime.process_index must be < runtime.processes, got " +
             std::to_string(r.process_index) + " with " +
             std::to_string(r.processes) + " processes");
      }
      if (r.port_base < 1024 || r.port_base + r.processes - 1 > 65535u) {
        fail("runtime.port_base must leave ports base..base+processes-1 "
             "inside [1024,65535], got " +
             std::to_string(r.port_base));
      }
      if (spec.reps != 1) {
        fail("runtime.transport 'socket' runs cooperating processes and "
             "requires reps == 1, got " +
             std::to_string(spec.reps));
      }
      if (spec.sweep.axis != SweepAxis::kNone) {
        fail("runtime.transport 'socket' requires sweep axis 'none' "
             "(every process must execute the identical point)");
      }
      if (spec.failure.kind != FailureSpec::Kind::kNone) {
        fail("runtime.transport 'socket' does not coordinate a failure "
             "plan across processes; failure.kind must be 'none'");
      }
      if (spec.nodes < 2 * r.processes) {
        fail("runtime.transport 'socket' needs nodes >= 2 * processes so "
             "every process hosts at least two nodes, got " +
             std::to_string(spec.nodes) + " nodes over " +
             std::to_string(r.processes) + " processes");
      }
    }
  } else if (!(spec.runtime == RuntimeSpec{})) {
    fail("runtime.* fields require driver 'runtime', got driver '" +
         to_string(spec.driver) + "'");
  }
  if (spec.engine == EngineKind::kIntraRep &&
      spec.driver != DriverKind::kCycle) {
    fail("engine 'intra_rep' requires driver 'cycle', got driver '" +
         to_string(spec.driver) + "'");
  }
  // The cycle engines start up to `threads` pool threads, and the
  // runtime as many executor workers when runtime.workers is 0.
  if (spec.threads > kMaxThreads) {
    fail("threads must be <= " + std::to_string(kMaxThreads) + ", got " +
         std::to_string(spec.threads));
  }
  if (spec.match_rounds < 1 || spec.match_rounds > 16) {
    fail("match_rounds must be in [1,16], got " +
         std::to_string(spec.match_rounds));
  }
  if (spec.match_rounds > 1 && spec.engine != EngineKind::kIntraRep) {
    // Only the intra-rep engine has a match phase; every other engine
    // would silently drop the field and mislabel the series.
    fail("match_rounds > 1 requires engine 'intra_rep' (other engines "
         "have no match phase), got engine '" +
         to_string(spec.engine) + "'");
  }
}

}  // namespace

void validate(const ScenarioSpec& spec) {
  if (spec.sweep.points.empty()) {
    throw SpecError("spec: sweep.points must hold at least one point (use "
                    "sweep axis 'none' with a single seed_point for "
                    "unswept runs)");
  }
  if (spec.sweep.axis == SweepAxis::kNone) {
    if (spec.sweep.points.size() != 1) {
      throw SpecError("spec: sweep axis 'none' requires exactly one point, "
                      "got " +
                      std::to_string(spec.sweep.points.size()));
    }
    validate_fields(spec);
    return;
  }
  // Each point is checked as the spec the Engine runs for it, so a sweep
  // reaches no value its field would reject.
  for (std::size_t i = 0; i < spec.sweep.points.size(); ++i) {
    const ScenarioSpec point = spec.at_point(i);
    try {
      validate_fields(point);
    } catch (const SpecError& e) {
      throw SpecError(e.what() + at_sweep_point(spec.sweep.points[i].value));
    }
  }
}

// ------------------------------------------------------------------ hash

std::uint64_t fnv1a64(std::uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return out;
}

std::uint64_t spec_hash(const ScenarioSpec& spec) {
  return fnv1a64(kFnvOffsetBasis, to_json(spec, /*indent=*/-1));
}

std::string spec_hash_hex(const ScenarioSpec& spec) {
  return hex64(spec_hash(spec));
}

// ------------------------------------------------------------- overrides

EngineKind engine_kind_from_string(const std::string& name) {
  return value_of(kEngineNames, name, "engine");
}

std::uint64_t parse_u64_field(const std::string& field,
                              const std::string& value) {
  // std::stoull would silently wrap a leading minus ("-1" -> 2^64-1);
  // anything that does not start with a digit is rejected up front.
  const bool starts_with_digit =
      !value.empty() && value.front() >= '0' && value.front() <= '9';
  try {
    if (!starts_with_digit) throw std::invalid_argument(value);
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used, 0);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (...) {
    throw SpecError("spec: --set " + field +
                    " expects an unsigned integer, got '" + value + "'");
  }
}

std::uint32_t parse_u32_field(const std::string& field,
                              const std::string& value) {
  const std::uint64_t v = parse_u64_field(field, value);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw SpecError("spec: --set " + field +
                    " must be <= 4294967295, got '" + value + "'");
  }
  return static_cast<std::uint32_t>(v);
}

namespace {

/// Plain O(len²) Levenshtein distance — keys are a dozen characters.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t subst = diag + (a[i - 1] != b[j - 1] ? 1 : 0);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

namespace {

template <typename Range>
std::string nearest_key_in(const std::string& key, const Range& valid) {
  std::string best;
  std::size_t best_distance = 0;
  for (const char* candidate : valid) {
    const std::size_t d = edit_distance(key, candidate);
    if (best.empty() || d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  // Only suggest plausible typos: within 2 edits, or 1/3 of the key for
  // longer names ("agregate" -> aggregate, "match-rounds" ->
  // match_rounds) — never "warp" -> "reps".
  const std::size_t budget = std::max<std::size_t>(2, key.size() / 3);
  return best_distance <= budget ? best : std::string();
}

}  // namespace

std::string nearest_key(const std::string& key,
                        std::initializer_list<const char*> valid) {
  return nearest_key_in(key, valid);
}

std::string nearest_key(const std::string& key,
                        const std::vector<const char*>& valid) {
  return nearest_key_in(key, valid);
}

// ---------------------------------------------------------- introspection

const std::vector<SpecFieldDescriptor>& spec_field_table() {
#define GOSSIP_DESC_ONE(member, json_key, tag, extra, emit, set_tok, set_key) \
  {GOSSIP_DESC_PREFIX json_key, #tag, set_key},
  static const std::vector<SpecFieldDescriptor> table = {
#define GOSSIP_DESC_PREFIX ""
      GOSSIP_SPEC_TOP_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "topology."
      GOSSIP_SPEC_TOPOLOGY_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "failure."
      GOSSIP_SPEC_FAILURE_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "comm."
      GOSSIP_SPEC_COMM_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "adversary."
      GOSSIP_SPEC_ADVERSARY_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "combine."
      GOSSIP_SPEC_COMBINE_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "drift."
      GOSSIP_SPEC_DRIFT_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "service."
      GOSSIP_SPEC_SERVICE_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "runtime."
      GOSSIP_SPEC_RUNTIME_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "sweep."
      GOSSIP_SPEC_SWEEP_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
#define GOSSIP_DESC_PREFIX "sweep.points."
      GOSSIP_SPEC_SWEEP_POINT_FIELDS(GOSSIP_DESC_ONE)
#undef GOSSIP_DESC_PREFIX
  };
  return table;
}

const std::vector<const char*>& spec_set_keys() {
#define GOSSIP_SETKEY_SET(set_key) set_key,
#define GOSSIP_SETKEY_NOSET(set_key)
#define GOSSIP_SETKEY_ONE(member, json_key, tag, extra, emit, set_tok, \
                          set_key)                                     \
  GOSSIP_SETKEY_##set_tok(set_key)
  static const std::vector<const char*> keys = {
      GOSSIP_SPEC_TOP_FIELDS(GOSSIP_SETKEY_ONE)
      GOSSIP_SPEC_ADVERSARY_FIELDS(GOSSIP_SETKEY_ONE)
      GOSSIP_SPEC_COMBINE_FIELDS(GOSSIP_SETKEY_ONE)
      GOSSIP_SPEC_DRIFT_FIELDS(GOSSIP_SETKEY_ONE)
      GOSSIP_SPEC_SERVICE_FIELDS(GOSSIP_SETKEY_ONE)
      GOSSIP_SPEC_RUNTIME_FIELDS(GOSSIP_SETKEY_ONE)
  };
  return keys;
}

namespace {

bool parse_set_bool(const char* field, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  throw SpecError(std::string("spec: --set ") + field +
                  " expects true/false, got '" + value + "'");
}

double parse_set_double(const char* field, const std::string& value) {
  try {
    std::size_t used = 0;
    const double d = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return d;
  } catch (...) {
    throw SpecError(std::string("spec: --set ") + field +
                    " expects a number, got '" + value + "'");
  }
}

}  // namespace

void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value) {
// GOSSIP_SETVAL_<tag>: parse `value` into one settable member, with the
// --set key as the error-message field name.
#define GOSSIP_SETVAL_STR(lhs, extra, skey) lhs = value
#define GOSSIP_SETVAL_U32(lhs, extra, skey) lhs = parse_u32_field(skey, value)
#define GOSSIP_SETVAL_U64(lhs, extra, skey) lhs = parse_u64_field(skey, value)
#define GOSSIP_SETVAL_UNS(lhs, extra, skey) lhs = parse_u32_field(skey, value)
#define GOSSIP_SETVAL_DBL(lhs, extra, skey) lhs = parse_set_double(skey, value)
#define GOSSIP_SETVAL_BOOL(lhs, extra, skey) lhs = parse_set_bool(skey, value)
#define GOSSIP_SETVAL_ENUM(lhs, extra, skey) lhs = value_of(extra, value, skey)
// SET/NOSET dispatch: NOSET rows vanish; SET rows become one `if`.
// GOSSIP_SET_OWNER names the owning object of the group being expanded.
#define GOSSIP_SET_NOSET(member, tag, extra, set_key)
#define GOSSIP_SET_SET(member, tag, extra, set_key)               \
  if (key == set_key) {                                           \
    GOSSIP_SETVAL_##tag(GOSSIP_SET_OWNER.member, extra, set_key); \
    return;                                                       \
  }
#define GOSSIP_SET_ONE(member, json_key, tag, extra, emit, set_tok, set_key) \
  GOSSIP_SET_##set_tok(member, tag, extra, set_key)

#define GOSSIP_SET_OWNER spec
  GOSSIP_SPEC_TOP_FIELDS(GOSSIP_SET_ONE)
#undef GOSSIP_SET_OWNER
#define GOSSIP_SET_OWNER spec.adversary
  GOSSIP_SPEC_ADVERSARY_FIELDS(GOSSIP_SET_ONE)
#undef GOSSIP_SET_OWNER
#define GOSSIP_SET_OWNER spec.combine
  GOSSIP_SPEC_COMBINE_FIELDS(GOSSIP_SET_ONE)
#undef GOSSIP_SET_OWNER
#define GOSSIP_SET_OWNER spec.drift
  GOSSIP_SPEC_DRIFT_FIELDS(GOSSIP_SET_ONE)
#undef GOSSIP_SET_OWNER
#define GOSSIP_SET_OWNER spec.service
  GOSSIP_SPEC_SERVICE_FIELDS(GOSSIP_SET_ONE)
#undef GOSSIP_SET_OWNER
#define GOSSIP_SET_OWNER spec.runtime
  GOSSIP_SPEC_RUNTIME_FIELDS(GOSSIP_SET_ONE)
#undef GOSSIP_SET_OWNER

  std::string supported;
  for (const char* k : spec_set_keys()) {
    if (!supported.empty()) supported += "|";
    supported += k;
  }
  const std::string suggestion = nearest_key(key, spec_set_keys());
  throw SpecError(
      "spec: --set supports " + supported + ", got '" + key + "'" +
      (suggestion.empty() ? "" : " (did you mean '" + suggestion + "'?)"));
}

}  // namespace gossip::experiment
