// The declarative ScenarioSpec API: JSON round-trip identity on every
// registered scenario, golden validation-error messages, --set
// overrides, 32-bit range and thread-bound checks, spec hashing, and the
// underlying JSON module's exactness guarantees (doubles round-trip
// bit-for-bit, u64 seeds survive).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "experiment/engine.hpp"
#include "experiment/parallel_runner.hpp"
#include "experiment/registry.hpp"
#include "experiment/scale.hpp"
#include "experiment/spec.hpp"

namespace gossip::experiment {
namespace {

// ----------------------------------------------------------- round-trip

TEST(SpecRoundTrip, EveryRegisteredScenarioSurvivesParseSerializeParse) {
  const Scale scale{400, 3, 0x5eed, false};
  for (const ScenarioDef& def : ScenarioRegistry::instance().all()) {
    for (const ScenarioSpec& spec : def.build(scale)) {
      SCOPED_TRACE(spec.name);
      const std::string text = to_json(spec);
      const ScenarioSpec reparsed = spec_from_json(text);
      EXPECT_EQ(reparsed, spec);
      // parse ∘ serialize ∘ parse is the identity, textually too.
      EXPECT_EQ(to_json(reparsed), text);
      // Compact form round-trips the same way.
      EXPECT_EQ(spec_from_json(to_json(spec, -1)), spec);
    }
  }
}

TEST(SpecRoundTrip, DoublesSurviveBitForBit) {
  ScenarioSpec spec = ScenarioSpec::average_peak("doubles", 100, 5);
  // beta = 0.30000000000000004
  spec.topology = TopologyConfig::watts_strogatz(20, 0.1 + 0.2);
  spec.comm.message_loss = 1.0 / 3.0;
  spec.failure = FailureSpec::sudden_death(2, 0.005 * 3);
  spec.with_sweep(SweepAxis::kLossP, {{0.1, 7, ""}, {1.0 / 7.0, 8, ""}});
  const ScenarioSpec reparsed = spec_from_json(to_json(spec));
  EXPECT_EQ(reparsed.topology.beta, spec.topology.beta);
  EXPECT_EQ(reparsed.comm.message_loss, spec.comm.message_loss);
  EXPECT_EQ(reparsed.failure.fraction, spec.failure.fraction);
  EXPECT_EQ(reparsed.sweep.points[1].value, spec.sweep.points[1].value);
}

TEST(SpecRoundTrip, U64SeedSurvives) {
  ScenarioSpec spec = ScenarioSpec::average_peak("seed", 100, 5);
  spec.seed = 0xfedcba9876543210ULL;  // would lose precision as a double
  EXPECT_EQ(spec_from_json(to_json(spec)).seed, spec.seed);
}

TEST(SpecDefaults, MissingFieldsFillDefaults) {
  const ScenarioSpec spec = spec_from_json(R"({"name": "minimal"})");
  EXPECT_EQ(spec.name, "minimal");
  EXPECT_EQ(spec.driver, DriverKind::kCycle);
  EXPECT_EQ(spec.aggregate, AggregateKind::kAverage);
  EXPECT_EQ(spec.nodes, 10000u);
  EXPECT_EQ(spec.engine, EngineKind::kAuto);
  EXPECT_EQ(spec.sweep.points.size(), 1u);
}

// ------------------------------------------- golden validation messages

void expect_spec_error(const std::string& json_text,
                       const std::string& expected) {
  try {
    (void)spec_from_json(json_text);
    FAIL() << "expected SpecError for: " << json_text;
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()), expected) << json_text;
  }
}

TEST(SpecValidation, GoldenErrorMessages) {
  expect_spec_error(R"({})", "spec: 'name' must be a non-empty string");
  expect_spec_error(R"({"name": "x", "nodes": 1})",
                    "spec: nodes must be >= 2, got 1");
  expect_spec_error(R"({"name": "x", "cycles": 0})",
                    "spec: cycles must be >= 1");
  // The packed 32-bit logical clock (membership::CacheEntry) bounds the
  // timestamps a run can stamp.
  expect_spec_error(R"({"name": "x", "cycles": 4294967295})",
                    "spec: cycles must fit the packed 32-bit logical clock "
                    "(<= 4294967294), got 4294967295");
  expect_spec_error(
      R"({"name": "x", "driver": "event", "cycles": 4295})",
      "spec: driver 'event' stamps simulated microseconds into the packed "
      "32-bit logical clock; cycles must be <= 4294, got 4295");
  expect_spec_error(R"({"name": "x", "reps": 0})",
                    "spec: reps must be >= 1");
  expect_spec_error(
      R"({"name": "x", "instances": 3})",
      "spec: aggregate 'average' requires instances == 1, got 3");
  expect_spec_error(
      R"({"name": "x", "bogus_field": 1})",
      "spec: unknown field 'bogus_field' in spec");
  expect_spec_error(
      R"({"name": "x", "topology": {"kind": "hypercube"}})",
      "spec: topology.kind must be one of "
      "complete|random_k_out|ring_lattice|watts_strogatz|barabasi_albert|"
      "newscast, got 'hypercube'");
  expect_spec_error(
      R"({"name": "x", "comm": {"message_loss": 1.5}})",
      "spec: comm.message_loss must be a probability in [0,1], got "
      "1.500000");
  expect_spec_error(
      R"({"name": "x", "failure": {"kind": "sometimes"}})",
      "spec: failure.kind must be one of "
      "none|proportional_crash|sudden_death|churn|churn_fraction|"
      "constant_crash|correlated_waves|partition|restart, got 'sometimes'");
  expect_spec_error(
      R"({"name": "x", "sweep": {"axis": "loss_p", "points": []}})",
      "spec: sweep.points must hold at least one point (use sweep axis "
      "'none' with a single seed_point for unswept runs)");
  expect_spec_error(
      R"({"name": "x", "driver": "push_sum", "engine": "intra_rep"})",
      "spec: engine 'intra_rep' requires driver 'cycle', got driver "
      "'push_sum'");
  expect_spec_error(
      R"({"name": "x", "match_rounds": 0})",
      "spec: match_rounds must be in [1,16], got 0");
  expect_spec_error(
      R"({"name": "x", "match_rounds": 17, "engine": "intra_rep"})",
      "spec: match_rounds must be in [1,16], got 17");
  expect_spec_error(
      R"({"name": "x", "match_rounds": 3})",
      "spec: match_rounds > 1 requires engine 'intra_rep' (other engines "
      "have no match phase), got engine 'auto'");
  expect_spec_error(
      R"({"name": "x", "driver": "event", "aggregate": "count",
          "instances": 2})",
      "spec: driver 'event' supports aggregate 'average' only");
  expect_spec_error(R"(not json)",
                    "spec: invalid JSON: invalid literal at offset 0");
}

TEST(SpecValidation, GoldenAdversarialErrorMessages) {
  // Unknown-field errors now carry a nearest-key suggestion when a
  // plausible typo exists...
  expect_spec_error(
      R"({"name": "x", "failure": {"kind": "churn", "fractoin": 0.1}})",
      "spec: unknown field 'fractoin' in failure (did you mean "
      "'fraction'?)");
  expect_spec_error(
      R"({"name": "x", "adversary": {"behaviour": "always_max"}})",
      "spec: unknown field 'behaviour' in adversary (did you mean "
      "'behavior'?)");
  // ...and stay suggestion-free when nothing is close (the pre-existing
  // 'bogus_field' golden above pins the top-level case).
  expect_spec_error(
      R"({"name": "x", "combine": {"quorum": 3}})",
      "spec: unknown field 'quorum' in combine");
  expect_spec_error(
      R"({"name": "x", "adversary": {"behavior": "grief"}})",
      "spec: adversary.behavior must be one of "
      "none|value_inject|always_max|cache_pollute, got 'grief'");
  expect_spec_error(
      R"({"name": "x", "combine": {"kind": "mode"}})",
      "spec: combine.kind must be one of "
      "mean|trimmed_mean|median_of_means, got 'mode'");
  expect_spec_error(
      R"({"name": "x",
          "adversary": {"behavior": "value_inject", "fraction": 1.0}})",
      "spec: adversary.fraction must be in [0,1), got 1.000000");
  expect_spec_error(
      R"({"name": "x", "adversary": {"fraction": 0.1}})",
      "spec: adversary.fraction > 0 requires an adversary.behavior "
      "(value_inject|always_max|cache_pollute)");
  expect_spec_error(
      R"({"name": "x", "driver": "push_sum",
          "adversary": {"behavior": "always_max", "fraction": 0.1}})",
      "spec: adversary.behavior requires driver 'cycle', got driver "
      "'push_sum'");
  expect_spec_error(
      R"({"name": "x", "combine": {"kind": "trimmed_mean", "alpha": 0.5}})",
      "spec: combine.alpha must be in (0,0.5) for trimmed_mean, got "
      "0.500000");
  expect_spec_error(
      R"({"name": "x", "combine": {"kind": "median_of_means"}})",
      "spec: combine.groups must be >= 1 for median_of_means");
  expect_spec_error(
      R"({"name": "x",
          "combine": {"kind": "median_of_means", "groups": 12,
                      "window": 4}})",
      "spec: combine.groups must be <= combine.window + 1 (each group "
      "needs at least one report), got groups 12 with window 4");
  expect_spec_error(
      R"({"name": "x",
          "combine": {"kind": "trimmed_mean", "alpha": 0.25, "window": 1}})",
      "spec: combine.window must be in [2,64], got 1");
  expect_spec_error(
      R"({"name": "x", "failure": {"kind": "partition", "duration": 5}})",
      "spec: failure.components must be >= 2 for partition, got 0");
  expect_spec_error(
      R"({"name": "x",
          "failure": {"kind": "partition", "components": 2}})",
      "spec: failure.duration must be >= 1 for partition, got 0");
  expect_spec_error(
      R"({"name": "x", "failure": {"kind": "correlated_waves"}})",
      "spec: failure.waves must be >= 1 for correlated_waves, got 0");
  expect_spec_error(
      R"({"name": "x", "nodes": 100,
          "failure": {"kind": "correlated_waves", "waves": 3,
                      "fraction": 0.001}})",
      "spec: correlated_waves wave width floor(nodes * fraction) must be "
      ">= 1 (nodes 100, fraction 0.001000)");
  expect_spec_error(
      R"({"name": "x", "failure": {"kind": "restart"}})",
      "spec: failure.cycle is the restart period for kind 'restart'; "
      "it must be >= 1");
}

TEST(SpecValidation, GoldenDriftServiceErrorMessages) {
  // The packed lane index [node * instances + i] is 32-bit; validation
  // rejects the overflow at the top-level field…
  expect_spec_error(
      R"({"name": "x", "aggregate": "count", "nodes": 1000000,
          "instances": 100000})",
      "spec: nodes * instances must fit the packed 32-bit lane index "
      "(<= 4294967295), got 100000000000");
  // …and at every instances sweep point, so a sweep can't smuggle one in.
  expect_spec_error(
      R"({"name": "x", "aggregate": "count", "nodes": 1000000,
          "sweep": {"axis": "instances",
                    "points": [{"value": 100000, "seed_point": 1}]}})",
      "spec: nodes * instances must fit the packed 32-bit lane index "
      "(<= 4294967295), got 100000000000 at sweep point 100000.000000");
  expect_spec_error(
      R"({"name": "x", "drift": {"kind": "none", "rate": 0.5}})",
      "spec: drift kind 'none' takes no parameters; leave rate, magnitude "
      "and start_cycle at 0");
  expect_spec_error(
      R"({"name": "x", "driver": "push_sum",
          "drift": {"kind": "linear", "rate": 0.01}})",
      "spec: drift requires driver 'cycle' or 'runtime', got driver "
      "'push_sum'");
  expect_spec_error(
      R"({"name": "x", "aggregate": "count",
          "drift": {"kind": "linear", "rate": 0.01}})",
      "spec: drift tracks a moving mean and requires aggregate 'average', "
      "got 'count'");
  expect_spec_error(
      R"({"name": "x", "cycles": 8,
          "drift": {"kind": "linear", "rate": 0.01, "start_cycle": 20}})",
      "spec: drift.start_cycle must be < cycles (a drift that starts "
      "after the run ends is a no-op), got 20 with cycles 8");
  expect_spec_error(
      R"({"name": "x", "drift": {"kind": "step"}})",
      "spec: drift.magnitude must be finite and non-zero for kind "
      "'step', got 0.000000");
  expect_spec_error(
      R"({"name": "x",
          "drift": {"kind": "step", "magnitude": 1.0, "rate": 0.5}})",
      "spec: drift.rate is only meaningful for kinds "
      "'linear'/'random_walk'; leave it at 0 for 'step'");
  expect_spec_error(
      R"({"name": "x", "drift": {"kind": "linear"}})",
      "spec: drift.rate must be finite, non-zero and within [-1e6,1e6] "
      "for kind 'linear', got 0.000000");
  expect_spec_error(
      R"({"name": "x", "drift": {"kind": "random_walk", "rate": 2000000}})",
      "spec: drift.rate must be finite, non-zero and within [-1e6,1e6] "
      "for kind 'random_walk', got 2000000.000000");
  expect_spec_error(
      R"({"name": "x",
          "drift": {"kind": "linear", "rate": 0.01, "magnitude": 1.0}})",
      "spec: drift.magnitude is only meaningful for kind 'step'; leave "
      "it at 0");
  expect_spec_error(
      R"({"name": "x", "service": {"epoch_cycles": 5}})",
      "spec: service parameters need service.pipeline = true; leave "
      "epoch_cycles and staleness_bound at 0");
  expect_spec_error(
      R"({"name": "x", "driver": "push_sum",
          "service": {"pipeline": true, "epoch_cycles": 5,
                      "staleness_bound": 6}})",
      "spec: service.pipeline requires driver 'cycle', got driver "
      "'push_sum'");
  expect_spec_error(
      R"({"name": "x", "aggregate": "count",
          "service": {"pipeline": true, "epoch_cycles": 5,
                      "staleness_bound": 6}})",
      "spec: service.pipeline publishes the scalar mean and requires "
      "aggregate 'average', got 'count'");
  expect_spec_error(
      R"({"name": "x", "cycles": 8,
          "service": {"pipeline": true, "epoch_cycles": 20,
                      "staleness_bound": 6}})",
      "spec: service.epoch_cycles must be in [1, cycles] (an epoch "
      "longer than the run never publishes), got 20 with cycles 8");
  expect_spec_error(
      R"({"name": "x", "service": {"pipeline": true, "epoch_cycles": 5}})",
      "spec: service.staleness_bound must be >= 1 (a freshly published "
      "snapshot is already 1 cycle old when queried)");
  expect_spec_error(
      R"({"name": "x",
          "service": {"pipeline": true, "epoch_cycles": 5,
                      "staleness_bound": 6},
          "failure": {"kind": "restart", "cycle": 4}})",
      "spec: service.pipeline replaces epoch restarts; failure.kind "
      "'restart' is incompatible");
}

TEST(SpecRoundTrip, AdversarialSpecsSurviveAndValidate) {
  ScenarioSpec spec =
      ScenarioSpec::average_peak("adv", 500, 20)
          .with_topology(TopologyConfig::newscast(30))
          .with_failure(FailureSpec::partition(5, 10, 4))
          .with_adversary(AdversarySpec::value_inject(0.1, 100.0))
          .with_combine(CombineSpec::trimmed_mean(0.25));
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec_from_json(to_json(spec)), spec);
  EXPECT_EQ(spec_from_json(to_json(spec, -1)), spec);

  spec.failure = FailureSpec::correlated_waves(4, 3, 0.05);
  spec.adversary = AdversarySpec::cache_pollute(0.2);
  spec.combine = CombineSpec::median_of_means(3, 12);
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec_from_json(to_json(spec)), spec);

  spec.failure = FailureSpec::restart(10);
  spec.adversary = AdversarySpec::none();
  spec.combine = CombineSpec::mean();
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec_from_json(to_json(spec)), spec);
}

TEST(SpecRoundTrip, DriftAndServiceSpecsSurviveAndValidate) {
  ScenarioSpec spec = ScenarioSpec::average_peak("svc", 500, 40)
                          .with_topology(TopologyConfig::newscast(30))
                          .with_drift(DriftSpec::linear(0.01))
                          .with_service(ServiceSpec::pipelined(10, 12));
  spec.init = InitKind::kUniform;
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec_from_json(to_json(spec)), spec);
  EXPECT_EQ(spec_from_json(to_json(spec, -1)), spec);

  spec.drift = DriftSpec::random_walk(0.05, 4);
  spec.failure = FailureSpec::churn_fraction(0.02);
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec_from_json(to_json(spec)), spec);

  spec.drift = DriftSpec::step(0.5, 20);
  spec.service = ServiceSpec::none();
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec_from_json(to_json(spec)), spec);
}

TEST(SpecRoundTrip, DefaultAdversaryAndCombineKeepCanonicalJsonUnchanged) {
  // The adversarial vocabulary must not move a single byte of any
  // pre-existing spec's canonical JSON (provenance hashes are pinned).
  const ScenarioSpec spec = ScenarioSpec::average_peak("plain", 100, 5);
  const std::string text = to_json(spec, -1);
  EXPECT_EQ(text.find("adversary"), std::string::npos) << text;
  EXPECT_EQ(text.find("combine"), std::string::npos) << text;
  EXPECT_EQ(text.find("waves"), std::string::npos) << text;
  EXPECT_EQ(text.find("duration"), std::string::npos) << text;
  EXPECT_EQ(text.find("components"), std::string::npos) << text;
}

TEST(SpecRoundTrip, DefaultDriftAndServiceKeepCanonicalJsonUnchanged) {
  // Same guarantee for the continuous-service vocabulary: a spec that
  // never mentions drift or service must serialize to the exact bytes it
  // did before those fields existed, or every pinned spec_hash breaks.
  const ScenarioSpec spec = ScenarioSpec::average_peak("plain", 100, 5);
  const std::string text = to_json(spec, -1);
  EXPECT_EQ(text.find("drift"), std::string::npos) << text;
  EXPECT_EQ(text.find("service"), std::string::npos) << text;
  EXPECT_EQ(text.find("epoch_cycles"), std::string::npos) << text;
  EXPECT_EQ(text.find("staleness"), std::string::npos) << text;
}

TEST(SpecValidation, AdversarialSweepAxes) {
  ScenarioSpec spec =
      ScenarioSpec::average_peak("x", 500, 20)
          .with_adversary(AdversarySpec::value_inject(0.0, 100.0));
  spec.with_sweep(SweepAxis::kByzFraction,
                  {{0.0, 1, ""}, {0.1, 2, ""}, {0.2, 3, ""}});
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec.at_point(1).adversary.fraction, 0.1);
  spec.sweep.points[1].value = 1.0;  // fractions live in [0,1)
  EXPECT_THROW(validate(spec), SpecError);
  spec.sweep.points[1].value = 0.1;
  spec.adversary = AdversarySpec::none();  // sweeping a no-op adversary
  EXPECT_THROW(validate(spec), SpecError);

  ScenarioSpec part = ScenarioSpec::average_peak("p", 500, 20)
                          .with_failure(FailureSpec::partition(5, 10, 2));
  part.with_sweep(SweepAxis::kPartitionComponents,
                  {{2.0, 1, ""}, {4.0, 2, ""}});
  EXPECT_NO_THROW(validate(part));
  EXPECT_EQ(part.at_point(1).failure.components, 4u);
  part.with_sweep(SweepAxis::kPartitionDuration, {{5.0, 1, ""}});
  EXPECT_NO_THROW(validate(part));
  EXPECT_EQ(part.at_point(0).failure.duration, 5u);
  part.failure = FailureSpec::none();  // axis without a partition failure
  EXPECT_THROW(validate(part), SpecError);
}

TEST(SpecOverride, AdversaryAndCombineKeysApply) {
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5);
  apply_override(spec, "adversary", "value_inject");
  apply_override(spec, "adversary_fraction", "0.1");
  apply_override(spec, "adversary_value", "100");
  apply_override(spec, "combine", "trimmed_mean");
  apply_override(spec, "combine_alpha", "0.25");
  apply_override(spec, "combine_window", "16");
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec.adversary.behavior, AdversarySpec::Behavior::kValueInject);
  EXPECT_EQ(spec.adversary.fraction, 0.1);
  EXPECT_EQ(spec.adversary.value, 100.0);
  EXPECT_EQ(spec.combine.kind, CombineSpec::Kind::kTrimmedMean);
  EXPECT_EQ(spec.combine.alpha, 0.25);
  EXPECT_EQ(spec.combine.window, 16u);
  apply_override(spec, "combine", "median_of_means");
  apply_override(spec, "combine_alpha", "0");
  apply_override(spec, "combine_groups", "3");
  EXPECT_NO_THROW(validate(spec));
  EXPECT_THROW(apply_override(spec, "combine_alpha", "lots"), SpecError);
  EXPECT_THROW(apply_override(spec, "combine", "mode"), SpecError);
  try {
    apply_override(spec, "combine_grops", "3");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'combine_groups'?"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecOverride, DriftAndServiceKeysApply) {
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 20);
  apply_override(spec, "drift", "random_walk");
  apply_override(spec, "drift_rate", "0.05");
  apply_override(spec, "drift_start_cycle", "4");
  apply_override(spec, "service_pipeline", "true");
  apply_override(spec, "service_epoch_cycles", "5");
  apply_override(spec, "service_staleness_bound", "6");
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec.drift.kind, DriftSpec::Kind::kRandomWalk);
  EXPECT_EQ(spec.drift.rate, 0.05);
  EXPECT_EQ(spec.drift.start_cycle, 4u);
  EXPECT_TRUE(spec.service.pipeline);
  EXPECT_EQ(spec.service.epoch_cycles, 5u);
  EXPECT_EQ(spec.service.staleness_bound, 6u);
  apply_override(spec, "drift", "step");
  apply_override(spec, "drift_rate", "0");
  apply_override(spec, "drift_magnitude", "0.5");
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec.drift.kind, DriftSpec::Kind::kStep);
  EXPECT_EQ(spec.drift.magnitude, 0.5);
  apply_override(spec, "service_pipeline", "false");
  apply_override(spec, "service_epoch_cycles", "0");
  apply_override(spec, "service_staleness_bound", "0");
  EXPECT_NO_THROW(validate(spec));
  EXPECT_THROW(apply_override(spec, "drift", "zigzag"), SpecError);
  EXPECT_THROW(apply_override(spec, "drift_rate", "fast"), SpecError);
  EXPECT_THROW(apply_override(spec, "service_pipeline", "maybe"), SpecError);
  try {
    apply_override(spec, "drift_rte", "0.1");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'drift_rate'?"),
              std::string::npos)
        << e.what();
  }
  try {
    apply_override(spec, "service_pipelin", "true");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(
        std::string(e.what()).find("did you mean 'service_pipeline'?"),
        std::string::npos)
        << e.what();
  }
}

TEST(SpecValidation, IntraRepAcceptsCountAndMultiInstance) {
  // The historical scalar-AVERAGE-only restriction is gone: intra_rep
  // runs COUNT and multi-instance workloads (and match_rounds with it).
  ScenarioSpec spec = ScenarioSpec::count("giant-count", 1000, 10, 8)
                          .with_topology(TopologyConfig::newscast(20))
                          .with_engine(EngineKind::kIntraRep)
                          .with_match_rounds(3);
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec_from_json(to_json(spec)), spec);  // match_rounds survives
  EXPECT_NO_THROW((void)resolve_engine(spec, {EngineKind::kIntraRep}));
}

TEST(SpecValidation, EngineOverrideCannotSilentlyDropMatchRounds) {
  // A CLI --set engine=… override bypasses validate()'s spec.engine
  // check; the Engine validates each point with the resolved engine, so
  // it rejects the combination rather than let a non-matching engine
  // silently drop match_rounds and mislabel the series.
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5)
                          .with_engine(EngineKind::kIntraRep)
                          .with_match_rounds(2);
  EXPECT_NO_THROW(validate(spec));
  EXPECT_NO_THROW((void)Engine({EngineKind::kIntraRep}).run_point(spec, 0));
  EXPECT_THROW((void)Engine({EngineKind::kSerial}).run_point(spec, 0),
               SpecError);
  EXPECT_THROW((void)Engine({EngineKind::kRepParallel}).run_point(spec, 0),
               SpecError);
}

TEST(SpecOverride, UnknownKeysSuggestTheNearestValidKey) {
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5);
  try {
    apply_override(spec, "agregate", "count");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("got 'agregate'"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'aggregate'?"), std::string::npos)
        << what;
  }
  try {
    apply_override(spec, "match-rounds", "2");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'match_rounds'?"),
              std::string::npos)
        << e.what();
  }
  // Nothing close: no suggestion tail.
  try {
    apply_override(spec, "zzzzzzzzzz", "1");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"),
              std::string::npos)
        << e.what();
  }
  apply_override(spec, "match_rounds", "3");
  EXPECT_EQ(spec.match_rounds, 3u);
}

TEST(SpecValidation, InitSweepPointsRangeChecked) {
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5);
  spec.with_sweep(SweepAxis::kInit, {{7.0, 1, ""}});
  EXPECT_THROW(validate(spec), SpecError);
}

TEST(SpecValidation, SweepPointRangesCheckedPerAxis) {
  // at_point() casts point values to unsigned fields; validation must
  // reject anything that would be UB or degenerate before it gets there.
  const auto sweep_spec = [](SweepAxis axis, double value,
                             AggregateKind agg = AggregateKind::kAverage) {
    ScenarioSpec spec = agg == AggregateKind::kCount
                            ? ScenarioSpec::count("x", 100, 5)
                            : ScenarioSpec::average_peak("x", 100, 5);
    spec.with_sweep(axis, {{value, 1, ""}});
    return spec;
  };
  EXPECT_THROW(validate(sweep_spec(SweepAxis::kNodes, -5.0)), SpecError);
  EXPECT_THROW(validate(sweep_spec(SweepAxis::kNodes, 1e15)), SpecError);
  EXPECT_THROW(validate(sweep_spec(SweepAxis::kNodes, 1.0)), SpecError);
  EXPECT_NO_THROW(validate(sweep_spec(SweepAxis::kNodes, 500.0)));
  EXPECT_THROW(validate(sweep_spec(SweepAxis::kCacheSize, 0.0)), SpecError);
  EXPECT_THROW(
      validate(sweep_spec(SweepAxis::kCycles, -1.0, AggregateKind::kCount)),
      SpecError);
  EXPECT_THROW(validate(sweep_spec(SweepAxis::kLossP, 1.5,
                                   AggregateKind::kCount)),
               SpecError);
  EXPECT_THROW(validate(sweep_spec(SweepAxis::kChurnFraction, -0.1,
                                   AggregateKind::kCount)),
               SpecError);
  // instances sweeps only make sense for COUNT.
  EXPECT_THROW(validate(sweep_spec(SweepAxis::kInstances, 4.0)), SpecError);
  EXPECT_NO_THROW(
      validate(sweep_spec(SweepAxis::kInstances, 4.0, AggregateKind::kCount)));
}

TEST(SpecValidation, DriversRejectFieldsTheyWouldSilentlyDrop) {
  // push_sum never executes a failure plan; a churn spec must error, not
  // emit a clean no-failure series labeled as a churn run.
  ScenarioSpec ps = ScenarioSpec::average_peak("ps", 100, 5);
  ps.driver = DriverKind::kPushSum;
  ps.failure = FailureSpec::churn(50);
  EXPECT_THROW(validate(ps), SpecError);
  ps.failure = FailureSpec::none();
  ps.comm.link_failure = 0.9;  // push-sum models message loss only
  EXPECT_THROW(validate(ps), SpecError);
  ps.comm.link_failure = 0.0;
  ps.comm.message_loss = 0.2;
  EXPECT_NO_THROW(validate(ps));

  ScenarioSpec ev = ScenarioSpec::average_peak("ev", 100, 5);
  ev.driver = DriverKind::kEvent;
  EXPECT_NO_THROW(validate(ev));
  ev.failure = FailureSpec::sudden_death(3, 0.5);
  EXPECT_THROW(validate(ev), SpecError);
  ev.failure = FailureSpec::none();
  ev.topology = TopologyConfig::random_k_out(20);  // event ignores topology
  EXPECT_THROW(validate(ev), SpecError);
  ev.topology = TopologyConfig{};
  ev.init = InitKind::kUniform;  // every driver starts from initial_values
  EXPECT_NO_THROW(validate(ev));
}

// ------------------------------------------------------------ overrides

TEST(SpecOverride, ScalarFieldsApply) {
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5);
  apply_override(spec, "nodes", "2048");
  EXPECT_EQ(spec.nodes, 2048u);
  apply_override(spec, "engine", "serial");
  EXPECT_EQ(spec.engine, EngineKind::kSerial);
  apply_override(spec, "seed", "0xdead");
  EXPECT_EQ(spec.seed, 0xdeadu);
  apply_override(spec, "init", "bimodal");
  EXPECT_EQ(spec.init, InitKind::kBimodal);
  EXPECT_THROW(apply_override(spec, "nodes", "lots"), SpecError);
  EXPECT_THROW(apply_override(spec, "warp", "9"), SpecError);
}

TEST(SpecOverride, CombinationsValidateAsAWholeNotPerSet) {
  // `instances=4` is invalid for AVERAGE but fine once `aggregate=count`
  // lands too — overrides must not be order-sensitive, so apply_override
  // defers validation to one validate() after the last --set.
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5);
  apply_override(spec, "instances", "4");   // transiently invalid
  apply_override(spec, "aggregate", "count");
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(spec.instances, 4u);
  // A combination that stays invalid is caught by the final validate.
  apply_override(spec, "nodes", "1");
  EXPECT_THROW(validate(spec), SpecError);
}

TEST(SpecOverride, EngineKindParserSharedWithCli) {
  EXPECT_EQ(engine_kind_from_string("intra_rep"), EngineKind::kIntraRep);
  EXPECT_THROW(engine_kind_from_string("warp"), SpecError);
  EXPECT_EQ(parse_u64_field("seed", "0x10"), 16u);
  EXPECT_THROW(parse_u64_field("seed", "ten"), SpecError);
  // std::stoull would wrap "-1" to 2^64-1; the parser must reject signs.
  EXPECT_THROW(parse_u64_field("reps", "-1"), SpecError);
  EXPECT_THROW(parse_u64_field("reps", "+3"), SpecError);
  EXPECT_THROW(parse_u64_field("reps", ""), SpecError);
}

TEST(SpecValidation, InitSweepRequiresAverage) {
  // COUNT never reads spec.init; an init sweep over COUNT would emit
  // identical rows labeled as different distributions.
  ScenarioSpec spec = ScenarioSpec::count("x", 100, 5);
  spec.with_sweep(SweepAxis::kInit, {{0.0, 1, "peak"}, {1.0, 2, "uniform"}});
  EXPECT_THROW(validate(spec), SpecError);
}

// ------------------------------------------------ per-point validation

TEST(SpecValidation, EachSweepPointFailsWithItsFieldsMessage) {
  // Each base spec validates; its failing point, written as a top-level
  // field, is rejected by that field's rule. Swept, validate() must
  // report the same one-line message plus " at sweep point <v>".
  struct Case {
    const char* base;            ///< valid JSON, no sweep
    SweepAxis axis;
    std::vector<double> values;  ///< seed points 1, 2, …
    std::size_t failing;         ///< index of the first rejected point
  };
  const Case cases[] = {
      // push-sum ignores link failure and failure plans.
      {R"({"name": "x", "driver": "push_sum", "nodes": 500, "cycles": 10})",
       SweepAxis::kLinkP, {0.0, 0.9}, 1},
      {R"({"name": "x", "driver": "push_sum", "nodes": 500, "cycles": 10})",
       SweepAxis::kCrashP, {0.0, 0.5}, 0},
      // Points whose runs used to abort with exit 3.
      {R"({"name": "x", "aggregate": "count", "instances": 100,
           "nodes": 1000, "cycles": 10})",
       SweepAxis::kNodes, {50.0}, 0},
      {R"({"name": "x", "nodes": 1000, "cycles": 10,
           "failure": {"kind": "correlated_waves", "cycle": 2,
                       "fraction": 0.01, "waves": 2}})",
       SweepAxis::kNodes, {50.0}, 0},
      // Cross-field rules against the swept cycles.
      {R"({"name": "x", "nodes": 500, "cycles": 30,
           "drift": {"kind": "linear", "rate": 0.01, "start_cycle": 20}})",
       SweepAxis::kCycles, {10.0}, 0},
      {R"({"name": "x", "nodes": 500, "cycles": 30,
           "service": {"pipeline": true, "epoch_cycles": 20,
                       "staleness_bound": 25}})",
       SweepAxis::kCycles, {10.0}, 0},
      // The packed 32-bit lane index and clock. Never run these two:
      // the first asks for ~96 GB.
      {R"({"name": "x", "aggregate": "count", "instances": 4,
           "nodes": 1000, "cycles": 10})",
       SweepAxis::kNodes, {3e9}, 0},
      {R"({"name": "x", "nodes": 100, "cycles": 30})", SweepAxis::kCycles,
       {4294967295.0}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.base);
    ScenarioSpec spec = spec_from_json(c.base);
    std::vector<SweepPoint> points;
    points.reserve(c.values.size());
    for (std::size_t i = 0; i < c.values.size(); ++i) {
      points.push_back({c.values[i], i + 1, ""});
    }
    spec.with_sweep(c.axis, points);

    ScenarioSpec top = spec.at_point(c.failing);
    top.sweep = SweepSpec::single(1);
    std::string field_message;
    try {
      validate(top);
      ADD_FAILURE() << "the failing point validates as a top-level field";
    } catch (const SpecError& e) {
      field_message = e.what();
    }
    try {
      validate(spec);
      ADD_FAILURE() << "the sweep validates";
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what, field_message + " at sweep point " +
                          std::to_string(c.values[c.failing]));
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
}

TEST(SpecValidation, PartitionFieldsNeedAPartitionPlan) {
  // Only a partition reads components and duration; on any other plan
  // they would be silently ignored.
  const std::string message =
      "spec: failure.components and failure.duration are only meaningful "
      "for kind 'partition'; leave them at 0";
  expect_spec_error(
      R"({"name": "x", "nodes": 300, "cycles": 5,
          "failure": {"kind": "churn", "rate": 2, "components": 4}})",
      message);
  expect_spec_error(
      R"({"name": "x", "failure": {"kind": "none", "duration": 3}})",
      message);
}

TEST(SpecValidation, SpecsTheRunCouldNotHonorFailWithOneLine) {
  // Run, each spec would abort with exit 3 (a static generator's
  // precondition, joins on a static overlay) or ignore one of its
  // fields. Validation must reject it with a one-line SpecError naming
  // the field; a failing sweep point's message ends in
  // " at sweep point <v>".
  struct Case {
    const char* json;
    const char* names;                  ///< a fragment the message holds
    std::optional<double> sweep_point;  ///< the failing point's value
  };
  const Case cases[] = {
      // The static generators' preconditions.
      {R"({"name":"a","nodes":10,"topology":{"kind":"ring_lattice"}})",
       "topology.degree", {}},
      {R"({"name":"a","nodes":2,
           "topology":{"kind":"random_k_out","degree":5}})",
       "topology.degree", {}},
      {R"({"name":"a","nodes":5,
           "topology":{"kind":"barabasi_albert","degree":10}})",
       "topology.degree", {}},
      {R"({"name":"a","nodes":50,
           "topology":{"kind":"ring_lattice","degree":5}})",
       "topology.degree", {}},
      {R"({"name":"a","nodes":300,"cycles":5,
           "topology":{"kind":"watts_strogatz","degree":3,"beta":0.2}})",
       "topology.degree", {}},
      {R"({"name":"a","nodes":300,"cycles":5,
           "topology":{"kind":"barabasi_albert","degree":1}})",
       "topology.degree", {}},
      {R"({"name":"a","nodes":4,"cycles":5,"driver":"runtime",
           "runtime":{"workers":1},
           "topology":{"kind":"ring_lattice","degree":4}})",
       "topology.degree", {}},
      // Joins on a static overlay.
      {R"({"name":"a","nodes":300,"cycles":5,
           "topology":{"kind":"random_k_out","degree":5},
           "failure":{"kind":"churn","rate":2}})",
       "churn", {}},
      {R"({"name":"a","nodes":300,"cycles":5,"engine":"intra_rep",
           "topology":{"kind":"ring_lattice","degree":4},
           "failure":{"kind":"churn_fraction","fraction":0.01}})",
       "churn", {}},
      // Fields the driver or topology ignores.
      {R"({"name":"a","nodes":300,"cycles":5,"atomic_exchanges":false})",
       "atomic_exchanges", {}},
      {R"({"name":"a","nodes":300,"cycles":5,"atomic_exchanges":false,
           "driver":"push_sum"})",
       "atomic_exchanges", {}},
      {R"({"name":"a","nodes":300,"cycles":5,
           "sweep":{"axis":"atomicity",
                    "points":[{"value":1,"seed_point":1},
                              {"value":0,"seed_point":2}]}})",
       "atomic_exchanges", 0.0},
      {R"({"name":"a","nodes":300,"cycles":5,"topology":{"kind":"newscast"},
           "sweep":{"axis":"beta","points":[{"value":0,"seed_point":1},
                                            {"value":1,"seed_point":1}]}})",
       "topology.beta", 1.0},
      {R"({"name":"a","nodes":300,"cycles":5,
           "topology":{"kind":"random_k_out","degree":10,"cache_size":5}})",
       "topology.cache_size", {}},
      {R"({"name":"a","nodes":300,"cycles":5,
           "topology":{"kind":"complete","degree":7}})",
       "topology.degree", {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.json);
    try {
      (void)spec_from_json(c.json);
      ADD_FAILURE() << "the spec validates";
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
      EXPECT_NE(what.find(c.names), std::string::npos) << what;
      if (c.sweep_point) {
        EXPECT_TRUE(what.ends_with(" at sweep point " +
                                   std::to_string(*c.sweep_point)))
            << what;
      } else {
        EXPECT_EQ(what.find("sweep point"), std::string::npos) << what;
      }
    }
  }
}

TEST(SpecValidation, RunSingleRejectsWhatValidateRejects) {
  ScenarioSpec stray_runtime = ScenarioSpec::average_peak("x", 100, 5);
  stray_runtime.runtime.workers = 1;  // runtime.* needs driver 'runtime'
  EXPECT_THROW(validate(stray_runtime), SpecError);
  EXPECT_THROW((void)Engine().run_single(stray_runtime, 1), SpecError);

  // A drift that starts as the run ends.
  const ScenarioSpec late_drift =
      ScenarioSpec::average_peak("x", 100, 5)
          .with_drift(DriftSpec::linear(0.01, /*start_cycle=*/5));
  EXPECT_THROW(validate(late_drift), SpecError);
  EXPECT_THROW((void)Engine().run_single(late_drift, 1), SpecError);

  // The resolved engine is what gets validated, as in run_point.
  const ScenarioSpec rounds = ScenarioSpec::average_peak("x", 100, 5)
                                  .with_engine(EngineKind::kIntraRep)
                                  .with_match_rounds(2);
  EXPECT_NO_THROW((void)Engine().run_single(rounds, 1));
  EXPECT_THROW((void)Engine({EngineKind::kSerial}).run_single(rounds, 1),
               SpecError);
}

// --------------------------------------------------------- spec surface
//
// The descriptor table (spec_fields.hpp) is the single source of truth
// for the spec surface; these tests pin every row to a golden SpecError,
// a --set round-trip and its row in EXPERIMENTS.md's field reference,
// each checked against the generated table EXACTLY — adding a field
// without extending the cases here or the reference fails a test.

struct FieldErrorCase {
  const char* json_path;  ///< dotted path, must match a descriptor row
  const char* json;       ///< spec JSON with that one field mistyped
  const char* expected;   ///< exact SpecError message
};

TEST(SpecSurface, EveryDescriptorFieldHasAGoldenWrongTypeError) {
  static const FieldErrorCase kCases[] = {
      // ---- top level ---------------------------------------------------
      {"name", R"({"name": 7})", "spec: name must be a string"},
      {"title", R"({"name": "x", "title": 7})",
       "spec: title must be a string"},
      {"driver", R"({"name": "x", "driver": "zzz"})",
       "spec: driver must be one of cycle|event|push_sum|runtime, got "
       "'zzz'"},
      {"aggregate", R"({"name": "x", "aggregate": "zzz"})",
       "spec: aggregate must be one of average|count, got 'zzz'"},
      {"instances", R"({"name": "x", "instances": "many"})",
       "spec: instances must be a non-negative integer"},
      {"init", R"({"name": "x", "init": "zzz"})",
       "spec: init must be one of peak|uniform|bimodal|exponential, got "
       "'zzz'"},
      {"nodes", R"({"name": "x", "nodes": "many"})",
       "spec: nodes must be a non-negative integer"},
      {"cycles", R"({"name": "x", "cycles": "many"})",
       "spec: cycles must be a non-negative integer"},
      {"reps", R"({"name": "x", "reps": "many"})",
       "spec: reps must be a non-negative integer"},
      {"seed", R"({"name": "x", "seed": "0x5eed"})",
       "spec: seed must be a non-negative integer"},
      {"topology", R"({"name": "x", "topology": 7})",
       "spec: topology must be an object"},
      {"failure", R"({"name": "x", "failure": 7})",
       "spec: failure must be an object"},
      {"comm", R"({"name": "x", "comm": 7})",
       "spec: comm must be an object"},
      {"adversary", R"({"name": "x", "adversary": 7})",
       "spec: adversary must be an object"},
      {"combine", R"({"name": "x", "combine": 7})",
       "spec: combine must be an object"},
      {"drift", R"({"name": "x", "drift": 7})",
       "spec: drift must be an object"},
      {"service", R"({"name": "x", "service": 7})",
       "spec: service must be an object"},
      {"runtime", R"({"name": "x", "runtime": 7})",
       "spec: runtime must be an object"},
      {"atomic_exchanges", R"({"name": "x", "atomic_exchanges": 7})",
       "spec: atomic_exchanges must be a boolean"},
      {"engine", R"({"name": "x", "engine": "zzz"})",
       "spec: engine must be one of auto|serial|rep_parallel|intra_rep, "
       "got 'zzz'"},
      {"threads", R"({"name": "x", "threads": "many"})",
       "spec: threads must be a non-negative integer"},
      {"shards", R"({"name": "x", "shards": "many"})",
       "spec: shards must be a non-negative integer"},
      {"match_rounds", R"({"name": "x", "match_rounds": "many"})",
       "spec: match_rounds must be a non-negative integer"},
      {"sweep", R"({"name": "x", "sweep": 7})",
       "spec: sweep must be an object"},
      // ---- topology ----------------------------------------------------
      {"topology.kind", R"({"name": "x", "topology": {"kind": "zzz"}})",
       "spec: topology.kind must be one of "
       "complete|random_k_out|ring_lattice|watts_strogatz|barabasi_albert|"
       "newscast, got 'zzz'"},
      {"topology.degree", R"({"name": "x", "topology": {"degree": "k"}})",
       "spec: topology.degree must be a non-negative integer"},
      {"topology.beta", R"({"name": "x", "topology": {"beta": "small"}})",
       "spec: topology.beta must be a number"},
      {"topology.cache_size",
       R"({"name": "x", "topology": {"cache_size": "big"}})",
       "spec: topology.cache_size must be a non-negative integer"},
      // ---- failure -----------------------------------------------------
      {"failure.kind", R"({"name": "x", "failure": {"kind": "zzz"}})",
       "spec: failure.kind must be one of "
       "none|proportional_crash|sudden_death|churn|churn_fraction|"
       "constant_crash|correlated_waves|partition|restart, got 'zzz'"},
      {"failure.p", R"({"name": "x", "failure": {"p": 1.5}})",
       "spec: failure.p must be a probability in [0,1], got 1.500000"},
      {"failure.cycle", R"({"name": "x", "failure": {"cycle": "soon"}})",
       "spec: failure.cycle must be a non-negative integer"},
      {"failure.fraction", R"({"name": "x", "failure": {"fraction": 1.5}})",
       "spec: failure.fraction must be a probability in [0,1], got "
       "1.500000"},
      {"failure.rate", R"({"name": "x", "failure": {"rate": "fast"}})",
       "spec: failure.rate must be a non-negative integer"},
      {"failure.waves", R"({"name": "x", "failure": {"waves": "three"}})",
       "spec: failure.waves must be a non-negative integer"},
      {"failure.duration",
       R"({"name": "x", "failure": {"duration": "long"}})",
       "spec: failure.duration must be a non-negative integer"},
      {"failure.components",
       R"({"name": "x", "failure": {"components": "two"}})",
       "spec: failure.components must be a non-negative integer"},
      // ---- comm --------------------------------------------------------
      {"comm.link_failure", R"({"name": "x", "comm": {"link_failure": 1.5}})",
       "spec: comm.link_failure must be a probability in [0,1], got "
       "1.500000"},
      {"comm.message_loss", R"({"name": "x", "comm": {"message_loss": 1.5}})",
       "spec: comm.message_loss must be a probability in [0,1], got "
       "1.500000"},
      // ---- adversary ---------------------------------------------------
      {"adversary.behavior",
       R"({"name": "x", "adversary": {"behavior": "zzz"}})",
       "spec: adversary.behavior must be one of "
       "none|value_inject|always_max|cache_pollute, got 'zzz'"},
      {"adversary.fraction",
       R"({"name": "x", "adversary": {"fraction": "some"}})",
       "spec: adversary.fraction must be a number"},
      {"adversary.value", R"({"name": "x", "adversary": {"value": "big"}})",
       "spec: adversary.value must be a number"},
      // ---- combine -----------------------------------------------------
      {"combine.kind", R"({"name": "x", "combine": {"kind": "zzz"}})",
       "spec: combine.kind must be one of mean|trimmed_mean|median_of_means, "
       "got 'zzz'"},
      {"combine.alpha", R"({"name": "x", "combine": {"alpha": "some"}})",
       "spec: combine.alpha must be a number"},
      {"combine.groups", R"({"name": "x", "combine": {"groups": "few"}})",
       "spec: combine.groups must be a non-negative integer"},
      {"combine.window", R"({"name": "x", "combine": {"window": "wide"}})",
       "spec: combine.window must be a non-negative integer"},
      // ---- drift -------------------------------------------------------
      {"drift.kind", R"({"name": "x", "drift": {"kind": "zzz"}})",
       "spec: drift.kind must be one of none|linear|random_walk|step, got "
       "'zzz'"},
      {"drift.rate", R"({"name": "x", "drift": {"rate": "slow"}})",
       "spec: drift.rate must be a number"},
      {"drift.magnitude", R"({"name": "x", "drift": {"magnitude": "big"}})",
       "spec: drift.magnitude must be a number"},
      {"drift.start_cycle",
       R"({"name": "x", "drift": {"start_cycle": "soon"}})",
       "spec: drift.start_cycle must be a non-negative integer"},
      // ---- service -----------------------------------------------------
      {"service.pipeline", R"({"name": "x", "service": {"pipeline": 7}})",
       "spec: service.pipeline must be a boolean"},
      {"service.epoch_cycles",
       R"({"name": "x", "service": {"epoch_cycles": "long"}})",
       "spec: service.epoch_cycles must be a non-negative integer"},
      {"service.staleness_bound",
       R"({"name": "x", "service": {"staleness_bound": "low"}})",
       "spec: service.staleness_bound must be a non-negative integer"},
      // ---- runtime -----------------------------------------------------
      {"runtime.workers", R"({"name": "x", "runtime": {"workers": "few"}})",
       "spec: runtime.workers must be a non-negative integer"},
      {"runtime.wheel_slots",
       R"({"name": "x", "runtime": {"wheel_slots": "many"}})",
       "spec: runtime.wheel_slots must be a non-negative integer"},
      {"runtime.delta_us",
       R"({"name": "x", "runtime": {"delta_us": "short"}})",
       "spec: runtime.delta_us must be a non-negative integer"},
      {"runtime.timeout_ms",
       R"({"name": "x", "runtime": {"timeout_ms": "long"}})",
       "spec: runtime.timeout_ms must be a non-negative integer"},
      {"runtime.transport",
       R"({"name": "x", "runtime": {"transport": "zzz"}})",
       "spec: runtime.transport must be one of loopback|socket, got 'zzz'"},
      {"runtime.processes",
       R"({"name": "x", "runtime": {"processes": "two"}})",
       "spec: runtime.processes must be a non-negative integer"},
      {"runtime.process_index",
       R"({"name": "x", "runtime": {"process_index": "one"}})",
       "spec: runtime.process_index must be a non-negative integer"},
      {"runtime.port_base",
       R"({"name": "x", "runtime": {"port_base": "high"}})",
       "spec: runtime.port_base must be a non-negative integer"},
      {"runtime.latency", R"({"name": "x", "runtime": {"latency": "zzz"}})",
       "spec: runtime.latency must be one of "
       "none|fixed|uniform|exponential, got 'zzz'"},
      {"runtime.delay_lo_us",
       R"({"name": "x", "runtime": {"delay_lo_us": "low"}})",
       "spec: runtime.delay_lo_us must be a non-negative integer"},
      {"runtime.delay_hi_us",
       R"({"name": "x", "runtime": {"delay_hi_us": "high"}})",
       "spec: runtime.delay_hi_us must be a non-negative integer"},
      // ---- sweep -------------------------------------------------------
      {"sweep.axis", R"({"name": "x", "sweep": {"axis": "zzz"}})",
       "spec: sweep.axis must be one of "
       "none|nodes|beta|cache_size|crash_p|death_cycle|churn_fraction|"
       "link_p|loss_p|instances|cycles|init|atomicity|byz_fraction|"
       "partition_components|partition_duration, got 'zzz'"},
      {"sweep.points", R"({"name": "x", "sweep": {"points": 7}})",
       "spec: sweep.points must be an array"},
      {"sweep.points.value",
       R"({"name": "x", "sweep": {"points": [{"value": "big"}]}})",
       "spec: sweep.points.value must be a number"},
      {"sweep.points.seed_point",
       R"({"name": "x", "sweep": {"points": [{"seed_point": "one"}]}})",
       "spec: sweep.points.seed_point must be a non-negative integer"},
      {"sweep.points.label",
       R"({"name": "x", "sweep": {"points": [{"label": 7}]}})",
       "spec: sweep.points.label must be a string"},
  };
  std::set<std::string> covered;
  for (const FieldErrorCase& c : kCases) {
    SCOPED_TRACE(c.json_path);
    expect_spec_error(c.json, c.expected);
    covered.insert(c.json_path);
  }
  // Exactness both ways: a descriptor row without a case, or a case for
  // a path no longer in the table, fails here.
  std::set<std::string> table;
  for (const SpecFieldDescriptor& d : spec_field_table()) {
    table.insert(d.json_path);
  }
  EXPECT_EQ(covered, table);
}

TEST(SpecSurface, EveryGeneratedSetKeyRoundTrips) {
  // One sample value per --set key, each chosen to differ from the
  // default so the override observably lands. Sequence-compared against
  // spec_set_keys() so this table can never drift from the generated
  // dispatch (order included — the order is the supported-keys list).
  struct SetKeyCase {
    const char* key;
    const char* value;
  };
  static const SetKeyCase kCases[] = {
      {"name", "y"},
      {"title", "a title"},
      {"driver", "event"},
      {"aggregate", "count"},
      {"instances", "2"},
      {"init", "uniform"},
      {"nodes", "123"},
      {"cycles", "7"},
      {"reps", "2"},
      {"seed", "0xabc"},
      {"atomic_exchanges", "false"},
      {"engine", "serial"},
      {"threads", "2"},
      {"shards", "2"},
      {"match_rounds", "2"},
      {"adversary", "always_max"},
      {"adversary_fraction", "0.1"},
      {"adversary_value", "5"},
      {"combine", "trimmed_mean"},
      {"combine_alpha", "0.1"},
      {"combine_groups", "2"},
      {"combine_window", "9"},
      {"drift", "linear"},
      {"drift_rate", "0.5"},
      {"drift_magnitude", "1.5"},
      {"drift_start_cycle", "2"},
      {"service_pipeline", "true"},
      {"service_epoch_cycles", "3"},
      {"service_staleness_bound", "4"},
      {"runtime_workers", "2"},
      {"runtime_wheel_slots", "9"},
      {"runtime_delta_us", "5"},
      {"runtime_timeout_ms", "100"},
      {"runtime_transport", "socket"},
      {"runtime_processes", "2"},
      {"runtime_process_index", "1"},
      {"runtime_port_base", "2000"},
      {"runtime_latency", "fixed"},
      {"runtime_delay_lo_us", "10"},
      {"runtime_delay_hi_us", "20"},
  };
  const std::vector<const char*>& keys = spec_set_keys();
  ASSERT_EQ(std::size(kCases), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_STREQ(kCases[i].key, keys[i]) << "at index " << i;
  }
  for (const SetKeyCase& c : kCases) {
    SCOPED_TRACE(c.key);
    ScenarioSpec spec;  // default-constructed; overrides don't validate
    EXPECT_NO_THROW(apply_override(spec, c.key, c.value));
    EXPECT_NE(spec, ScenarioSpec{}) << "--set " << c.key
                                    << " did not change the spec";
  }
}

TEST(SpecSurface, UnknownSetKeyErrorNamesExactlyTheGeneratedKeys) {
  // The "supports ..." list is built from spec_set_keys() at runtime;
  // regenerating the expectation from the same table means this golden
  // can never drift when a field is added.
  std::string supported;
  for (const char* k : spec_set_keys()) {
    if (!supported.empty()) supported += "|";
    supported += k;
  }
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5);
  try {
    apply_override(spec, "zzzzzzzzzz", "1");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()),
              "spec: --set supports " + supported + ", got 'zzzzzzzzzz'");
  }
}

TEST(SpecSurface, FieldTableIsWellFormed) {
  // No duplicate dotted paths, no duplicate --set keys, and every
  // settable row's key is in the generated key list (and vice versa —
  // spec_set_keys() is exactly the SET rows, in table order).
  std::set<std::string> paths;
  std::vector<std::string> set_keys_from_table;
  for (const SpecFieldDescriptor& d : spec_field_table()) {
    EXPECT_TRUE(paths.insert(d.json_path).second)
        << "duplicate json path " << d.json_path;
    if (std::string(d.set_key) != "") {
      set_keys_from_table.push_back(d.set_key);
    }
  }
  std::vector<std::string> generated;
  for (const char* k : spec_set_keys()) generated.emplace_back(k);
  // The descriptor table walks groups in JSON order while the set-key
  // list walks the settable groups only; contents must match as sets
  // and stay duplicate-free.
  std::set<std::string> a(set_keys_from_table.begin(),
                          set_keys_from_table.end());
  std::set<std::string> b(generated.begin(), generated.end());
  EXPECT_EQ(set_keys_from_table.size(), a.size()) << "duplicate set keys";
  EXPECT_EQ(generated.size(), b.size()) << "duplicate generated set keys";
  EXPECT_EQ(a, b);
}

/// The cells of one markdown table row, split at unescaped '|', trimmed,
/// with a cell's enclosing backticks removed.
std::vector<std::string> table_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (std::size_t i = 1; i < line.size(); ++i) {  // past the leading '|'
    if (line[i] != '|' || line[i - 1] == '\\') {
      cell += line[i];
      continue;
    }
    const std::size_t first = cell.find_first_not_of(' ');
    cell = first == std::string::npos
               ? std::string()
               : cell.substr(first, cell.find_last_not_of(' ') - first + 1);
    if (cell.size() >= 2 && cell.front() == '`' && cell.back() == '`') {
      cell = cell.substr(1, cell.size() - 2);
    }
    cells.push_back(cell);
    cell.clear();
  }
  return cells;
}

struct FieldReferenceRow {
  std::string type;
  std::string set_key;
  std::string sweep_axis;
};

/// The rows of EXPERIMENTS.md's "### Field reference" table by path.
std::map<std::string, FieldReferenceRow> field_reference() {
  std::ifstream in(GOSSIP_SOURCE_DIR "/EXPERIMENTS.md");
  EXPECT_TRUE(in.is_open()) << "cannot read EXPERIMENTS.md";
  std::string line;
  while (std::getline(in, line) && line != "### Field reference") {
  }
  std::map<std::string, FieldReferenceRow> rows;
  bool header = true;
  while (std::getline(in, line) && !line.starts_with("#")) {
    if (!line.starts_with("|")) continue;
    const std::vector<std::string> cells = table_cells(line);
    if (header) {
      EXPECT_EQ(cells, (std::vector<std::string>{"path", "type", "default",
                                                 "`--set` key", "sweep axis",
                                                 "meaning"}));
      header = false;
      continue;
    }
    if (cells.size() != 6) {
      ADD_FAILURE() << "not a six-cell row: " << line;
      continue;
    }
    if (cells[0].starts_with("---")) continue;  // the separator row
    EXPECT_TRUE(rows.emplace(cells[0], FieldReferenceRow{cells[1], cells[3],
                                                         cells[4]})
                    .second)
        << "path listed twice: " << cells[0];
  }
  return rows;
}

/// Every leaf of canonical JSON `v` under `path`, dumped, by dotted path.
std::map<std::string, std::string> json_leaves(const json::Value& v,
                                               const std::string& path = "") {
  if (v.kind() != json::Kind::kObject) return {{path, v.dump()}};
  std::map<std::string, std::string> leaves;
  for (const auto& [key, child] : v.as_object()) {
    leaves.merge(json_leaves(child, path.empty() ? key : path + "." + key));
  }
  return leaves;
}

TEST(SpecSurface, FieldReferenceMatchesTheCode) {
  const std::map<std::string, FieldReferenceRow> doc = field_reference();

  // Exactly one row per descriptor path, and no other rows.
  std::set<std::string> documented;
  for (const auto& [path, row] : doc) documented.insert(path);
  std::set<std::string> table;
  for (const SpecFieldDescriptor& d : spec_field_table()) {
    table.insert(d.json_path);
  }
  EXPECT_EQ(documented, table);

  // The type cell is the word for the row's tag; the --set cell is its
  // key, or "—" when it has none.
  static const std::map<std::string, std::string> kTypeWords = {
      {"STR", "string"}, {"U32", "u32"},   {"U64", "u64"},
      {"UNS", "unsigned"}, {"SIZE", "size"}, {"DBL", "double"},
      {"PROB", "prob"},  {"BOOL", "bool"}, {"ENUM", "enum"},
      {"OBJ", "object"}, {"PTS", "array"},
  };
  for (const SpecFieldDescriptor& d : spec_field_table()) {
    const auto row = doc.find(d.json_path);
    if (row == doc.end()) continue;  // reported above
    SCOPED_TRACE(d.json_path);
    EXPECT_EQ(row->second.type, kTypeWords.at(d.type));
    EXPECT_EQ(row->second.set_key, *d.set_key != '\0' ? d.set_key : "—");
  }

  // The sweep-axis cell names a path whose value at_point() changes for
  // that axis, and each axis but 'none' is named by exactly one row.
  std::map<std::string, ScenarioSpec> swept;  // by axis name
  for (int a = static_cast<int>(SweepAxis::kNone) + 1;; ++a) {
    const auto axis = static_cast<SweepAxis>(a);
    ScenarioSpec spec;
    spec.with_sweep(axis,
                    {{axis == SweepAxis::kAtomicity ? 0.0 : 2.0, 1, ""}});
    try {
      swept.emplace(to_string(axis), spec);
    } catch (const SpecError&) {
      break;  // past the last axis
    }
  }
  std::map<std::string, int> rows_per_axis;
  for (const auto& [path, row] : doc) {
    if (row.sweep_axis == "—") continue;
    SCOPED_TRACE(path);
    ++rows_per_axis[row.sweep_axis];
    const auto it = swept.find(row.sweep_axis);
    if (it == swept.end()) {
      ADD_FAILURE() << "no sweep axis '" << row.sweep_axis << "'";
      continue;
    }
    const ScenarioSpec& spec = it->second;
    EXPECT_NE(json_leaves(json::parse(to_json(spec)))[path],
              json_leaves(json::parse(to_json(spec.at_point(0))))[path])
        << "sweep axis '" << row.sweep_axis << "' leaves it unchanged";
  }
  for (const auto& [axis, spec] : swept) {
    EXPECT_EQ(rows_per_axis[axis], 1) << "sweep axis '" << axis << "'";
  }
}

// ----------------------------------------------------------------- hash

TEST(SpecHash, StableAndSensitive) {
  ScenarioSpec a = ScenarioSpec::average_peak("hash", 100, 5);
  ScenarioSpec b = a;
  EXPECT_EQ(spec_hash(a), spec_hash(b));
  EXPECT_EQ(spec_hash_hex(a).size(), 16u);
  b.seed ^= 1;
  EXPECT_NE(spec_hash(a), spec_hash(b));
  b = a;
  b.comm.message_loss = 0.25;
  EXPECT_NE(spec_hash(a), spec_hash(b));
}

// ------------------------------------- 32-bit fields and thread bound

TEST(SpecValidation, ValuesPast32BitsFailInsteadOfWrapping) {
  // Every path that narrows a u64 into a U32 or UNS field: the JSON
  // parse, the spec-file --set dispatch, and parse_u32_field, which
  // gossip_run's scenario --set nodes|reps|threads|shards also use.
  const auto expect_error = [](const auto& call, const std::string& want) {
    try {
      call();
      ADD_FAILURE() << "expected: " << want;
    } catch (const SpecError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  };
  expect_error(
      [] {
        (void)spec_from_json(
            R"({"name":"a","nodes":4294967298,"cycles":4294967297})");
      },
      "spec: nodes must be <= 4294967295, got 4294967298");
  expect_error(
      [] { (void)spec_from_json(R"({"name":"a","threads":4294967296})"); },
      "spec: threads must be <= 4294967295, got 4294967296");
  ScenarioSpec spec;
  expect_error([&] { apply_override(spec, "reps", "4294967297"); },
               "spec: --set reps must be <= 4294967295, got '4294967297'");
  expect_error([&] { apply_override(spec, "shards", "0x100000000"); },
               "spec: --set shards must be <= 4294967295, got "
               "'0x100000000'");
  expect_error([] { (void)parse_u32_field("nodes", "18446744073709551615"); },
               "spec: --set nodes must be <= 4294967295, got "
               "'18446744073709551615'");
  EXPECT_EQ(parse_u32_field("nodes", "4294967295"), 4294967295u);
  EXPECT_EQ(spec, ScenarioSpec{});  // a rejected --set assigns nothing
}

TEST(SpecValidation, ThreadsAreBoundLikeRuntimeWorkers) {
  // Checked through validation only: an oversized value would start
  // that many OS threads if it ever ran.
  ScenarioSpec spec = ScenarioSpec::average_peak("x", 100, 5);
  spec.threads = kMaxThreads;
  EXPECT_NO_THROW(validate(spec));
  spec.threads = kMaxThreads + 1;
  try {
    validate(spec);
    ADD_FAILURE() << "threads above the bound validated";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "spec: threads must be <= 256, got 257");
  }
  EXPECT_THROW((void)spec_from_json(
                   R"({"name":"a","driver":"runtime","reps":100000,
                       "threads":100000})"),
               SpecError);

  // An EngineOptions override (the CLI's --set threads) is validated as
  // the spec runs, as the Engine does before it starts a pool.
  spec.threads = 0;
  EngineOptions options;
  options.threads = 100000;
  try {
    validate_as_run(spec, resolve_engine(spec, options));
    ADD_FAILURE() << "--set threads above the bound validated";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "spec: threads must be <= 256, got 100000");
  }
  // The hardware default never exceeds the bound.
  EXPECT_GE(runner_threads(), 1u);
  EXPECT_LE(runner_threads(), kMaxThreads);
  EXPECT_NO_THROW(validate_as_run(spec, resolve_engine(spec)));
}

// ------------------------------------------------------------- raw JSON

TEST(JsonModule, DuplicateObjectKeysRejected) {
  // First-wins lookup vs last-wins tooling must never disagree about
  // what a spec says: duplicates are a parse error.
  try {
    (void)json::parse(R"({"nodes": 400, "nodes": 100000})");
    FAIL() << "expected json::Error";
  } catch (const json::Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key 'nodes'"),
              std::string::npos);
  }
}

TEST(JsonModule, ParseErrorsCarryOffsets) {
  EXPECT_THROW((void)json::parse("{\"a\": }"), json::Error);
  EXPECT_THROW((void)json::parse("[1, 2"), json::Error);
  EXPECT_THROW((void)json::parse("{\"a\": 1} trailing"), json::Error);
  try {
    (void)json::parse("{\"key\" 1}");
    FAIL();
  } catch (const json::Error& e) {
    EXPECT_NE(std::string(e.what()).find("expected ':' after object key"),
              std::string::npos);
  }
}

TEST(JsonModule, NumbersKeepIntVsDoubleDistinction) {
  const json::Value v = json::parse(R"({"i": 42, "d": 42.0, "s": 1e3})");
  EXPECT_EQ(v.find("i")->kind(), json::Kind::kInt);
  EXPECT_EQ(v.find("d")->kind(), json::Kind::kDouble);
  EXPECT_EQ(v.find("s")->kind(), json::Kind::kDouble);
  EXPECT_EQ(v.find("i")->as_u64(), 42u);
  EXPECT_EQ(v.find("d")->as_double(), 42.0);
  // Dumping preserves the distinction.
  EXPECT_EQ(json::parse(v.dump()), v);
}

TEST(JsonModule, StringsEscapeAndRoundTrip) {
  json::Value v = json::Object{};
  v.set("s", std::string("line\n\"quote\"\ttab"));
  EXPECT_EQ(json::parse(v.dump()), v);
}

}  // namespace
}  // namespace gossip::experiment
