// The scenario registry: every figure, ablation and baseline of the
// paper's evaluation is a *named scenario* — a builder producing
// declarative ScenarioSpecs (spec.hpp) plus a fold that turns the
// Engine's results into exactly the series the paper plots. The
// `gossip_run` CLI is driven from here; goldens in
// tests/scenario_registry_test.cpp pin the emitted series to the
// pre-redesign binaries bit-for-bit.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "experiment/emit.hpp"
#include "experiment/engine.hpp"
#include "experiment/scale.hpp"
#include "experiment/spec.hpp"
#include "experiment/table.hpp"

namespace gossip::experiment {

/// Registry metadata: what the scenario reproduces and the scaling the
/// paper used vs the default scaled-down run.
struct ScenarioInfo {
  std::string name;         ///< registry key ("fig06b")
  std::string figure;       ///< banner heading ("Figure 6b")
  std::string description;  ///< one-line series description
  std::string paper_setup;  ///< the paper's configuration, for the banner
  std::uint32_t def_nodes = 10000;
  std::uint32_t def_reps = 5;
  std::uint32_t paper_nodes = 100000;
  std::uint32_t paper_reps = 50;
};

/// A fully rendered scenario: the published series plus everything the
/// JSON emitter needs (specs, per-rep results, provenance inputs).
struct ScenarioOutput {
  Table table;
  std::string trailer;  ///< the "paper-expects" shape note
  std::vector<ScenarioResult> results;
};

struct ScenarioDef {
  ScenarioInfo info;
  /// Instantiates the scenario's spec(s) at a concrete scale. Most
  /// scenarios are one spec; per-topology figures build one per curve.
  std::function<std::vector<ScenarioSpec>(const Scale&)> build;
  /// Folds Engine results (same order as build()'s specs) into the
  /// published table + trailer.
  std::function<std::pair<Table, std::string>(
      const Scale&, const std::vector<ScenarioResult>&)>
      emit;
};

class ScenarioRegistry {
public:
  static const ScenarioRegistry& instance();

  [[nodiscard]] const std::vector<ScenarioDef>& all() const { return defs_; }
  [[nodiscard]] std::vector<std::string> names() const;
  /// nullptr when `name` is not registered.
  [[nodiscard]] const ScenarioDef* find(const std::string& name) const;

private:
  ScenarioRegistry();
  std::vector<ScenarioDef> defs_;
};

/// Builds, runs (through one Engine) and folds a scenario.
ScenarioOutput run_scenario(const ScenarioDef& def, const Scale& scale,
                            const EngineOptions& options = {});

/// The banner scale string ("N=…, reps=…, seed=…, threads<=…"), where
/// `threads` is the worker count in force.
std::string scale_note(const Scale& s, const std::string& paper_setup,
                       unsigned threads);

}  // namespace gossip::experiment
