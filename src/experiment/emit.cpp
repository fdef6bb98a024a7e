#include "experiment/emit.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/json.hpp"
#include "experiment/table.hpp"
#include "stats/running_stats.hpp"

#ifndef GOSSIP_GIT_SHA
#define GOSSIP_GIT_SHA "unknown"
#endif

namespace gossip::experiment {

OutputFormat parse_format(const std::string& name) {
  if (name == "table") return OutputFormat::kTable;
  if (name == "csv") return OutputFormat::kCsv;
  if (name == "json") return OutputFormat::kJson;
  throw SpecError("spec: --format must be one of table|csv|json, got '" +
                  name + "'");
}

std::string build_git_sha() { return GOSSIP_GIT_SHA; }

namespace {

std::string fold_spec_hashes(const std::vector<ScenarioResult>& results) {
  // One FNV-1a fold over the concatenated canonical spec JSONs: for a
  // single spec this is exactly spec_hash_hex(), and it changes when any
  // spec of a multi-spec scenario changes.
  std::uint64_t h = kFnvOffsetBasis;
  for (const ScenarioResult& r : results) {
    h = fnv1a64(h, to_json(r.spec, /*indent=*/-1));
  }
  return hex64(h);
}

}  // namespace

Provenance make_provenance(const std::vector<ScenarioResult>& results,
                           bool full_scale) {
  Provenance p;
  p.git_sha = build_git_sha();
  p.scale_mode = full_scale ? "paper" : "scaled";
  if (!results.empty()) {
    const ScenarioResult& first = results.front();
    p.nodes = first.spec.nodes;
    p.reps = first.spec.reps;
    p.seed = first.spec.seed;
    p.threads = first.engine.threads;
    p.shards = first.engine.shards;
    p.engine = to_string(first.engine.kind);
  }
  p.spec_hash = fold_spec_hashes(results);
  return p;
}

namespace {

json::Value provenance_value(const Provenance& p) {
  json::Value o = json::Object{};
  o.set("git_sha", p.git_sha);
  o.set("scale_mode", p.scale_mode);
  o.set("nodes", p.nodes);
  o.set("reps", p.reps);
  o.set("seed", p.seed);
  o.set("threads", static_cast<std::uint64_t>(p.threads));
  o.set("shards", static_cast<std::uint64_t>(p.shards));
  o.set("engine", p.engine);
  o.set("spec_hash", p.spec_hash);
  return o;
}

/// COUNT estimates can legitimately diverge ("the estimate can even
/// become infinite", §7.3); JSON has no inf/nan literals, so non-finite
/// values serialize as strings.
json::Value number_or_string(double v) {
  if (std::isfinite(v)) return json::Value(v);
  return json::Value(fmt(v));
}

json::Value summary_value(const stats::Summary& s) {
  json::Value o = json::Object{};
  o.set("count", static_cast<std::uint64_t>(s.count));
  o.set("mean", number_or_string(s.mean));
  o.set("variance", number_or_string(s.variance));
  o.set("min", number_or_string(s.min));
  o.set("max", number_or_string(s.max));
  o.set("median", number_or_string(s.median));
  return o;
}

json::Value rep_value(const RunResult& r) {
  json::Value o = json::Object{};
  o.set("participants", r.participants);
  if (!r.per_cycle.empty()) {
    o.set("final_mean", number_or_string(r.per_cycle.back().mean()));
    o.set("final_variance", number_or_string(r.per_cycle.back().variance()));
  }
  if (r.sizes.count > 0) o.set("sizes", summary_value(r.sizes));
  // Continuous-service surface: every field rides the same conditional
  // pattern as "sizes" so runs without drift / pipelining serialize
  // bit-identically to the pre-service JSON.
  if (!r.tracking_error.empty()) {
    o.set("tracking_error_final", number_or_string(r.tracking_error.back()));
    double worst = 0.0;
    for (double e : r.tracking_error) worst = std::max(worst, e);
    o.set("tracking_error_max", number_or_string(worst));
  }
  if (!r.staleness.empty()) {
    o.set("queries_served", static_cast<std::uint64_t>(r.staleness.size()));
    o.set("staleness_p99", static_cast<std::uint64_t>(
                               staleness_percentile(r.staleness, 99.0)));
  }
  if (!r.served_error.empty()) {
    o.set("served_error_final", number_or_string(r.served_error.back()));
  }
  if (r.epochs_published > 0) {
    o.set("epochs_published", r.epochs_published);
    o.set("elapsed_seconds", r.elapsed_seconds);
  }
  // Deployment-runtime surface: present only for runtime-driver reps, so
  // simulator output stays bit-identical.
  if (r.runtime_enabled) {
    const runtime::RuntimeCounters& c = r.runtime_counters;
    json::Value rt = json::Object{};
    rt.set("sum_initial", number_or_string(r.runtime_sum_initial));
    rt.set("sum_final", number_or_string(r.runtime_sum_final));
    rt.set("elapsed_seconds", r.elapsed_seconds);
    rt.set("exchanges_completed", c.exchanges_completed);
    rt.set("news_exchanges", c.news_exchanges);
    rt.set("pushes_sent", c.pushes_sent);
    rt.set("pushes_received", c.pushes_received);
    rt.set("replies_sent", c.replies_sent);
    rt.set("replies_received", c.replies_received);
    rt.set("busy_nacks", c.busy_nacks);
    rt.set("timeouts", c.timeouts);
    rt.set("late_replies", c.late_replies);
    rt.set("dropped_loss", c.dropped_loss);
    rt.set("dropped_dead", c.dropped_dead);
    rt.set("messages_sent", c.messages_sent);
    rt.set("messages_received", c.messages_received);
    rt.set("bytes_encoded", c.bytes_encoded);
    rt.set("bytes_decoded", c.bytes_decoded);
    if (c.exchanges_completed > 0) {
      rt.set("bytes_per_exchange",
             static_cast<double>(c.bytes_encoded) /
                 static_cast<double>(c.exchanges_completed));
    }
    o.set("runtime", std::move(rt));
  }
  return o;
}

json::Value table_value(const Table& table) {
  json::Value o = json::Object{};
  json::Array headers;
  for (const std::string& h : table.headers()) headers.emplace_back(h);
  o.set("headers", std::move(headers));
  json::Array rows;
  for (const auto& row : table.cells()) {
    json::Array cells;
    for (const std::string& c : row) cells.emplace_back(c);
    rows.emplace_back(std::move(cells));
  }
  o.set("rows", std::move(rows));
  return o;
}

}  // namespace

Table generic_table(const ScenarioResult& result) {
  const bool count = result.spec.aggregate == AggregateKind::kCount ||
                     result.spec.driver != DriverKind::kCycle;
  const std::string axis = result.spec.sweep.axis == SweepAxis::kNone
                               ? std::string("point")
                               : to_string(result.spec.sweep.axis);
  Table table({axis, "est_mean", "est_min", "est_max", "mean_factor",
               "participants"});
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointResult& point = result.points[i];
    // A cycles sweep runs each point for its own count: that is the
    // factor's window.
    const std::uint32_t cycles = result.spec.at_point(i).cycles;
    stats::RunningStats means;
    stats::RunningStats factors;
    std::uint32_t participants = 0;
    for (const RunResult& rep : point.reps) {
      const double est = count || rep.per_cycle.empty()
                             ? rep.sizes.mean
                             : rep.per_cycle.back().mean();
      means.add(est);
      if (!rep.tracker.variances().empty()) {
        factors.add(rep.tracker.mean_factor(cycles));
      }
      participants = rep.participants;
    }
    table.add_row({fmt(point.point.value, 4), fmt(means.mean()),
                   fmt(means.min()), fmt(means.max()),
                   factors.count() > 0 ? fmt(factors.mean()) : "-",
                   std::to_string(participants)});
  }
  return table;
}

std::uint32_t staleness_percentile(const std::vector<std::uint32_t>& samples,
                                   double pct) {
  if (samples.empty()) return 0;
  std::vector<std::uint32_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
  return sorted[idx];
}

ServiceSummary summarize_service(const ScenarioSpec& spec,
                                 const PointResult& point) {
  ServiceSummary s;
  stats::RunningStats err;
  for (const RunResult& rep : point.reps) {
    if (!rep.tracking_error.empty()) err.add(rep.tracking_error.back());
    s.p99_staleness =
        std::max(s.p99_staleness, staleness_percentile(rep.staleness, 99.0));
    s.epochs_published += rep.epochs_published;
    s.queries += rep.staleness.size();
  }
  if (err.count() > 0) s.tracking_error = err.mean();
  if (spec.service.staleness_bound > 0) {
    s.stale_ok = s.p99_staleness <= spec.service.staleness_bound;
  }
  return s;
}

void render_scenario(std::ostream& os, const std::string& name,
                     const Table& table, const std::string& trailer,
                     const std::vector<ScenarioResult>& results,
                     OutputFormat format, bool full_scale) {
  switch (format) {
    case OutputFormat::kTable:
      table.print(os);
      if (!trailer.empty()) os << '\n' << trailer << '\n';
      return;
    case OutputFormat::kCsv:
      table.write_csv(os);
      return;
    case OutputFormat::kJson:
      break;
  }
  json::Value o = json::Object{};
  o.set("scenario", name);
  o.set("provenance", provenance_value(make_provenance(results, full_scale)));
  o.set("table", table_value(table));
  if (!trailer.empty()) o.set("trailer", trailer);
  json::Array specs;
  for (const ScenarioResult& r : results) {
    json::Value entry = json::Object{};
    entry.set("spec", json::parse(to_json(r.spec, -1)));
    json::Value engine = json::Object{};
    engine.set("kind", to_string(r.engine.kind));
    engine.set("threads", static_cast<std::uint64_t>(r.engine.threads));
    engine.set("shards", static_cast<std::uint64_t>(r.engine.shards));
    entry.set("engine", std::move(engine));
    json::Array points;
    for (const PointResult& pt : r.points) {
      json::Value pv = json::Object{};
      pv.set("value", pt.point.value);
      pv.set("seed_point", pt.point.seed_point);
      if (!pt.point.label.empty()) pv.set("label", pt.point.label);
      json::Array reps;
      for (const RunResult& rep : pt.reps) reps.push_back(rep_value(rep));
      pv.set("reps", std::move(reps));
      points.push_back(std::move(pv));
    }
    entry.set("points", std::move(points));
    specs.push_back(std::move(entry));
  }
  o.set("results", std::move(specs));
  os << o.dump(2) << '\n';
}

}  // namespace gossip::experiment
