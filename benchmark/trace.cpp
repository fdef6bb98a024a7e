#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace gossip::bench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint32_t Tracer::begin(std::string name, std::uint32_t parent) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  std::scoped_lock lock(mutex_);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({id, parent, std::move(name), now, now});
  return id;
}

void Tracer::end(std::uint32_t id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  std::scoped_lock lock(mutex_);
  spans_.at(id).end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::scoped_lock lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::uint32_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), parent);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoSpan) {
      children.at(s.parent).emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (const Span& s : spans) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    out[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, SelfTimeRow> self_time_summary(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, SelfTimeRow> rows;
  for (const Span& s : spans) {
    SelfTimeRow& row = rows[s.name];
    ++row.count;
    row.total_s += s.seconds();
    row.self_s += self[s.id];
  }
  return rows;
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\": " << s.id << ", \"parent\": ";
    if (s.parent == kNoSpan) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  out.close();
  return static_cast<bool>(out);
}

}  // namespace gossip::bench
