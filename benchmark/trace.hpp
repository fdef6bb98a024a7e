// Span recording for the benchmark's traced run. Spans are recorded from
// the benchmark's own files, around calls into each layer's public API —
// nothing inside the library is instrumented. Spans live in memory and
// are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gossip::bench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// One recorded interval. `parent` is the id of the span that caused it
/// (kNoSpan for a root); times are nanoseconds since the tracer began.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

inline constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

/// Thread-safe in-memory span store: repetitions of one batch record
/// concurrently from the pool's threads.
class Tracer {
public:
  Tracer();

  /// Opens a span now and returns its id.
  std::uint32_t begin(std::string name, std::uint32_t parent);
  /// Closes span `id` now.
  void end(std::uint32_t id);

  /// A copy of every span recorded so far, in id order.
  [[nodiscard]] std::vector<Span> spans() const;

private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index == id
};

/// RAII span; a null tracer records nothing, so the same replay code
/// serves traced and untraced callers.
class ScopedSpan {
public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

private:
  Tracer* tracer_;
  std::uint32_t id_ = kNoSpan;
};

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Per span name: how many spans, their summed duration and self time.
struct SelfTimeRow {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SelfTimeRow> self_time_summary(
    const std::vector<Span>& spans);

/// Writes one JSON object per span per line. Returns false on I/O error.
bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace gossip::bench
