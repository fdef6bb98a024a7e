// Parallel experiment engine: a reusable thread pool that fans the
// independent repetitions of an experiment across cores.
//
// Gossip repetitions are embarrassingly parallel — every rep owns its
// whole simulation state and draws from its own seed-derived Rng stream —
// so the only thing the engine has to guarantee is *determinism*: results
// are produced into their job-index slot and returned in job order, which
// makes the merged output bit-identical no matter how many worker threads
// ran, including one (serial). Per-rep randomness comes from the caller
// deriving one seed per job (rep_seed() / split_seeds()), never from a
// shared generator.
//
// The workers are long-lived and joinable; the unit of work is one job
// (a whole repetition, or one shard of an intra-rep phase).
//
// Worker count: the explicit constructor argument, else the hardware
// cores (runner_threads()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gossip::experiment {

/// The most OS threads one run may start: validate()'s bound on a
/// spec's `threads` and `runtime.workers`, and runner_threads()'s cap.
inline constexpr unsigned kMaxThreads = 256;

/// Default worker count for parallel experiments: the hardware
/// concurrency, clamped to [1, kMaxThreads].
unsigned runner_threads();

/// `count` independent per-repetition seeds derived from `base` exactly
/// as Rng::split() derives child generators: child i's seed is
/// splitmix64 of the root stream's i-th draw. Correlation-free across
/// reps, stable across thread counts.
std::vector<std::uint64_t> split_seeds(std::uint64_t base, std::size_t count);

/// Reusable pool of `threads - 1` workers plus the calling thread. run()
/// and map() block until the batch completes and are deterministic in
/// output order. Not reentrant: don't call run() from inside a job, and
/// drive a runner from one thread at a time.
class ParallelRunner {
public:
  /// `threads` == 0 resolves via runner_threads(). With one thread the
  /// pool is empty and every batch runs inline on the caller.
  explicit ParallelRunner(unsigned threads = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Executes job(0) … job(count-1) across the pool; the caller drains
  /// work too. The first exception thrown by a job is rethrown here after
  /// the batch finishes.
  void run(std::size_t count, const std::function<void(std::size_t)>& job);

  /// Maps i -> fn(i) and returns the results in index order — the merged
  /// output is bit-identical for any thread count.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    std::vector<std::optional<R>> slots(count);
    run(count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(count);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

private:
  void worker_loop();
  void drain();

  unsigned threads_;

  std::mutex mutex_;
  std::condition_variable batch_cv_;  // workers wait for a batch
  std::condition_variable done_cv_;   // run() waits for completion
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::uint64_t batch_id_ = 0;      // nonzero while a batch is open
  std::uint64_t batch_serial_ = 0;  // monotone id generator
  unsigned active_ = 0;         // workers inside drain()
  bool stop_ = false;
  std::exception_ptr error_;

  std::vector<std::thread> workers_;
};

}  // namespace gossip::experiment
