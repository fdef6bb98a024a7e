#include "experiment/parallel_runner.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace gossip::experiment {

unsigned runner_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
}

std::vector<std::uint64_t> split_seeds(std::uint64_t base, std::size_t count) {
  Rng root(base);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Mirrors Rng::split(): the child generator is seeded with
    // splitmix64 of the parent's next draw.
    std::uint64_t s = root();
    seeds.push_back(splitmix64(s));
  }
  return seeds;
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads > 0 ? threads : runner_threads()) {
  workers_.reserve(threads_ - 1);
  for (unsigned w = 0; w + 1 < threads_; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  batch_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ParallelRunner::drain() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) break;
    try {
      (*job_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ParallelRunner::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_cv_.wait(lock, [this, seen] {
      return stop_ || (batch_id_ != 0 && batch_id_ != seen);
    });
    if (stop_) return;
    // Joining the batch and announcing it (active_) happen in the same
    // critical section as the gate, so run() can never observe the batch
    // finished while this worker is still inside drain().
    seen = batch_id_;
    ++active_;
    lock.unlock();
    drain();
    lock.lock();
    --active_;
    if (active_ == 0 &&
        completed_.load(std::memory_order_acquire) == count_) {
      done_cv_.notify_all();
    }
  }
}

void ParallelRunner::run(std::size_t count,
                         const std::function<void(std::size_t)>& job) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Serial fast path: same job order a 1-thread pool would produce,
    // with exceptions propagating directly.
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &job;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  error_ = nullptr;
  batch_id_ = ++batch_serial_;
  batch_cv_.notify_all();
  lock.unlock();

  drain();  // the caller is a worker too

  lock.lock();
  done_cv_.wait(lock, [this] {
    return completed_.load(std::memory_order_acquire) == count_ &&
           active_ == 0;
  });
  batch_id_ = 0;  // close the batch: late-waking workers go back to sleep
  job_ = nullptr;
  std::exception_ptr error = error_;
  error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace gossip::experiment
