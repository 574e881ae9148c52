// Small fixed-size worker pool for embarrassingly parallel simulation work.
//
// The pool is a throughput device only: callers must not let scheduling
// order affect results.  The intended pattern (see core::SweepRunner::run)
// is "each index writes its own pre-allocated slot, reduce serially
// afterwards", which keeps results bit-identical for any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace facsp::sim {

/// Fixed pool of worker threads with a shared FIFO task queue and a chunked
/// dynamic parallel-for on top.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).  A pool of size 1 spawns no threads at all — every task
  /// runs inline on the calling thread, so single-threaded environments pay
  /// nothing and never touch synchronisation.
  explicit ThreadPool(unsigned threads = 0);

  /// Joins all workers; pending tasks are still executed before shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count the pool resolved to (>= 1).
  unsigned size() const noexcept { return size_; }

  /// Largest thread knob a config may request.  The knobs come from
  /// config files and command lines, and each worker is an OS thread.
  static constexpr int kMaxThreads = 256;

  /// Throw facsp::ConfigError naming `owner` unless `requested` is a valid
  /// thread knob: 0 (hardware concurrency) up to kMaxThreads.  Every
  /// validate() that reads a thread knob calls this.
  static void validate_threads(int requested, std::string_view owner);

  /// Resolve a user-facing thread knob: 0 -> hardware concurrency, else the
  /// requested count (clamped to >= 1).
  static unsigned resolve_threads(int requested) noexcept;

  /// Enqueue one task.  Tasks may not throw; wrap anything fallible and
  /// capture the error yourself (parallel_for does exactly that).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Run body(i) for every i in [0, count).  Indices are handed out
  /// dynamically in chunks of `chunk` (grab-next scheduling — cheap work
  /// stealing from a shared counter), the calling thread participates, and
  /// the call blocks until all indices completed.  The first exception
  /// thrown by `body` is rethrown here after the loop drains; remaining
  /// chunks are abandoned.
  ///
  /// Not reentrant: do not call from inside a task running on this pool.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                    std::size_t chunk = 1);

 private:
  void worker_loop(unsigned index);

  unsigned size_ = 1;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t running_ = 0;  ///< tasks currently executing
  bool stop_ = false;
};

}  // namespace facsp::sim
