// Multi-run execution harness: a fixed-size thread pool with a FIFO job
// queue and deterministic result merging.
//
// The sweeps this repo runs (tools/csca_check: subjects x families x
// schedules; bench seed sweeps) are embarrassingly parallel: every run
// owns its Network, draws from its own split RNG stream
// (Rng::split / derive_stream_seed), and writes one result slot. The
// pool supplies the missing piece — concurrency that is *invisible in
// the output*: map() returns results in submission order regardless of
// which worker finished first, and if jobs throw, the exception that
// propagates is the one from the earliest-submitted failing job, so a
// sweep reports the same first failure at any thread count.
//
// The pool runs whole runs, not the rounds inside one: the parallel
// engines run their rounds on a round team (par/round_team.h), which
// follows run_indexed()'s first-error rule.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/require.h"

namespace csca {

class RunPool {
 public:
  /// Spawns `threads` workers (>= 1). Hardware with fewer cores still
  /// gets `threads` workers — oversubscription only costs context
  /// switches, and determinism never depends on the worker count.
  explicit RunPool(int threads);
  ~RunPool();

  RunPool(const RunPool&) = delete;
  RunPool& operator=(const RunPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a job. Jobs must not throw (wrap and capture instead —
  /// map/run_indexed do); a throwing job terminates. May be called from
  /// worker threads (the sharded engine's rounds nest no jobs, but
  /// sweep jobs are free to).
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has completed. Establishes a full
  /// happens-before edge between the completed jobs and the caller.
  void wait_all();

  /// Runs fn(0..n-1) across the pool and waits. Exceptions are captured
  /// per index; after completion the earliest-index exception (if any)
  /// is rethrown — the deterministic analog of fail-on-first-error.
  template <typename Fn>
  void run_indexed(std::size_t n, Fn&& fn) {
    std::vector<std::exception_ptr> errors(n);
    for (std::size_t i = 0; i < n; ++i) {
      submit([&fn, &errors, i] {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    wait_all();
    for (std::size_t i = 0; i < n; ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
  }

  /// Runs fn(0..n-1) across the pool and returns the results in index
  /// (= submission) order, however the jobs were interleaved. Same
  /// first-exception-wins contract as run_indexed.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    std::vector<std::invoke_result_t<Fn&, std::size_t>> results(n);
    run_indexed(n, [&fn, &results](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: job available or stop
  std::condition_variable done_cv_;   // waiters: queue drained and idle
  std::vector<std::function<void()>> queue_;  // FIFO via head index
  std::size_t queue_head_ = 0;
  int active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace csca
