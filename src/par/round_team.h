// Round team: the round executor of the two parallel engines.
//
// ShardEngine and TimeWarpEngine run in lock-step rounds. In each phase
// every shard does its share of parallel work; then one serial step
// (ShardEngine's safe bounds, TimeWarp's GVT round) reads what the
// phase published and sets up the next phase. run_rounds() runs that
// loop on one team of threads for the whole run:
//
//   * the team has `threads` members and the calling thread is one of
//     them, so a run never holds more threads than it asked for;
//   * member t runs the shards t, t + threads, t + 2 * threads, ... in
//     every phase (the assignment never changes the result: shards
//     share nothing a phase writes);
//   * a std::barrier separates the phases. Its completion step is the
//     serial step: it runs on the last member to arrive while the others
//     wait, after every write of the phase and before any write of the
//     next, so the engines need no locks around their shared state;
//   * errors follow RunPool::run_indexed's rule. A phase that throws is
//     caught per shard, the team stops at the barrier that ends the
//     phase (the serial step is skipped), and after every member has
//     joined the exception of the lowest shard id is rethrown. A throw
//     from the serial step stops the team the same way. An engine
//     therefore reports the same first failure at every thread count,
//     and never hangs on it.
//
// One barrier per phase replaces a run_indexed dispatch per phase (a
// job queue, a mutex and two condition variables per round), and the
// team lives only while run() runs, so no idle pool is kept.
#pragma once

#include <barrier>
#include <cstddef>
#include <exception>
#include <latch>
#include <thread>
#include <vector>

#include "util/require.h"

namespace csca {

/// Runs phase(s) for every shard s in [0, shards), then step(), and
/// repeats while step() returns true. step() runs alone, between two
/// phases. Rethrows the first error as described above.
template <typename Phase, typename Step>
void run_rounds(int threads, std::size_t shards, Phase&& phase, Step&& step) {
  require(threads >= 1, "a round team needs at least one thread");
  require(shards >= 1, "a round team needs at least one shard");
  const auto members = static_cast<std::size_t>(threads);

  std::vector<std::exception_ptr> errors(shards);
  std::exception_ptr step_error;
  bool stop = false;
  auto complete = [&]() noexcept {
    for (const std::exception_ptr& e : errors) {
      if (e != nullptr) {
        stop = true;
        return;
      }
    }
    try {
      stop = !step();
    } catch (...) {
      step_error = std::current_exception();
      stop = true;
    }
  };
  std::barrier<decltype(complete)> sync(threads, complete);

  const auto member = [&](std::size_t t) {
    do {
      for (std::size_t s = t; s < shards; s += members) {
        try {
          phase(s);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      }
      sync.arrive_and_wait();
    } while (!stop);
  };

  // Members wait at `go` until every thread exists, so a failed spawn
  // can release the ones already started before any of them reaches
  // the barrier.
  std::latch go(1);
  bool abandoned = false;
  std::vector<std::thread> team;
  team.reserve(members - 1);
  try {
    for (std::size_t t = 1; t < members; ++t) {
      team.emplace_back([&, t] {
        go.wait();
        if (!abandoned) member(t);
      });
    }
  } catch (...) {
    abandoned = true;
    go.count_down();
    for (std::thread& th : team) th.join();
    throw;
  }
  go.count_down();
  member(0);
  for (std::thread& th : team) th.join();

  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  if (step_error != nullptr) std::rethrow_exception(step_error);
}

}  // namespace csca
