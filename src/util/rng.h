// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the library (random graph generators, random
// delay models) flows through Rng so that every test and benchmark run is
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <random>

#include "util/require_lit.h"

namespace csca {

/// splitmix64 output function: advances x by the golden-ratio increment
/// and finalizes it. mix64(s), mix64(s + kGolden), mix64(s + 2*kGolden),
/// ... is exactly the splitmix64 stream seeded at s, so any integer
/// index can be mixed into an independent-looking 64-bit value in O(1).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed for logical stream `stream` of a base seed: the stream-th output
/// of splitmix64 seeded at base. Concurrent runs (and per-shard draws)
/// derive their seeds through this instead of seed + i arithmetic, so
/// sibling streams share no generator state and are decorrelated even
/// for adjacent indices.
inline std::uint64_t derive_stream_seed(std::uint64_t base,
                                        std::uint64_t stream) {
  return mix64(base + stream * 0x9e3779b97f4a7c15ULL);
}

/// Maps a 64-bit key to a uniform double in [0, 1) (53 high bits).
inline double key_to_unit(std::uint64_t key) {
  return static_cast<double>(key >> 11) * 0x1.0p-53;
}

/// Seeded deterministic random source. Thin wrapper over std::mt19937_64
/// with convenience samplers; cheap to copy (copies fork the stream state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    require_lit(lo <= hi, "uniform_int requires lo <= hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform_real(double lo, double hi) {
    require_lit(lo <= hi, "uniform_real requires lo <= hi");
    if (lo == hi) return lo;
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool chance(double p) {
    require_lit(p >= 0.0 && p <= 1.0, "chance requires p in [0,1]");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child generator; useful for giving each
  /// subsystem its own stream so adding draws in one place does not
  /// perturb another. Consumes one draw from this generator, so the
  /// child depends on how many draws preceded the fork.
  Rng fork() { return Rng(engine_()); }

  /// Derives the generator for logical stream `stream` of this
  /// generator's seed, without consuming any state (unlike fork()):
  /// split(i) is a pure function of (construction seed, i). The
  /// multi-run harness gives run i the stream-i generator so runs are
  /// identical whether they execute concurrently, in any order, or
  /// alone — and so no two runs ever share generator state.
  Rng split(std::uint64_t stream) const {
    return Rng(derive_stream_seed(seed_, stream));
  }

  /// The seed this generator was constructed with (split() keys off it).
  std::uint64_t seed() const { return seed_; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace csca
