// Deterministic pseudo-random number generation.
//
// The genetic algorithm's surrogate search (core/ga.cpp) draws every random
// choice from an explicitly-seeded Rng, so searches and tests are
// bit-reproducible across runs, thread counts and machines.  (The
// simulator's OS noise is not drawn from here: mpi/world.cpp hashes the rank
// and call count instead, so it carries no generator state.)  The generator is
// xoshiro256** seeded through SplitMix64, following the reference
// implementations by Blackman & Vigna.
//
// The draws a GA generation makes by the thousand (the raw word, uniform,
// below, chance) are inline here; seeding, range and normal stay out of line
// in rng.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace swapp {

/// xoshiro256** generator with SplitMix64 seeding.
///
/// Satisfies std::uniform_random_bit_generator, so it can be used with
/// <random> distributions, but the member helpers below are preferred: they
/// are guaranteed stable across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state deterministically from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  Requires n > 0.  Uses Lemire reduction.
  std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal variate (Marsaglia polar method, deterministic).
  double normal() noexcept;

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Bernoulli draw with probability `p` of true.
  bool chance(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace swapp
