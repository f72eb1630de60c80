// Deterministic pseudo-random number generation for every stochastic
// component in GraphTensor (graph generators, neighbor sampling, parameter
// init). All randomness flows through explicit 64-bit seeds so that every
// experiment in EXPERIMENTS.md is bit-reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace gt {

/// SplitMix64: used to expand one user seed into independent stream seeds.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA'14).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse generator. Fast, 256-bit state, passes BigCrush.
/// Satisfies UniformRandomBitGenerator so it composes with <random> if needed.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Unbiased uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform_real() noexcept;

  /// Uniform float in [lo, hi).
  float uniform_float(float lo, float hi) noexcept;

  /// Standard normal via Box-Muller (one value per call; no caching so the
  /// stream position is call-count deterministic).
  double normal() noexcept;

  /// Jump the stream forward by 2^128 steps: yields a statistically
  /// independent substream sharing the same seed lineage.
  void jump() noexcept;

 private:
  std::uint64_t s_[4];
};

/// k distinct values sampled uniformly from [0, n) without replacement.
/// Uses Floyd's algorithm: O(k) expected time, order of output is the
/// insertion order of Floyd's loop (deterministic for a given rng state).
std::vector<std::uint64_t> sample_without_replacement(Xoshiro256& rng,
                                                      std::uint64_t n,
                                                      std::uint64_t k);

/// sample_without_replacement into `out`, reusing its capacity. For small
/// k (a sampling fanout) the membership test is a scan of `out` itself, so
/// nothing is allocated once `out` has grown; the output is identical.
void sample_without_replacement_into(Xoshiro256& rng, std::uint64_t n,
                                     std::uint64_t k,
                                     std::vector<std::uint64_t>& out);

/// Derive the i-th independent stream seed from a root seed.
inline std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) {
  SplitMix64 sm(root ^ (0xa0761d6478bd642full * (stream + 1)));
  return sm.next();
}

}  // namespace gt
