#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_set>

namespace gt {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::uniform(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::uniform_real() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

float Xoshiro256::uniform_float(float lo, float hi) noexcept {
  return lo + static_cast<float>(uniform_real()) * (hi - lo);
}

double Xoshiro256::normal() noexcept {
  // Box-Muller; discard the second variate to keep stream position a pure
  // function of the call count.
  double u1 = uniform_real();
  double u2 = uniform_real();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

void Xoshiro256::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull, 0xa9582618e03fc9aaull,
      0x39abdc4529b1661cull};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t j : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (j & (1ull << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

std::vector<std::uint64_t> sample_without_replacement(Xoshiro256& rng,
                                                      std::uint64_t n,
                                                      std::uint64_t k) {
  std::vector<std::uint64_t> out;
  sample_without_replacement_into(rng, n, k, out);
  return out;
}

void sample_without_replacement_into(Xoshiro256& rng, std::uint64_t n,
                                     std::uint64_t k,
                                     std::vector<std::uint64_t>& out) {
  out.clear();
  if (k >= n) {
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(i);
    return;
  }
  // Floyd's algorithm. The chosen set is exactly the values emitted so
  // far, so small samples test membership by scanning `out`; large ones
  // (whole-batch picks) keep a hash set.
  const bool scan = k <= 64;
  std::unordered_set<std::uint64_t> chosen;  // used only when !scan
  out.reserve(k);
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = rng.uniform(j + 1);
    const bool taken = scan ? std::find(out.begin(), out.end(), t) != out.end()
                            : !chosen.insert(t).second;
    if (taken && !scan) chosen.insert(j);
    out.push_back(taken ? j : t);
  }
}

}  // namespace gt
