// Deterministic, splittable random number generation.
//
// Everything random in dynkge flows from a single experiment seed through
// explicitly derived streams (one per rank, per epoch, per purpose), so a
// training run is reproducible bit-for-bit regardless of thread scheduling.
// We avoid <random> distributions because their outputs are not guaranteed
// to be identical across standard library implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace dynkge::util {

/// SplitMix64: used to expand seeds into well-mixed state. Passes BigCrush.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mix an arbitrary list of 64-bit values into one well-distributed seed.
/// Used to derive independent streams: derive_seed(root, rank, epoch, tag).
template <typename... Ts>
constexpr std::uint64_t derive_seed(std::uint64_t root, Ts... parts) noexcept {
  std::uint64_t s = root;
  ((s = splitmix64(s) ^ (splitmix64(s) + static_cast<std::uint64_t>(parts))),
   ...);
  return splitmix64(s);
}

/// Xoshiro256** — fast, high quality, 2^256 period. The workhorse generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    // Seed the four words via SplitMix64 as recommended by the authors.
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr std::uint64_t next_u64() noexcept {
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

  constexpr result_type operator()() noexcept { return next_u64(); }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    // 128-bit multiply-shift; rejection keeps the distribution exact.
    while (true) {
      const std::uint64_t x = next_u64();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const auto lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  constexpr double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  constexpr float next_float() noexcept {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [lo, hi).
  constexpr double next_double(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  constexpr bool next_bernoulli(double p) noexcept {
    return next_double() < p;
  }

  /// Standard normal via Box-Muller (deterministic across platforms).
  double next_normal() noexcept {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u1 = next_double();
    // Guard against log(0).
    while (u1 <= 0.0) u1 = next_double();
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.141592653589793238462643 * u2;
    cached_ = r * std::sin(theta);
    have_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal with mean mu and standard deviation sigma.
  double next_normal(double mu, double sigma) noexcept {
    return mu + sigma * next_normal();
  }

  /// A new generator whose stream is statistically independent of this one.
  constexpr Rng split() noexcept { return Rng{next_u64() ^ 0xa0761d6478bd642fULL}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_ = 0.0;
  bool have_cached_ = false;
};

/// Deterministic Fisher-Yates shuffle of a random-access container: for
/// i = n-1 down to 1, swap items[i] with items[next_below(i + 1)]. The one
/// shuffle in dynkge (dataset splits, training-triple orders), so a seed
/// orders the same items the same way wherever it is drawn.
template <typename Items>
void shuffle(Items& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

/// Zipf(s) sampler over {0, .., n-1} via inverse-CDF on a precomputed table.
/// Used by the synthetic KG generator for relation/entity popularity skews.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Draw one index; smaller indices are more likely.
  std::size_t sample(Rng& rng) const noexcept;

  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

inline ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = acc;
  }
  for (auto& v : cdf_) v /= acc;
}

inline std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  const double u = rng.next_double();
  // Binary search for the first cdf entry >= u.
  std::size_t lo = 0, hi = cdf_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < cdf_.size() ? lo : cdf_.size() - 1;
}

}  // namespace dynkge::util
