// Deterministic random number generation.
//
// Every stochastic element of the simulation (fading tap phases, shadowing,
// packet error draws, MAC backoff) pulls from an Rng derived from a single
// experiment seed, so whole end-to-end runs are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <string_view>

namespace wgtt {

/// xoshiro256** PRNG.  Small, fast, high quality; not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second deviate).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// True with probability p.
  bool bernoulli(double p);

  /// Derive an independent child generator.  `tag` separates streams that
  /// share the same parent (e.g. one per AP-client link).
  Rng fork(std::uint64_t tag) const;
  Rng fork(std::string_view tag) const;

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Seeded 1-in-`sample` selection of packet uids by hash, independent of
/// arrival order.  The flight recorder and the causal tracer both sample
/// through this one function, so at the same (seed, sample) the two streams
/// cover the same packets.  uid 0 (markers) and sample <= 1 always select.
bool uid_sampled(std::uint64_t uid, std::uint64_t seed, std::uint32_t sample);

}  // namespace wgtt
