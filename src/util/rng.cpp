#include "util/rng.h"

#include <cmath>

#include "util/units.h"

namespace wgtt {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: used for seeding and stream derivation.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

bool uid_sampled(std::uint64_t uid, std::uint64_t seed, std::uint32_t sample) {
  if (uid == 0 || sample <= 1) return true;
  std::uint64_t state = uid ^ seed;
  return splitmix64(state) % sample == 0;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = r * std::sin(2.0 * kPi * u2);
  has_cached_gaussian_ = true;
  return r * std::cos(2.0 * kPi * u2);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

double Rng::exponential(double mean) {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::fork(std::uint64_t tag) const {
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 13) ^ (tag * 0x9E3779B97F4A7C15ull);
  return Rng{splitmix64(mix)};
}

Rng Rng::fork(std::string_view tag) const { return fork(fnv1a(tag)); }

}  // namespace wgtt
