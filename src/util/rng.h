// Deterministic pseudo-random number generation for the simulator.
//
// Everything in fMoE's reproduction is seeded: gate networks, workloads, arrival traces, and
// noise injection all draw from an Rng instance owned by the component. We use xoshiro256**,
// which is fast, has a 256-bit state, and supports cheap stream splitting via SplitMix64
// reseeding, so every component can own an independent deterministic stream.
#ifndef FMOE_SRC_UTIL_RNG_H_
#define FMOE_SRC_UTIL_RNG_H_

#include <cmath>
#include <cstdint>

#include "src/util/math.h"

namespace fmoe {

// SplitMix64: used to expand a single 64-bit seed into xoshiro state and to derive
// independent child streams.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** by Blackman & Vigna (public domain reference implementation re-expressed).
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound). Bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's nearly-divisionless method is overkill here; modulo bias is negligible for
    // simulation bounds (all << 2^32).
    return Next() % bound;
  }

  // Uniform in [lo, hi).
  double NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Standard normal via Box-Muller (no cached spare; simplicity over speed).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) {
      u1 = 1e-300;
    }
    return std::sqrt(-2.0 * Log(u1)) * CosTwoPi(u2);
  }

  double NextGaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

  // Exponential with the given rate (events per unit time).
  double NextExponential(double rate) {
    double u = NextDouble();
    if (u < 1e-300) {
      u = 1e-300;
    }
    return -Log(u) / rate;
  }

  // Log-normal parameterised by the underlying normal's mu/sigma.
  double NextLogNormal(double mu, double sigma) { return Exp(NextGaussian(mu, sigma)); }

  bool NextBool(double p_true) { return NextDouble() < p_true; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_RNG_H_
