// Deterministic pseudo-random number generation for the simulator.
//
// Every simulation run is seeded explicitly; all nondeterminism in Rose's
// testbed (message latency jitter, workload inter-arrival times, nemesis
// choices) flows through one of these generators so that a (seed, schedule)
// pair fully determines an execution.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

#include "src/common/hash.h"

namespace rose {

// SplitMix64: used to expand a user seed into xoshiro state.
// Reference: Sebastiano Vigna, public domain.
inline uint64_t SplitMix64(uint64_t& state) {
  return SplitMix64Finalize(state += 0x9e3779b97f4a7c15ULL);
}

// xoshiro256** 1.0 — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b9u) { Seed(seed); }

  void Seed(uint64_t seed) {
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

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) { return Next() % bound; }

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

  // Bernoulli trial with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  // Fork a child generator whose stream is independent of this one.
  Rng Fork() { return Rng(Next() ^ 0xd2b74407b1ce6e93ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// Zipfian distribution over [0, n) with parameter theta, as used by YCSB.
// Implementation follows Gray et al., "Quickly Generating Billion-Record
// Synthetic Databases" (the classic YCSB zipfian generator).
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta = 0.99);

  uint64_t Next(Rng& rng);

  uint64_t item_count() const { return n_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace rose

#endif  // SRC_COMMON_RNG_H_
