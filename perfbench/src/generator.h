// The benchmark's own transaction generator. It draws every TxnProgram
// from a private RNG seeded by the --seed argument, so the measured
// inputs depend only on this file and the seed — never on the library's
// workload generator or its Rng, which later changes may alter.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>

#include "txn/transaction.h"

namespace perfbench {

/// splitmix64 finaliser: spreads a seed over all 64 bits.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** seeded through splitmix64.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) {
    for (uint64_t& w : s_) {
      seed = Mix64(seed);
      w = seed;
    }
  }

  uint64_t Next() {
    uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n), n > 0, without modulo bias.
  uint64_t Below(uint64_t n) {
    uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t x = Next();
    while (x >= limit) x = Next();
    return x % n;
  }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// Shape of the generated programs. Each op is a scan with probability
/// scan_fraction, else an increment (a read-modify-write) with
/// probability write_fraction, else a read; items are uniform.
struct GenParams {
  uint32_t num_items = 0;
  uint32_t ops_min = 2;
  uint32_t ops_max = 6;
  double write_fraction = 0.25;
  double scan_fraction = 0.0;
  uint32_t scan_length = 16;
};

/// Item ids are dense (0..num_items-1) in the catalog's load order.
inline rainbow::TxnProgram NextProgram(BenchRng& rng, const GenParams& p) {
  rainbow::TxnProgram program;
  uint32_t n = p.ops_min +
               static_cast<uint32_t>(rng.Below(p.ops_max - p.ops_min + 1));
  program.ops.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    double u = rng.Unit();
    if (u < p.scan_fraction) {
      uint32_t span = p.num_items - p.scan_length + 1;
      program.ops.push_back(rainbow::Op::Scan(
          static_cast<rainbow::ItemId>(rng.Below(span)), p.scan_length));
    } else if (u < p.scan_fraction + p.write_fraction) {
      auto item = static_cast<rainbow::ItemId>(rng.Below(p.num_items));
      program.ops.push_back(rainbow::Op::Increment(
          item, 1 + static_cast<rainbow::Value>(rng.Below(9))));
    } else {
      program.ops.push_back(rainbow::Op::Read(
          static_cast<rainbow::ItemId>(rng.Below(p.num_items))));
    }
  }
  return program;
}

/// The RNG stream of closed-loop client `client` under `seed`.
inline BenchRng ClientRng(uint64_t seed, uint32_t client) {
  return BenchRng(Mix64(seed) ^ Mix64(0xc11e47ULL + client));
}

/// The seed of stream `stream` of a run under `seed`. Stream 0 is the
/// seed itself.
inline uint64_t StreamSeed(uint64_t seed, uint32_t stream) {
  return stream == 0 ? seed : Mix64(seed) ^ Mix64(0x57eaULL + stream);
}

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
