#pragma once

#include <cstdint>
#include <vector>

#include "common/event.h"

namespace perfbench {

/// Event-time length of every window (tumbling).
inline constexpr int64_t kWindowLenUs = 1'000'000;

/// splitmix64: a small, portable generator, so inputs depend on the seed
/// alone and not on the standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) { return lo + Next() % (hi - lo + 1); }

 private:
  uint64_t s_;
};

/// A sensor reading that random-walks inside [0, 1000] with rare jumps,
/// quantised to 0.01 like a real sensor (so values tie).
class SensorWalk {
 public:
  explicit SensorWalk(Rng* rng) : pos_(rng->Unit() * kHi) {}
  double Next(Rng* rng);

 private:
  static constexpr double kHi = 1000.0;
  static constexpr double kStep = 2.0;
  static constexpr double kJumpProb = 0.001;
  double pos_;
};

/// A pool of generated windows for a flat (single-key) topology, replayed
/// round-robin with shifted event times: pool window `w % pool` serves window
/// `w`. Event timestamps are offsets inside the window.
struct FabricInputs {
  size_t locals = 0;
  /// windows[p][i]: local i's events of pool window p, in event-time order.
  std::vector<std::vector<std::vector<dema::Event>>> windows;
  /// expected[p]: oracle quantiles of pool window p over all locals.
  std::vector<std::vector<double>> expected;
  /// Events of one window over all locals (the same for every window).
  uint64_t events_per_window = 0;

  size_t pool() const { return windows.size(); }
};

FabricInputs MakeFabricInputs(uint64_t seed, size_t locals,
                              size_t events_per_local, size_t pool,
                              const std::vector<double>& quantiles);

/// One event of a keyed stream.
struct KeyedEvent {
  uint32_t key = 0;
  dema::Event event;
};

/// A pool of generated windows for the keyed service. Every key gets 5..15
/// events per local per window (never 0), interleaved in event-time order.
struct KeyedInputs {
  size_t locals = 0;
  uint64_t keys = 0;
  size_t num_quantiles = 0;
  /// windows[p][i]: local i's stream for pool window p.
  std::vector<std::vector<std::vector<KeyedEvent>>> windows;
  /// sizes[p][key]: the key's global window size in pool window p.
  std::vector<std::vector<uint64_t>> sizes;
  /// values[p][key * num_quantiles + j]: the key's oracle j-th quantile.
  std::vector<std::vector<double>> values;
  /// events_per_window[p]: events of pool window p over all locals and keys.
  std::vector<uint64_t> events_per_window;

  size_t pool() const { return windows.size(); }
};

KeyedInputs MakeKeyedInputs(uint64_t seed, size_t locals, uint64_t keys,
                            size_t pool, const std::vector<double>& quantiles);

}  // namespace perfbench
