#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "oracle.h"

namespace perfbench {

double SensorWalk::Next(Rng* rng) {
  if (rng->Unit() < kJumpProb) {
    pos_ = rng->Unit() * kHi;
  } else {
    // Irwin-Hall(4) - 2 has variance 1/3; scale to a step of kStep.
    double g = rng->Unit() + rng->Unit() + rng->Unit() + rng->Unit() - 2.0;
    pos_ += g * kStep * 1.7320508075688772;
    if (pos_ < 0) pos_ = -pos_;
    if (pos_ > kHi) pos_ = 2 * kHi - pos_;
  }
  return std::round(pos_ * 100.0) / 100.0;
}

FabricInputs MakeFabricInputs(uint64_t seed, size_t locals,
                              size_t events_per_local, size_t pool,
                              const std::vector<double>& quantiles) {
  FabricInputs in;
  in.locals = locals;
  in.events_per_window = locals * events_per_local;
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 11);
  std::vector<SensorWalk> walks;
  for (size_t i = 0; i < locals; ++i) walks.emplace_back(&rng);
  in.windows.assign(pool, std::vector<std::vector<dema::Event>>(locals));
  for (size_t p = 0; p < pool; ++p) {
    std::vector<double> all;
    all.reserve(in.events_per_window);
    for (size_t i = 0; i < locals; ++i) {
      auto& events = in.windows[p][i];
      events.resize(events_per_local);
      for (size_t j = 0; j < events_per_local; ++j) {
        dema::Event& e = events[j];
        e.value = walks[i].Next(&rng);
        e.timestamp = static_cast<dema::TimestampUs>(
            j * static_cast<uint64_t>(kWindowLenUs) / events_per_local);
        e.node = static_cast<dema::NodeId>(i + 1);
        e.seq = static_cast<uint32_t>(p * events_per_local + j);
        all.push_back(e.value);
      }
    }
    in.expected.push_back(OracleQuantiles(std::move(all), quantiles));
  }
  return in;
}

KeyedInputs MakeKeyedInputs(uint64_t seed, size_t locals, uint64_t keys,
                            size_t pool, const std::vector<double>& quantiles) {
  KeyedInputs in;
  in.locals = locals;
  in.keys = keys;
  in.num_quantiles = quantiles.size();
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 23);
  std::vector<std::vector<SensorWalk>> walks(locals);
  for (size_t i = 0; i < locals; ++i) {
    for (uint64_t k = 0; k < keys; ++k) walks[i].emplace_back(&rng);
  }
  in.windows.assign(pool, std::vector<std::vector<KeyedEvent>>(locals));
  std::vector<std::vector<double>> per_key(keys);
  for (size_t p = 0; p < pool; ++p) {
    for (auto& v : per_key) v.clear();
    uint64_t total = 0;
    for (size_t i = 0; i < locals; ++i) {
      auto& stream = in.windows[p][i];
      for (uint64_t k = 0; k < keys; ++k) {
        const uint64_t n = rng.Between(5, 15);
        for (uint64_t j = 0; j < n; ++j) {
          KeyedEvent ke;
          ke.key = static_cast<uint32_t>(k);
          ke.event.timestamp =
              static_cast<dema::TimestampUs>(rng.Next() % kWindowLenUs);
          stream.push_back(ke);
        }
      }
      std::sort(stream.begin(), stream.end(),
                [](const KeyedEvent& a, const KeyedEvent& b) {
                  if (a.event.timestamp != b.event.timestamp) {
                    return a.event.timestamp < b.event.timestamp;
                  }
                  return a.key < b.key;
                });
      for (size_t j = 0; j < stream.size(); ++j) {
        KeyedEvent& ke = stream[j];
        ke.event.value = walks[i][ke.key].Next(&rng);
        ke.event.node = static_cast<dema::NodeId>(i + 1);
        ke.event.seq = static_cast<uint32_t>(j);
        per_key[ke.key].push_back(ke.event.value);
      }
      total += stream.size();
    }
    in.events_per_window.push_back(total);
    std::vector<uint64_t> sizes(keys);
    std::vector<double> values(keys * quantiles.size());
    for (uint64_t k = 0; k < keys; ++k) {
      sizes[k] = per_key[k].size();
      std::vector<double> q = OracleQuantiles(per_key[k], quantiles);
      std::copy(q.begin(), q.end(), values.begin() + k * quantiles.size());
    }
    in.sizes.push_back(std::move(sizes));
    in.values.push_back(std::move(values));
  }
  return in;
}

}  // namespace perfbench
