#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/registry.h"

namespace perfbench {

/// What every workload measures over its timed region, from which the seven
/// end-to-end metrics follow.
struct EndToEndSample {
  /// Events ingested in the timed region.
  uint64_t events = 0;
  /// First event fed -> last result emitted.
  int64_t wall_ns = 0;
  /// Per window (or key-window): last event handed to a local -> result
  /// emitted at the root, in ms. Failed operations contribute no sample.
  std::vector<double> latencies_ms;
  /// Bytes carried on the fabric or written to sockets, both directions.
  uint64_t wire_bytes = 0;
  /// Process CPU time over the timed region.
  int64_t cpu_ns = 0;
  /// One sample per set-up repetition, in seconds.
  std::vector<double> setup_s;
};

/// Appends the seven end-to-end metrics to \p report.
void AddEndToEnd(const EndToEndSample& s, Report* report);

/// Per-layer metrics. Every traced run reports every one of them; a layer a
/// workload does not exercise reads 0 (the README maps metrics to workloads).
class LayerValues {
 public:
  LayerValues();
  /// Sets a metric declared in the table in metrics.cc (aborts otherwise).
  void Set(const std::string& name, double value);
  /// Appends all metrics in table order to \p report.
  void AppendTo(Report* report) const;

 private:
  std::map<std::string, double> values_;
};

/// Sum of every counter named \p name, with or without a `{label=...}`
/// suffix (per-shard instances of one instrument).
uint64_t SumCounters(const dema::obs::Registry& registry, const std::string& name);

/// Highest value of every gauge named \p name, with or without a label
/// suffix (0 when there is none).
int64_t MaxGauge(const dema::obs::Registry& registry, const std::string& name);

/// Median of the samples a log2 histogram gained between two
/// `BucketCounts()` snapshots, interpolated linearly inside its bucket.
double HistogramDeltaMedian(const std::vector<uint64_t>& before,
                            const std::vector<uint64_t>& after);

}  // namespace perfbench
