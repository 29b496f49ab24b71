#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed region in seconds (whole windows are completed, so
  /// the region ends at the first window boundary after this much time).
  int seconds = 10;
  /// Record spans and report per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".bench_traces";
};

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();
/// User + system CPU time of the whole process in nanoseconds.
int64_t ProcessCpuNs();
/// Peak resident set size of the process in MiB (`ru_maxrss`).
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run hands back to `main`: the operation counts and both metric
/// families (per-layer ones are filled only by traced runs).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2E(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nearest-rank percentile (rank = ceil(p * n)) of \p samples; 0 when empty.
double Percentile(std::vector<double> samples, double p);
/// Median of \p samples (nearest-rank p50).
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Ratio that reads 0 instead of NaN when the base is 0.
inline double PerUnit(double total, double base) {
  return base > 0 ? total / base : 0.0;
}

/// Aborts the run with \p what and the status text (the program failed an
/// operation the benchmark cannot continue without, such as construction).
[[noreturn]] void Fatal(const std::string& what, const dema::Status& st);
/// Aborts when \p st is not OK.
inline void Check(const dema::Status& st, const char* what) {
  if (!st.ok()) Fatal(what, st);
}

}  // namespace perfbench
