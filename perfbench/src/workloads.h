#pragma once

#include <cstddef>
#include <cstdint>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// Shape of a flat (single-key) topology on the in-process fabric.
struct FabricShape {
  size_t locals = 4;
  size_t events_per_local = 25'000;
  uint64_t gamma = 10'000;
  bool adaptive_gamma = false;
};

Report RunFabricWorkload(const Options& opt, const FabricShape& shape);
Report RunKeyedWorkload(const Options& opt);
Report RunTcpWorkload(const Options& opt);

/// Checks the oracle, the checkers in checks.h (fed planted wrong results)
/// and the allocation counter on hand-worked cases; prints what failed and
/// returns false on any failure.
bool RunSelfTests();

/// Writes a traced run's spans to `<trace_dir>/<workload>-seed<seed>.tsv`.
void WriteTrace(const Options& opt, const TraceRecorder& recorder);

}  // namespace perfbench
