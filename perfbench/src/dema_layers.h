#pragma once

#include <cstdint>

#include "dema/root_node.h"
#include "metrics.h"
#include "net/message.h"
#include "obs/registry.h"
#include "trace.h"

namespace perfbench {

/// Span name of a root `OnMessage` call on a message of type \p t.
const char* RootSpan(dema::net::MessageType t);
/// Span name of a local `OnMessage` call on a message of type \p t.
const char* LocalSpan(dema::net::MessageType t);

/// Counters of a single-root Dema system, read before and after the timed
/// region by the workloads that run one (fabric and TCP).
struct DemaCounters {
  dema::core::DemaRootStats stats;
  uint64_t messages = 0;
  uint64_t synopsis_bytes = 0;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
  uint64_t select_us_sum = 0;
  uint64_t select_count = 0;

  /// Fills `stats` and the `root.select_us` fields from the root.
  void ReadRoot(const dema::core::DemaRootNode& root);
};

/// Sets the `dema.*`, `stream.*` and `net.*` per-layer metrics from the
/// spans in \p spans (named by `RootSpan`/`LocalSpan` plus `local.ingest`
/// and `local.close`) and the counter deltas.
void SetDemaLayers(const SpanTotals& spans, uint64_t events, uint64_t windows,
                   int64_t retained_peak, const DemaCounters& before,
                   const DemaCounters& after, LayerValues* lv);

}  // namespace perfbench
