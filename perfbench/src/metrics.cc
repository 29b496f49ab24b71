#include "metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json's "per_layer" list.
constexpr LayerDef kLayers[] = {
    {"dema.local.ingest_ns_per_event", "ns/event"},
    {"dema.local.close_ms_per_window", "ms/window"},
    {"dema.local.reply_us_per_request", "us/request"},
    {"dema.local.allocs_per_event", "allocs/event"},
    {"dema.local.retained_events_peak", "events"},
    {"dema.root.synopsis_us_per_window", "us/window"},
    {"dema.root.reply_us_per_window", "us/window"},
    {"dema.root.allocs_per_window", "allocs/window"},
    {"dema.candidate_event_share", "ratio"},
    {"dema.synopsis_slices_per_window", "slices/window"},
    {"dema.candidate_slices_per_window", "slices/window"},
    {"dema.retries", "count"},
    {"dema.degraded_windows", "count"},
    {"stream.select_us_per_window", "us/window"},
    {"net.messages_per_window", "msgs/window"},
    {"net.synopsis_bytes_per_window", "B/window"},
    {"net.request_bytes_per_window", "B/window"},
    {"net.reply_bytes_per_window", "B/window"},
    {"transport.candidate_wait_ms_per_window", "ms/window"},
    {"transport.acks_per_window", "acks/window"},
    {"transport.heartbeats", "count"},
    {"transport.replayed_frames", "count"},
    {"transport.reconnects", "count"},
    {"exec.task_run_us_p50", "us"},
    {"exec.queue_full_blocks", "count"},
    {"shard.local.ingest_ns_per_event", "ns/event"},
    {"shard.local.close_ms_per_window", "ms/window"},
    {"shard.local.reply_ms_per_window", "ms/window"},
    {"shard.service_ms_per_window", "ms/window"},
    {"shard.wait_idle_ms_per_window", "ms/window"},
    {"shard.bytes_per_key_window", "B/keywindow"},
    {"shard.allocs_per_key_window", "allocs/keywindow"},
    {"shard.query_us_p50", "us"},
    {"shard.query_us_p90", "us"},
    {"shard.queries", "count"},
};

/// True when \p n is \p name or \p name with a `{label=...}` suffix.
bool SameInstrument(const std::string& n, const std::string& name) {
  return n == name || (n.size() > name.size() && n.compare(0, name.size(), name) == 0 &&
                       n[name.size()] == '{');
}

}  // namespace

void AddEndToEnd(const EndToEndSample& s, Report* report) {
  const double events = static_cast<double>(s.events);
  report->E2E("events_per_s", PerUnit(events, s.wall_ns / 1e9), "events/s");
  report->E2E("window_latency_p50_ms", Percentile(s.latencies_ms, 0.5), "ms");
  report->E2E("window_latency_p90_ms", Percentile(s.latencies_ms, 0.9), "ms");
  report->E2E("wire_bytes_per_event",
              PerUnit(static_cast<double>(s.wire_bytes), events), "B/event");
  report->E2E("cpu_ns_per_event", PerUnit(static_cast<double>(s.cpu_ns), events),
              "ns/event");
  report->E2E("setup_s", Median(s.setup_s), "s");
  report->E2E("peak_rss_mb", PeakRssMb(), "MiB");
}

LayerValues::LayerValues() {
  for (const LayerDef& d : kLayers) values_[d.name] = 0.0;
}

void LayerValues::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: undeclared per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  it->second = value;
}

uint64_t SumCounters(const dema::obs::Registry& registry, const std::string& name) {
  uint64_t sum = 0;
  for (const auto& [n, v] : registry.CounterValues()) {
    if (SameInstrument(n, name)) sum += v;
  }
  return sum;
}

int64_t MaxGauge(const dema::obs::Registry& registry, const std::string& name) {
  int64_t max = 0;
  for (const auto& [n, v] : registry.GaugeValues()) {
    if (SameInstrument(n, name)) max = std::max(max, v);
  }
  return max;
}

double HistogramDeltaMedian(const std::vector<uint64_t>& before,
                            const std::vector<uint64_t>& after) {
  std::vector<uint64_t> delta(after.size(), 0);
  uint64_t total = 0;
  for (size_t b = 0; b < after.size(); ++b) {
    delta[b] = after[b] - (b < before.size() ? before[b] : 0);
    total += delta[b];
  }
  if (total == 0) return 0.0;
  const double target = static_cast<double>(total) / 2.0;
  double seen = 0;
  for (size_t b = 0; b < delta.size(); ++b) {
    if (delta[b] == 0) continue;
    if (seen + static_cast<double>(delta[b]) >= target) {
      const double lo = static_cast<double>(dema::obs::Histogram::BucketLo(b));
      const double hi = static_cast<double>(dema::obs::Histogram::BucketHi(b));
      return lo + (hi - lo) * (target - seen) / static_cast<double>(delta[b]);
    }
    seen += static_cast<double>(delta[b]);
  }
  return 0.0;
}

void LayerValues::AppendTo(Report* report) const {
  for (const LayerDef& d : kLayers) report->Layer(d.name, values_.at(d.name), d.unit);
}

}  // namespace perfbench
