#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "gen/generator.h"
#include "net/network.h"
#include "sim/metrics.h"
#include "sim/node.h"
#include "sim/topology.h"
#include "stream/window.h"

namespace dema::sim {

/// \brief Per-local-node workload description for a run.
struct WorkloadConfig {
  /// Value distribution and pacing for each local node's generator; one entry
  /// per local node (entry i drives local_ids[i]).
  std::vector<gen::GeneratorConfig> generators;
  /// Number of window-lengths of event time to generate (for tumbling
  /// windows this is exactly the number of emitted windows; for sliding
  /// windows more windows close within the same horizon).
  uint64_t num_windows = 10;
  /// Window lifespan; must match the system's (the convenience runners copy
  /// it from the system config).
  DurationUs window_len_us = kMicrosPerSecond;
  /// Slide step; 0 = tumbling. Must match the system's.
  DurationUs window_slide_us = 0;
  /// Bounded out-of-order delivery: each event may arrive up to this much
  /// event time late (0 = perfectly ordered).
  DurationUs max_disorder_us = 0;
  /// Watermark hold-back. With allowed_lateness >= max_disorder no event is
  /// dropped and results stay exact; smaller values trade completeness for
  /// freshness (drops are counted by the window managers).
  DurationUs allowed_lateness_us = 0;

  /// Windows that fully close within the generated event-time horizon.
  uint64_t ExpectedWindows() const {
    stream::SlidingWindowAssigner assigner(
        stream::WindowSpec{window_len_us, window_slide_us});
    return assigner.ClosedUpTo(static_cast<TimestampUs>(num_windows) *
                               window_len_us);
  }
};

/// \brief Builds a homogeneous workload: every node runs the same
/// distribution with a distinct seed; node i's value scale is
/// \p scale_rates[i] (1.0 when the vector is shorter).
WorkloadConfig MakeUniformWorkload(size_t num_locals, uint64_t num_windows,
                                   double event_rate,
                                   const gen::DistributionParams& distribution,
                                   const std::vector<double>& scale_rates = {},
                                   uint64_t seed_base = 1000);

/// \brief Per-node busy time of a single-threaded run: the work each node
/// performed on its own simulated "CPU". `relay_us` and `local_us` are
/// parallel to `System::relays` and `System::locals`.
struct BusyTime {
  double root_us = 0;
  std::vector<double> relay_us;
  std::vector<double> local_us;

  /// Busy microseconds of the busiest local node.
  double max_local_us() const;
  /// Simulated-parallel throughput: \p events over the busy time of the
  /// slower of the root and the busiest local (0 when neither did work).
  double SimThroughputEps(uint64_t events) const;
};

/// \brief Runs \p fn, adds its duration on the monotonic clock to
/// \p account_us, and returns its status.
template <typename Fn>
Status ChargeBusy(double* account_us, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  Status st = fn();
  auto end = std::chrono::steady_clock::now();
  *account_us += std::chrono::duration<double, std::micro>(end - start).count();
  return st;
}

/// \brief Delivers messages until \p system is quiescent, charging each
/// handler call to its node in \p busy (whose vectors grow to the system's
/// shape).
///
/// The single-threaded pump every synchronous run uses. Each pass drains the
/// root's inbox, then every relay's, then every local's (null locals are
/// crashed slots and are skipped). When a pass finds every inbox empty, it
/// advances an event-delivery network by one virtual instant
/// (`Network::AdvanceEvents`) or, on an inline network, releases
/// fault-delayed messages (`Network::FlushDelayed`); it returns once neither
/// has anything left to deliver. Stops at the first handler error.
Status PumpUntilQuiet(net::Network* network, System* system, BusyTime* busy);

/// \brief Deterministic single-threaded driver (tests, accuracy experiments,
/// network-cost accounting) for flat and tree (`BuildTreeSystem`) systems.
///
/// Generates each window's events for every local node, feeds them through
/// the node logic, then pumps messages until the system is quiescent
/// (`PumpUntilQuiet`). All ordering is deterministic given the generator
/// seeds, on inline and event-delivery networks alike.
class SyncDriver {
 public:
  /// Wires the driver; \p system nodes must be registered on \p network.
  SyncDriver(System* system, net::Network* network, const Clock* clock);

  /// Runs the whole workload; fails on the first node error.
  Status Run(const WorkloadConfig& workload);

  /// Outputs emitted by the root, in emission order.
  const std::vector<WindowOutput>& outputs() const { return outputs_; }

  /// When enabled before Run, keeps every generated event per window so
  /// tests can compute oracle quantiles.
  void set_record_events(bool record) { record_events_ = record; }
  /// Generated events per window id (only when recording was enabled).
  const std::vector<std::vector<Event>>& recorded_events() const {
    return recorded_;
  }

  /// Total events ingested.
  uint64_t events_ingested() const { return events_ingested_; }

  /// Per-node busy time of the last run.
  const BusyTime& busy() const { return busy_; }
  /// Busy seconds of local node \p i (work it performed on its own "CPU").
  double local_busy_seconds(size_t i) const { return busy_.local_us[i] / 1e6; }
  /// Busy seconds of the root node.
  double root_busy_seconds() const { return busy_.root_us / 1e6; }
  /// Busy seconds of the busiest local node.
  double max_local_busy_seconds() const { return busy_.max_local_us() / 1e6; }

 private:
  /// In-order mode: each window's events, then every local's watermark.
  Status FeedOrdered(const WorkloadConfig& workload);
  /// Out-of-order mode (max_disorder_us > 0): chunked round-robin delivery
  /// with held-back watermarks.
  Status FeedDisordered(const WorkloadConfig& workload);
  /// Waits for every local's asynchronous closes, then pumps to quiescence.
  Status QuiesceAndPump();

  System* system_;
  net::Network* network_;
  const Clock* clock_;
  std::vector<WindowOutput> outputs_;
  std::vector<std::vector<Event>> recorded_;
  bool record_events_ = false;
  uint64_t events_ingested_ = 0;
  BusyTime busy_;
};

/// \brief Options for the threaded driver.
struct ThreadedDriverOptions {
  /// Abort the run when the root has not finished within this wall time.
  DurationUs timeout_us = 120 * kMicrosPerSecond;
  /// Local nodes hand watermarks to the logic every this many events (window
  /// boundaries always force one).
  size_t watermark_every = 4096;
};

/// \brief Thread-per-node driver measuring throughput and latency.
///
/// Each local node runs its generator at full speed on its own thread
/// (backpressure from the root's bounded inbox throttles it to the
/// sustainable rate); the root runs on another thread. Wall-clock throughput
/// and close-to-emit latency come out in `RunMetrics`.
class ThreadedDriver {
 public:
  ThreadedDriver(System* system, net::Network* network, const Clock* clock,
                 ThreadedDriverOptions options = ThreadedDriverOptions());

  /// Runs the workload; fails on node errors or timeout.
  Result<RunMetrics> Run(const WorkloadConfig& workload);

 private:
  System* system_;
  net::Network* network_;
  const Clock* clock_;
  ThreadedDriverOptions options_;
};

/// \brief Convenience: builds the system + network, runs the threaded
/// driver, and returns the metrics (what most benches call).
Result<RunMetrics> RunThreaded(const SystemConfig& system_config,
                               const WorkloadConfig& workload,
                               size_t root_inbox_capacity = 1024);

/// \brief The metrics every synchronous run reports, from its results: wall
/// throughput, latency (also recorded into `root.window_latency_us` on the
/// network's registry), network totals and per-type traffic, the busy-time
/// throughput model with its bottleneck tier, and Dema root stats.
RunMetrics SummarizeSyncRun(const std::vector<WindowOutput>& outputs,
                            uint64_t events, double wall_seconds,
                            net::Network* network, const System& system,
                            const BusyTime& busy);

/// \brief Convenience: builds the system + network and runs the synchronous
/// driver, returning metrics with network accounting (no meaningful wall
/// time). Used by network-cost experiments where determinism matters.
Result<RunMetrics> RunSync(const SystemConfig& system_config,
                           const WorkloadConfig& workload);

}  // namespace dema::sim
