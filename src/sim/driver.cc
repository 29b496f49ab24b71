#include "sim/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "gen/disorder.h"
#include "stream/window.h"

namespace dema::sim {

WorkloadConfig MakeUniformWorkload(size_t num_locals, uint64_t num_windows,
                                   double event_rate,
                                   const gen::DistributionParams& distribution,
                                   const std::vector<double>& scale_rates,
                                   uint64_t seed_base) {
  WorkloadConfig workload;
  workload.num_windows = num_windows;
  for (size_t i = 0; i < num_locals; ++i) {
    gen::GeneratorConfig cfg;
    cfg.node = static_cast<NodeId>(i + 1);
    cfg.seed = seed_base + i * 7919;  // distinct streams per node
    cfg.distribution = distribution;
    cfg.event_rate = event_rate;
    cfg.scale_rate = i < scale_rates.size() ? scale_rates[i] : 1.0;
    workload.generators.push_back(cfg);
  }
  return workload;
}

// ---------------------------------------------------------------------------
// The quiescence pump
// ---------------------------------------------------------------------------

double BusyTime::max_local_us() const {
  double max_us = 0;
  for (double b : local_us) max_us = std::max(max_us, b);
  return max_us;
}

double BusyTime::SimThroughputEps(uint64_t events) const {
  double bottleneck_seconds = std::max(root_us / 1e6, max_local_us() / 1e6);
  return bottleneck_seconds > 0
             ? static_cast<double>(events) / bottleneck_seconds
             : 0;
}

namespace {
/// Hands every message queued in \p id's inbox to \p node, charging
/// \p busy_us; sets \p progress when it handled any.
Status DrainInbox(net::Network* network, NodeId id, NodeLogic* node,
                  double* busy_us, bool* progress) {
  net::Channel* inbox = network->Inbox(id);
  while (auto msg = inbox->TryPop()) {
    DEMA_RETURN_NOT_OK(
        ChargeBusy(busy_us, [&] { return node->OnMessage(*msg); }));
    *progress = true;
  }
  return Status::OK();
}
}  // namespace

Status PumpUntilQuiet(net::Network* network, System* system, BusyTime* busy) {
  busy->relay_us.resize(system->relays.size(), 0.0);
  busy->local_us.resize(system->locals.size(), 0.0);
  bool progress = true;
  while (progress) {
    progress = false;
    DEMA_RETURN_NOT_OK(DrainInbox(network, system->root_id, system->root.get(),
                                  &busy->root_us, &progress));
    for (size_t i = 0; i < system->relays.size(); ++i) {
      DEMA_RETURN_NOT_OK(DrainInbox(network, system->relay_ids[i],
                                    system->relays[i].get(),
                                    &busy->relay_us[i], &progress));
    }
    for (size_t i = 0; i < system->locals.size(); ++i) {
      if (system->locals[i] == nullptr) continue;
      DEMA_RETURN_NOT_OK(DrainInbox(network, system->local_ids[i],
                                    system->locals[i].get(),
                                    &busy->local_us[i], &progress));
    }
    if (!progress) {
      if (network->pending_events() > 0) {
        // Event-driven delivery: every inbox drained, so advance virtual
        // time to the next tick and process its due hop events.
        progress = network->AdvanceEvents() > 0;
      } else if (network->delayed_in_flight() > 0) {
        // Every inbox drained but the fabric still holds delayed messages:
        // quiescence means the delay has "elapsed", so release them.
        progress = network->FlushDelayed() > 0;
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SyncDriver
// ---------------------------------------------------------------------------

SyncDriver::SyncDriver(System* system, net::Network* network, const Clock* clock)
    : system_(system), network_(network), clock_(clock) {
  (void)clock_;
}

Status SyncDriver::Run(const WorkloadConfig& workload) {
  if (workload.generators.size() != system_->locals.size()) {
    return Status::InvalidArgument("generator count != local node count");
  }
  system_->root->SetResultCallback(
      [this](const WindowOutput& out) { outputs_.push_back(out); });
  busy_ = BusyTime{};
  busy_.local_us.assign(system_->locals.size(), 0.0);
  if (record_events_) recorded_.assign(workload.num_windows, {});
  DEMA_RETURN_NOT_OK(workload.max_disorder_us > 0 ? FeedDisordered(workload)
                                                  : FeedOrdered(workload));

  const TimestampUs horizon =
      static_cast<TimestampUs>(workload.num_windows) * workload.window_len_us;
  for (size_t i = 0; i < system_->locals.size(); ++i) {
    DEMA_RETURN_NOT_OK(ChargeBusy(&busy_.local_us[i], [&] {
      return system_->locals[i]->OnFinish(horizon);
    }));
  }
  DEMA_RETURN_NOT_OK(PumpUntilQuiet(network_, system_, &busy_));

  if (system_->root->windows_emitted() != workload.ExpectedWindows()) {
    return Status::Internal(
        "root emitted " + std::to_string(system_->root->windows_emitted()) +
        " windows, expected " + std::to_string(workload.ExpectedWindows()));
  }
  if (!system_->root->idle()) {
    return Status::Internal("root still has pending windows after run");
  }
  for (const auto& relay : system_->relays) {
    if (relay->pending_windows() != 0) {
      return Status::Internal("relay still has pending windows after run");
    }
  }
  return Status::OK();
}

Status SyncDriver::QuiesceAndPump() {
  // Outside ChargeBusy: waiting for the worker pool is driver synchronization
  // (keeps threaded message sequences identical to inline runs), not node
  // busy time — a real ingest thread keeps ingesting while the pool sorts.
  for (const auto& local : system_->locals) {
    DEMA_RETURN_NOT_OK(local->Quiesce());
  }
  return PumpUntilQuiet(network_, system_, &busy_);
}

Status SyncDriver::FeedOrdered(const WorkloadConfig& workload) {
  std::vector<std::unique_ptr<gen::StreamGenerator>> gens;
  for (const auto& cfg : workload.generators) {
    DEMA_ASSIGN_OR_RETURN(auto g, gen::StreamGenerator::Create(cfg));
    gens.push_back(std::move(g));
  }

  for (uint64_t w = 0; w < workload.num_windows; ++w) {
    TimestampUs start = static_cast<TimestampUs>(w) * workload.window_len_us;
    TimestampUs end = start + workload.window_len_us;
    for (size_t i = 0; i < gens.size(); ++i) {
      std::vector<Event> events =
          gens[i]->GenerateWindow(start, workload.window_len_us);
      DEMA_RETURN_NOT_OK(ChargeBusy(&busy_.local_us[i], [&]() -> Status {
        for (const Event& e : events) {
          DEMA_RETURN_NOT_OK(system_->locals[i]->OnEvent(e));
        }
        return Status::OK();
      }));
      events_ingested_ += events.size();
      if (record_events_) {
        auto& rec = recorded_[w];
        rec.insert(rec.end(), events.begin(), events.end());
      }
    }
    for (size_t i = 0; i < system_->locals.size(); ++i) {
      DEMA_RETURN_NOT_OK(ChargeBusy(&busy_.local_us[i], [&] {
        return system_->locals[i]->OnWatermark(end);
      }));
    }
    DEMA_RETURN_NOT_OK(QuiesceAndPump());
  }
  return Status::OK();
}

Status SyncDriver::FeedDisordered(const WorkloadConfig& workload) {
  // Bounded-disorder mode: every node's stream is shuffled within
  // max_disorder_us of event time and watermarks are held back by the
  // allowed lateness. Chunked round-robin processing keeps nodes loosely in
  // step, as concurrent execution would.
  const TimestampUs horizon =
      static_cast<TimestampUs>(workload.num_windows) * workload.window_len_us;

  std::vector<std::vector<Event>> streams;
  for (size_t i = 0; i < workload.generators.size(); ++i) {
    gen::DisorderedSource::Options opts;
    opts.max_disorder_us = workload.max_disorder_us;
    opts.seed = workload.generators[i].seed + 77'777;
    DEMA_ASSIGN_OR_RETURN(
        auto source, gen::DisorderedSource::Create(workload.generators[i], opts));
    streams.push_back(source->DeliverAll(horizon));
    if (record_events_) {
      for (const Event& e : streams.back()) {
        recorded_[static_cast<size_t>(e.timestamp / workload.window_len_us)]
            .push_back(e);
      }
    }
  }

  constexpr size_t kChunk = 512;
  std::vector<size_t> pos(streams.size(), 0);
  std::vector<TimestampUs> max_ts(streams.size(), 0);
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (size_t i = 0; i < streams.size(); ++i) {
      size_t end = std::min(streams[i].size(), pos[i] + kChunk);
      if (pos[i] >= end) continue;
      remaining = true;
      DEMA_RETURN_NOT_OK(ChargeBusy(&busy_.local_us[i], [&]() -> Status {
        for (; pos[i] < end; ++pos[i]) {
          const Event& e = streams[i][pos[i]];
          max_ts[i] = std::max(max_ts[i], e.timestamp);
          DEMA_RETURN_NOT_OK(system_->locals[i]->OnEvent(e));
        }
        TimestampUs held_back = max_ts[i] > workload.allowed_lateness_us
                                    ? max_ts[i] - workload.allowed_lateness_us
                                    : 0;
        return system_->locals[i]->OnWatermark(held_back);
      }));
    }
    DEMA_RETURN_NOT_OK(QuiesceAndPump());
  }
  for (const auto& stream : streams) events_ingested_ += stream.size();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ThreadedDriver
// ---------------------------------------------------------------------------

ThreadedDriver::ThreadedDriver(System* system, net::Network* network,
                               const Clock* clock, ThreadedDriverOptions options)
    : system_(system), network_(network), clock_(clock), options_(options) {}

Result<RunMetrics> ThreadedDriver::Run(const WorkloadConfig& workload) {
  if (workload.generators.size() != system_->locals.size()) {
    return Status::InvalidArgument("generator count != local node count");
  }
  if (network_->delivery_mode() == net::Network::DeliveryMode::kEvent) {
    return Status::InvalidArgument(
        "event-driven delivery needs a single-threaded driver to advance "
        "virtual time deterministically");
  }

  struct Shared {
    std::atomic<bool> stop{false};
    std::atomic<bool> root_done{false};
    std::atomic<uint64_t> windows_done{0};
    std::atomic<uint64_t> events_ingested{0};
    std::mutex error_mu;
    Status first_error;
    LatencyRecorder latency;
  } shared;

  auto report_error = [&](const Status& st) {
    {
      std::lock_guard<std::mutex> lock(shared.error_mu);
      if (shared.first_error.ok()) shared.first_error = st;
    }
    shared.stop.store(true);
    network_->CloseAll();
  };

  const uint64_t num_windows = workload.ExpectedWindows();
  obs::Histogram* latency_hist =
      network_->registry()->GetHistogram("root.window_latency_us");
  system_->root->SetResultCallback([&](const WindowOutput& out) {
    shared.latency.Record(out.latency_us);
    latency_hist->Record(
        out.latency_us < 0 ? 0 : static_cast<uint64_t>(out.latency_us));
    shared.windows_done.fetch_add(1);
  });

  auto wall_start = std::chrono::steady_clock::now();

  std::thread root_thread([&] {
    net::Channel* inbox = network_->Inbox(system_->root_id);
    while (!shared.stop.load(std::memory_order_relaxed)) {
      if (shared.windows_done.load(std::memory_order_relaxed) >= num_windows) {
        shared.root_done.store(true);
        return;
      }
      auto msg = inbox->PopFor(MillisUs(2));
      if (!msg) {
        // Idle beat: release any delayed fabric messages and let the root's
        // deadline machinery inspect stalled windows (no-op by default).
        network_->FlushDelayed();
        Status tick = system_->root->Tick();
        if (!tick.ok()) {
          report_error(tick);
          return;
        }
        continue;
      }
      Status st = system_->root->OnMessage(*msg);
      if (!st.ok()) {
        report_error(st);
        return;
      }
    }
    shared.root_done.store(true);
  });

  std::vector<std::thread> local_threads;
  for (size_t i = 0; i < system_->locals.size(); ++i) {
    local_threads.emplace_back([&, i] {
      auto gen_result = gen::StreamGenerator::Create(workload.generators[i]);
      if (!gen_result.ok()) {
        report_error(gen_result.status());
        return;
      }
      auto gen = std::move(gen_result).MoveValueUnsafe();
      LocalNodeLogic* logic = system_->locals[i].get();
      net::Channel* inbox = network_->Inbox(system_->local_ids[i]);
      stream::TumblingWindowAssigner assigner(workload.window_len_us);
      TimestampUs end_time =
          static_cast<TimestampUs>(workload.num_windows) * workload.window_len_us;

      auto fail_unless_shutdown = [&](const Status& st) {
        // Errors caused by the driver tearing the network down are benign.
        if (st.ok() || shared.stop.load() || shared.root_done.load()) return true;
        report_error(st);
        return false;
      };

      uint64_t count = 0;
      net::WindowId last_window = 0;
      while (gen->next_time_us() < end_time) {
        if (shared.stop.load(std::memory_order_relaxed) ||
            shared.root_done.load(std::memory_order_relaxed)) {
          return;  // aborted or root already satisfied
        }
        Event e = gen->Next();
        net::WindowId wid = assigner.AssignWindow(e.timestamp);
        if (wid != last_window) {
          if (!fail_unless_shutdown(logic->OnWatermark(e.timestamp))) return;
          last_window = wid;
        }
        if (!fail_unless_shutdown(logic->OnEvent(e))) return;
        ++count;
        if (count % options_.watermark_every == 0) {
          if (!fail_unless_shutdown(logic->OnWatermark(e.timestamp))) return;
          while (auto msg = inbox->TryPop()) {
            if (!fail_unless_shutdown(logic->OnMessage(*msg))) return;
          }
        }
      }
      shared.events_ingested.fetch_add(count);
      if (!fail_unless_shutdown(logic->OnFinish(end_time))) return;
      // Keep serving candidate requests until the root has everything.
      while (!shared.stop.load(std::memory_order_relaxed) &&
             !shared.root_done.load(std::memory_order_relaxed)) {
        auto msg = inbox->PopFor(MillisUs(2));
        if (!msg) continue;
        if (!fail_unless_shutdown(logic->OnMessage(*msg))) return;
      }
    });
  }

  // Watchdog: wall-clock timeout.
  TimestampUs deadline_us = options_.timeout_us;
  while (!shared.root_done.load() && !shared.stop.load()) {
    auto elapsed = std::chrono::steady_clock::now() - wall_start;
    if (std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count() >
        deadline_us) {
      report_error(Status::Internal(
          "threaded run timed out with " +
          std::to_string(shared.windows_done.load()) + "/" +
          std::to_string(num_windows) + " windows emitted"));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  root_thread.join();
  auto wall_end = std::chrono::steady_clock::now();
  // Unblock any local stuck in a bounded Push, then collect the threads.
  shared.stop.store(true);
  network_->CloseAll();
  for (auto& t : local_threads) t.join();

  {
    std::lock_guard<std::mutex> lock(shared.error_mu);
    if (!shared.first_error.ok()) return shared.first_error;
  }

  RunMetrics metrics;
  metrics.events_ingested = shared.events_ingested.load();
  metrics.windows_emitted = shared.windows_done.load();
  metrics.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  metrics.throughput_eps =
      metrics.wall_seconds > 0
          ? static_cast<double>(metrics.events_ingested) / metrics.wall_seconds
          : 0;
  metrics.latency = shared.latency.Summarize();
  metrics.latency_hist = latency_hist->Summarize();
  auto total = network_->TotalStats();
  metrics.network_total = total.counters;
  metrics.simulated_transfer_us = total.simulated_transfer_us;
  metrics.by_type = network_->StatsByType();
  if (auto* dema_root = dynamic_cast<core::DemaRootNode*>(system_->root.get())) {
    metrics.dema = dema_root->stats();
  }
  return metrics;
}

// ---------------------------------------------------------------------------
// Convenience runners
// ---------------------------------------------------------------------------

namespace {
/// Run-owned observability state: when the caller did not supply a registry
/// or tracer, the run creates them and hands ownership out via RunMetrics so
/// callers can export after the system itself is gone.
struct RunObs {
  std::shared_ptr<obs::Registry> registry;
  std::shared_ptr<obs::TraceRecorder> tracer;

  /// Fills any null observability slots of \p config with run-owned sinks.
  explicit RunObs(SystemConfig* config) {
    if (config->registry == nullptr) {
      registry = std::make_shared<obs::Registry>();
      config->registry = registry.get();
    }
    if (config->tracer == nullptr) {
      tracer = std::make_shared<obs::TraceRecorder>();
      config->tracer = tracer.get();
    }
  }
};
}  // namespace

RunMetrics SummarizeSyncRun(const std::vector<WindowOutput>& outputs,
                            uint64_t events, double wall_seconds,
                            net::Network* network, const System& system,
                            const BusyTime& busy) {
  RunMetrics metrics;
  metrics.events_ingested = events;
  metrics.windows_emitted = system.root->windows_emitted();
  metrics.wall_seconds = wall_seconds;
  metrics.throughput_eps =
      wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  LatencyRecorder latency;
  obs::Histogram* latency_hist =
      network->registry()->GetHistogram("root.window_latency_us");
  for (const WindowOutput& out : outputs) {
    latency.Record(out.latency_us);
    latency_hist->Record(
        out.latency_us < 0 ? 0 : static_cast<uint64_t>(out.latency_us));
  }
  metrics.latency = latency.Summarize();
  metrics.latency_hist = latency_hist->Summarize();
  auto total = network->TotalStats();
  metrics.network_total = total.counters;
  metrics.simulated_transfer_us = total.simulated_transfer_us;
  metrics.by_type = network->StatsByType();
  if (auto* dema_root = dynamic_cast<core::DemaRootNode*>(system.root.get())) {
    metrics.dema = dema_root->stats();
  }
  metrics.root_busy_seconds = busy.root_us / 1e6;
  metrics.max_local_busy_seconds = busy.max_local_us() / 1e6;
  metrics.sim_throughput_eps = busy.SimThroughputEps(events);
  metrics.bottleneck =
      metrics.root_busy_seconds >= metrics.max_local_busy_seconds ? "root"
                                                                  : "local";
  return metrics;
}

Result<RunMetrics> RunThreaded(const SystemConfig& system_config,
                               const WorkloadConfig& workload,
                               size_t root_inbox_capacity) {
  RealClock clock;
  SystemConfig config = system_config;
  RunObs run_obs(&config);
  net::Network::Options net_options;
  net_options.registry = config.registry;
  net::Network network(&clock, net_options);
  DEMA_ASSIGN_OR_RETURN(
      System system, BuildSystem(config, &network, &clock,
                                 root_inbox_capacity));
  WorkloadConfig load = workload;
  load.window_len_us = config.window_len_us;
  load.window_slide_us = config.window_slide_us;
  ThreadedDriver driver(&system, &network, &clock);
  DEMA_ASSIGN_OR_RETURN(RunMetrics metrics, driver.Run(load));
  metrics.registry = run_obs.registry;
  metrics.tracer = run_obs.tracer;
  return metrics;
}

Result<RunMetrics> RunSync(const SystemConfig& system_config,
                           const WorkloadConfig& workload) {
  RealClock clock;
  SystemConfig config = system_config;
  RunObs run_obs(&config);
  net::Network::Options net_options;
  net_options.registry = config.registry;
  net::Network network(&clock, net_options);
  DEMA_ASSIGN_OR_RETURN(System system,
                        BuildSystem(config, &network, &clock,
                                    /*root_inbox_capacity=*/0));
  WorkloadConfig load = workload;
  load.window_len_us = config.window_len_us;
  load.window_slide_us = config.window_slide_us;
  SyncDriver driver(&system, &network, &clock);
  auto wall_start = std::chrono::steady_clock::now();
  DEMA_RETURN_NOT_OK(driver.Run(load));
  auto wall_end = std::chrono::steady_clock::now();

  RunMetrics metrics = SummarizeSyncRun(
      driver.outputs(), driver.events_ingested(),
      std::chrono::duration<double>(wall_end - wall_start).count(), &network,
      system, driver.busy());
  metrics.registry = run_obs.registry;
  metrics.tracer = run_obs.tracer;
  return metrics;
}

}  // namespace dema::sim
