// keyed_tenants: `shard::ShardedRootService` (4 shards on 2 executor
// workers) fed by 2 `shard::KeyedLocalNode`s on the in-process fabric, with
// an open-loop query thread reading random key sets while windows close.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "alloc_count.h"
#include "checks.h"
#include "common/clock.h"
#include "inputs.h"
#include "metrics.h"
#include "net/network.h"
#include "shard/local_mux.h"
#include "shard/service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPool = 4;
constexpr size_t kLocals = 2;
constexpr uint32_t kShards = 4;
constexpr size_t kWorkers = 2;
constexpr uint64_t kKeys = 20'000;
constexpr int kSetupReps = 3;
/// Open-loop query schedule: one query of kKeysPerQuery random keys every
/// kQueryPeriodNs, timed from when it was due.
constexpr int64_t kQueryPeriodNs = 1'000'000;
constexpr size_t kKeysPerQuery = 16;
const std::vector<double> kQuantiles = {0.5, 0.99};

class KeyedCluster {
 public:
  KeyedCluster(const KeyedInputs* in, std::vector<KeySlot>* slots) : in_(in) {
    dema::net::Network::Options net_opts;
    net_opts.registry = &registry_;
    network_ = std::make_unique<dema::net::Network>(&clock_, net_opts);
    dema::shard::ShardedConfig cfg;
    cfg.num_locals = kLocals;
    cfg.num_shards = kShards;
    cfg.num_keys = kKeys;
    cfg.workers = kWorkers;
    cfg.window_len_us = kWindowLenUs;
    cfg.quantiles = kQuantiles;
    cfg.registry = &registry_;
    Check(network_->RegisterNode(0), "RegisterNode");
    service_ = std::make_unique<dema::shard::ShardedRootService>(cfg, network_.get(),
                                                                 &clock_);
    Check(service_->init_status(), "ShardedRootService");
    service_->SetKeyedResultCallback(
        [slots](dema::net::KeyId key, const dema::sim::WindowOutput& out) {
          (*slots)[key].OnResult(out);
        });
    service_inbox_ = network_->Inbox(0);
    for (dema::NodeId id : dema::shard::ShardLocalIds(cfg)) {
      Check(network_->RegisterNode(id), "RegisterNode");
      dema::shard::KeyedLocalNodeOptions lo;
      lo.id = id;
      lo.service_id = 0;
      lo.num_shards = cfg.num_shards;
      lo.num_keys = cfg.num_keys;
      lo.window_len_us = cfg.window_len_us;
      lo.initial_gamma = cfg.gamma;
      lo.registry = &registry_;
      locals_.push_back(
          std::make_unique<dema::shard::KeyedLocalNode>(lo, network_.get(), &clock_));
      local_inboxes_.push_back(network_->Inbox(id));
    }
  }

  /// Feeds window \p w to both keyed locals, closes it, and delivers
  /// messages until every key's window \p w is published.
  void Step(uint64_t w, ThreadTrace* trace, int64_t* last_event_ns) {
    const auto& pool_window = in_->windows[w % in_->pool()];
    const dema::TimestampUs base = static_cast<dema::TimestampUs>(w) * kWindowLenUs;
    const int64_t wid = static_cast<int64_t>(w);
    for (size_t i = 0; i < locals_.size(); ++i) {
      SpanScope span(trace, "shard.local.ingest", wid);
      for (const KeyedEvent& ke : pool_window[i]) {
        dema::Event e = ke.event;
        e.timestamp += base;
        Check(locals_[i]->OnEvent(ke.key, e), "keyed local OnEvent");
      }
    }
    *last_event_ns = NowNs();
    for (auto& local : locals_) {
      SpanScope span(trace, "shard.local.close", wid);
      Check(local->OnWatermark(base + kWindowLenUs), "keyed local OnWatermark");
      Check(local->Quiesce(), "keyed local Quiesce");
    }
    bool progress = true;
    while (progress) {
      progress = false;
      while (auto msg = service_inbox_->TryPop()) {
        SpanScope span(trace, "shard.service", wid);
        Check(service_->OnMessage(*msg), "service OnMessage");
        progress = true;
      }
      {
        SpanScope span(trace, "shard.wait_idle", wid);
        Check(service_->WaitIdle(), "service WaitIdle");
      }
      for (size_t i = 0; i < locals_.size(); ++i) {
        while (auto msg = local_inboxes_[i]->TryPop()) {
          SpanScope span(trace, "shard.local.reply", wid);
          Check(locals_[i]->OnMessage(*msg), "keyed local OnMessage");
          progress = true;
        }
      }
    }
  }

  dema::obs::Registry& registry() { return registry_; }
  dema::net::Network& network() { return *network_; }
  dema::shard::ShardedRootService& service() { return *service_; }

 private:
  const KeyedInputs* in_;
  dema::RealClock clock_;
  dema::obs::Registry registry_;
  std::unique_ptr<dema::net::Network> network_;
  std::unique_ptr<dema::shard::ShardedRootService> service_;
  std::vector<std::unique_ptr<dema::shard::KeyedLocalNode>> locals_;
  dema::net::Channel* service_inbox_ = nullptr;
  std::vector<dema::net::Channel*> local_inboxes_;
};

/// The open-loop reader: one query per period, each checked against the
/// oracle and against the newest window fully published before it ran.
class QueryLoop {
 public:
  QueryLoop(const KeyedInputs* in, dema::shard::ShardedRootService* service,
            TraceRecorder* recorder, uint64_t seed)
      : in_(in), service_(service), recorder_(recorder), rng_(seed ^ 0x5DEECE66Dull) {}

  void Start(uint64_t published) {
    published_.store(published, std::memory_order_release);
    fed_.store(published, std::memory_order_release);
    thread_ = std::thread([this] { Run(); });
  }
  /// Called before window \p w is fed.
  void NoteFed(uint64_t w) { fed_.store(w, std::memory_order_release); }
  /// Called once every key's window \p w is published.
  void NotePublished(uint64_t w) { published_.store(w, std::memory_order_release); }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<double>& latencies_us() const { return latencies_us_; }

 private:
  void Run() {
    alloc::RegisterThread();
    ThreadTrace* trace = recorder_->NewThread();
    latencies_us_.reserve(1 << 17);
    dema::net::KeyedQuery query;
    query.keys.resize(kKeysPerQuery);
    const int64_t t0 = NowNs();
    for (int64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
      const int64_t due = t0 + i * kQueryPeriodNs;
      const int64_t now = NowNs();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      query.query_id = static_cast<uint64_t>(i);
      for (auto& k : query.keys) k = rng_.Next() % in_->keys;
      const uint64_t floor = published_.load(std::memory_order_acquire);
      dema::net::KeyedQueryReply reply;
      {
        SpanScope span(trace, "shard.query");
        reply = service_->Query(query);
      }
      latencies_us_.push_back(static_cast<double>(NowNs() - due) / 1e3);
      const uint64_t ceiling = fed_.load(std::memory_order_acquire);
      ++attempted_;
      if (!QueryAnswerOk(*in_, kQuantiles, query, reply, floor, ceiling)) ++failed_;
    }
  }

  const KeyedInputs* in_;
  dema::shard::ShardedRootService* service_;
  TraceRecorder* recorder_;
  Rng rng_;
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> fed_{0};
  std::atomic<bool> stop_{false};
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<double> latencies_us_;
  std::thread thread_;
};

}  // namespace

Report RunKeyedWorkload(const Options& opt) {
  Report report;
  const KeyedInputs in = MakeKeyedInputs(opt.seed, kLocals, kKeys, kPool, kQuantiles);
  std::vector<KeySlot> slots(kKeys);
  EndToEndSample e2e;
  std::vector<double> warmup_latencies;

  std::unique_ptr<KeyedCluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    std::fill(slots.begin(), slots.end(), KeySlot{});
    const int64_t t0 = NowNs();
    cluster = std::make_unique<KeyedCluster>(&in, &slots);
    int64_t last_event_ns = 0;
    cluster->Step(0, nullptr, &last_event_ns);
    e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (CheckKeyWindow(in, slots, 0, last_event_ns, &warmup_latencies) != 0) report.correct = false;
  }

  TraceRecorder recorder(opt.trace);
  ThreadTrace* trace = recorder.NewThread();
  alloc::CountForeign(opt.trace);
  const uint64_t foreign0 = alloc::ForeignCount();
  const uint64_t bytes0 = cluster->network().TotalStats().counters.bytes;
  const uint64_t msgs0 = cluster->network().TotalStats().counters.messages;
  const uint64_t retries0 = SumCounters(cluster->registry(), "root.retries");
  const uint64_t degraded0 = SumCounters(cluster->registry(), "dema.degraded_windows");
  const uint64_t qfull0 = SumCounters(cluster->registry(), "exec.queue_full_blocks");
  const dema::obs::Histogram* task_hist =
      cluster->registry().FindHistogram("exec.task_run_us");
  const std::vector<uint64_t> task0 =
      task_hist != nullptr ? task_hist->BucketCounts() : std::vector<uint64_t>{};
  e2e.latencies_ms.reserve(kKeys * 64);

  QueryLoop queries(&in, &cluster->service(), &recorder, opt.seed);
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(opt.seconds) * 1'000'000'000;
  queries.Start(0);
  int64_t t_end = t0;
  uint64_t windows = 0;
  for (uint64_t w = 1;; ++w) {
    for (KeySlot& s : slots) s.results = 0;
    queries.NoteFed(w);
    int64_t last_event_ns = 0;
    {
      SpanScope span(trace, "window", static_cast<int64_t>(w));
      cluster->Step(w, trace, &last_event_ns);
    }
    ++windows;
    e2e.events += in.events_per_window[w % in.pool()];
    report.attempted += kKeys;
    const uint64_t failed = CheckKeyWindow(in, slots, w, last_event_ns, &e2e.latencies_ms);
    report.failed += failed;
    queries.NotePublished(w);
    for (const KeySlot& s : slots) t_end = std::max(t_end, s.emit_ns);
    if (NowNs() >= deadline) break;
  }
  e2e.cpu_ns = ProcessCpuNs() - cpu0;
  e2e.wall_ns = t_end - t0;
  queries.Stop();
  alloc::CountForeign(false);
  report.attempted += queries.attempted();
  report.failed += queries.failed();
  if (!cluster->service().idle()) report.correct = false;

  const auto total = cluster->network().TotalStats().counters;
  e2e.wire_bytes = total.bytes - bytes0;
  AddEndToEnd(e2e, &report);

  if (opt.trace) {
    const SpanTotals get = recorder.Totals();
    const double events = static_cast<double>(e2e.events);
    const double wins = static_cast<double>(windows);
    const double key_windows = wins * static_cast<double>(kKeys);
    LayerValues lv;
    lv.Set("dema.retries",
           static_cast<double>(SumCounters(cluster->registry(), "root.retries") - retries0));
    lv.Set("dema.degraded_windows",
           static_cast<double>(SumCounters(cluster->registry(), "dema.degraded_windows") -
                               degraded0));
    lv.Set("net.messages_per_window",
           PerUnit(static_cast<double>(total.messages - msgs0), wins));
    if (task_hist != nullptr) {
      lv.Set("exec.task_run_us_p50", HistogramDeltaMedian(task0, task_hist->BucketCounts()));
    }
    lv.Set("exec.queue_full_blocks",
           static_cast<double>(SumCounters(cluster->registry(), "exec.queue_full_blocks") -
                               qfull0));
    lv.Set("shard.local.ingest_ns_per_event",
           PerUnit(static_cast<double>(get("shard.local.ingest").ns), events));
    lv.Set("shard.local.close_ms_per_window", PerUnit(get("shard.local.close").ns / 1e6, wins));
    lv.Set("shard.local.reply_ms_per_window", PerUnit(get("shard.local.reply").ns / 1e6, wins));
    lv.Set("shard.service_ms_per_window", PerUnit(get("shard.service").ns / 1e6, wins));
    lv.Set("shard.wait_idle_ms_per_window", PerUnit(get("shard.wait_idle").ns / 1e6, wins));
    lv.Set("shard.bytes_per_key_window", PerUnit(static_cast<double>(e2e.wire_bytes), key_windows));
    const uint64_t allocs = get("shard.local.ingest").allocs + get("shard.local.close").allocs +
                            get("shard.local.reply").allocs + get("shard.service").allocs +
                            get("shard.wait_idle").allocs + (alloc::ForeignCount() - foreign0);
    lv.Set("shard.allocs_per_key_window", PerUnit(static_cast<double>(allocs), key_windows));
    lv.Set("shard.query_us_p50", Percentile(queries.latencies_us(), 0.5));
    lv.Set("shard.query_us_p90", Percentile(queries.latencies_us(), 0.9));
    lv.Set("shard.queries", static_cast<double>(queries.attempted()));
    lv.AppendTo(&report);
    WriteTrace(opt, recorder);
  }
  return report;
}

}  // namespace perfbench
