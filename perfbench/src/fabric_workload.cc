// flat_paper and fanin_64: one Dema root and N locals built by
// `sim::BuildSystem` on the in-process `net::Network`, driven on one thread.

#include <memory>

#include "alloc_count.h"
#include "checks.h"
#include "common/clock.h"
#include "dema_layers.h"
#include "inputs.h"
#include "metrics.h"
#include "net/network.h"
#include "sim/topology.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPool = 16;
constexpr int kSetupReps = 5;
const std::vector<double> kQuantiles = {0.5, 0.99};

/// A built system plus the fabric it runs on.
class FabricCluster {
 public:
  FabricCluster(const FabricShape& shape, const FabricInputs* in, WindowResults* results)
      : in_(in) {
    dema::net::Network::Options net_opts;
    net_opts.registry = &registry_;
    network_ = std::make_unique<dema::net::Network>(&clock_, net_opts);
    dema::sim::SystemConfig cfg;
    cfg.kind = dema::sim::SystemKind::kDema;
    cfg.num_locals = shape.locals;
    cfg.window_len_us = kWindowLenUs;
    cfg.quantiles = kQuantiles;
    cfg.gamma = shape.gamma;
    cfg.adaptive_gamma = shape.adaptive_gamma;
    cfg.registry = &registry_;
    auto sys = dema::sim::BuildSystem(cfg, network_.get(), &clock_);
    if (!sys.ok()) Fatal("BuildSystem", sys.status());
    system_ = std::move(sys).MoveValueUnsafe();
    system_.root->SetResultCallback(
        [results](const dema::sim::WindowOutput& out) { results->OnResult(out); });
    root_inbox_ = network_->Inbox(system_.root_id);
    for (dema::NodeId id : system_.local_ids) {
      local_inboxes_.push_back(network_->Inbox(id));
    }
  }

  /// Feeds window \p w to every local, closes it, and delivers messages
  /// until the system is quiescent. Sets \p last_event_ns to the instant the
  /// last local received its last event of the window.
  void Step(uint64_t w, ThreadTrace* trace, int64_t* last_event_ns) {
    const auto& pool_window = in_->windows[w % in_->pool()];
    const dema::TimestampUs base = static_cast<dema::TimestampUs>(w) * kWindowLenUs;
    auto& locals = system_.locals;
    for (size_t i = 0; i < locals.size(); ++i) {
      SpanScope span(trace, "local.ingest", static_cast<int64_t>(w));
      for (const dema::Event& src : pool_window[i]) {
        dema::Event e = src;
        e.timestamp += base;
        Check(locals[i]->OnEvent(e), "local OnEvent");
      }
    }
    *last_event_ns = NowNs();
    for (size_t i = 0; i < locals.size(); ++i) {
      SpanScope span(trace, "local.close", static_cast<int64_t>(w));
      Check(locals[i]->OnWatermark(base + kWindowLenUs), "local OnWatermark");
    }
    Pump(trace, static_cast<int64_t>(w));
  }

  const dema::obs::Registry& registry() const { return registry_; }
  dema::net::Network& network() { return *network_; }
  dema::sim::System& system() { return system_; }
  dema::core::DemaRootNode* dema_root() {
    return dynamic_cast<dema::core::DemaRootNode*>(system_.root.get());
  }

 private:
  void Pump(ThreadTrace* trace, int64_t w) {
    bool progress = true;
    while (progress) {
      progress = false;
      while (auto msg = root_inbox_->TryPop()) {
        SpanScope span(trace, RootSpan(msg->type), w);
        Check(system_.root->OnMessage(*msg), "root OnMessage");
        progress = true;
      }
      for (size_t i = 0; i < local_inboxes_.size(); ++i) {
        while (auto msg = local_inboxes_[i]->TryPop()) {
          SpanScope span(trace, LocalSpan(msg->type), w);
          Check(system_.locals[i]->OnMessage(*msg), "local OnMessage");
          progress = true;
        }
      }
    }
  }

  const FabricInputs* in_;
  dema::RealClock clock_;
  dema::obs::Registry registry_;
  std::unique_ptr<dema::net::Network> network_;
  dema::sim::System system_;
  dema::net::Channel* root_inbox_ = nullptr;
  std::vector<dema::net::Channel*> local_inboxes_;
};

/// Reads the Dema counters of \p c's root and fabric.
DemaCounters ReadCounters(FabricCluster* c) {
  using MT = dema::net::MessageType;
  DemaCounters out;
  out.ReadRoot(*c->dema_root());
  out.messages = c->network().TotalStats().counters.messages;
  const auto by_type = c->network().StatsByType();
  auto bytes = [&by_type](MT t) -> uint64_t {
    auto it = by_type.find(t);
    return it == by_type.end() ? 0 : it->second.bytes;
  };
  out.synopsis_bytes = bytes(MT::kSynopsisBatch);
  out.request_bytes = bytes(MT::kCandidateRequest);
  out.reply_bytes = bytes(MT::kCandidateReply);
  return out;
}

}  // namespace

Report RunFabricWorkload(const Options& opt, const FabricShape& shape) {
  Report report;
  const FabricInputs in = MakeFabricInputs(opt.seed, shape.locals,
                                           shape.events_per_local, kPool, kQuantiles);
  EndToEndSample e2e;

  // Set-up: construction plus one warm-up window, repeated; the last
  // cluster built carries on into the timed region.
  std::unique_ptr<WindowResults> results;
  std::unique_ptr<FabricCluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    results = std::make_unique<WindowResults>(&in);
    const int64_t t0 = NowNs();
    cluster = std::make_unique<FabricCluster>(shape, &in, results.get());
    int64_t last_event_ns = 0;
    cluster->Step(0, nullptr, &last_event_ns);
    e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!results->Passed(0)) report.correct = false;
  }

  TraceRecorder recorder(opt.trace);
  ThreadTrace* trace = recorder.NewThread();
  alloc::CountForeign(opt.trace);
  const DemaCounters before = ReadCounters(cluster.get());
  const uint64_t bytes0 = cluster->network().TotalStats().counters.bytes;
  e2e.latencies_ms.reserve(1 << 16);

  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(opt.seconds) * 1'000'000'000;
  int64_t t_end = t0;
  uint64_t windows = 0;
  for (uint64_t w = 1; w < kMaxWindows; ++w) {
    int64_t last_event_ns = 0;
    {
      SpanScope span(trace, "window", static_cast<int64_t>(w));
      cluster->Step(w, trace, &last_event_ns);
    }
    ++windows;
    ++report.attempted;
    if (results->Passed(w)) {
      e2e.latencies_ms.push_back(static_cast<double>(results->emit_ns(w) - last_event_ns) / 1e6);
      t_end = results->emit_ns(w);
    } else {
      ++report.failed;
      t_end = NowNs();
    }
    if (NowNs() >= deadline) break;
  }
  e2e.cpu_ns = ProcessCpuNs() - cpu0;
  e2e.wall_ns = t_end - t0;
  alloc::CountForeign(false);
  if (!cluster->system().root->idle()) report.correct = false;

  e2e.events = windows * in.events_per_window;
  e2e.wire_bytes = cluster->network().TotalStats().counters.bytes - bytes0;
  AddEndToEnd(e2e, &report);

  if (opt.trace) {
    LayerValues lv;
    SetDemaLayers(recorder.Totals(), e2e.events, windows,
                  MaxGauge(cluster->registry(), "local.retained_events_peak"), before,
                  ReadCounters(cluster.get()), &lv);
    lv.AppendTo(&report);
    WriteTrace(opt, recorder);
  }
  return report;
}

}  // namespace perfbench
