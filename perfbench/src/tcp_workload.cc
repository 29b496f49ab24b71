// tcp_loopback: flat_paper's stream shape over real loopback TCP. The root
// (`sim::BuildRootLogic`) and two locals (`sim::BuildLocalLogic`) each have
// their own `transport::TcpTransport` with heartbeats, acks and auto-redial
// on, so every message crosses a socket and the transports' I/O threads;
// the node logic itself is driven window by window on one thread.

#include <algorithm>
#include <map>
#include <string>
#include <memory>

#include "alloc_count.h"
#include "checks.h"
#include "common/clock.h"
#include "dema_layers.h"
#include "inputs.h"
#include "metrics.h"
#include "net/serializer.h"
#include "sim/topology.h"
#include "trace.h"
#include "transport/tcp.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kLocals = 2;
constexpr size_t kEventsPerLocal = 100'000;
constexpr size_t kPool = 16;
constexpr int kSetupReps = 5;
/// Wait per inbox while a window's messages cross the sockets.
constexpr int64_t kPollUs = 20;
constexpr int64_t kStallTimeoutNs = 30'000'000'000;
const std::vector<double> kQuantiles = {0.5, 0.99};

/// Window id of a synopsis, candidate request or reply (all start with it);
/// -1 for other messages. Used by traced runs only.
int64_t PeekWindow(const dema::net::Message& m) {
  using MT = dema::net::MessageType;
  if (m.type != MT::kSynopsisBatch && m.type != MT::kCandidateRequest &&
      m.type != MT::kCandidateReply) {
    return -1;
  }
  dema::net::Reader r(m.payload_bytes());
  uint64_t id = 0;
  return r.GetU64(&id).ok() ? static_cast<int64_t>(id) : -1;
}

class TcpCluster {
 public:
  explicit TcpCluster(const FabricInputs* in, WindowResults* sink)
      : in_(in), sink_(sink), regs_(kLocals + 1) {
    dema::sim::SystemConfig cfg;
    cfg.kind = dema::sim::SystemKind::kDema;
    cfg.num_locals = kLocals;
    cfg.window_len_us = kWindowLenUs;
    cfg.quantiles = kQuantiles;
    cfg.adaptive_gamma = true;

    dema::transport::TcpTransportOptions ro = SessionOptions(&regs_[0]);
    ro.listen_host = "127.0.0.1";
    ro.listen_port = 0;
    ro.inbox_capacity = 1024;
    root_tp_ = std::make_unique<dema::transport::TcpTransport>(ro);
    Check(root_tp_->AddLocalNode(0), "AddLocalNode");
    Check(root_tp_->Start(), "root transport Start");
    const uint16_t port = root_tp_->bound_port();
    for (size_t i = 0; i < kLocals; ++i) {
      dema::transport::TcpTransportOptions lo = SessionOptions(&regs_[i + 1]);
      lo.listen = false;
      auto tp = std::make_unique<dema::transport::TcpTransport>(lo);
      const auto id = static_cast<dema::NodeId>(i + 1);
      Check(tp->AddLocalNode(id), "AddLocalNode");
      Check(tp->AddPeer(0, "127.0.0.1", port), "AddPeer");
      Check(tp->Start(), "local transport Start");
      local_tp_.push_back(std::move(tp));
    }
    cfg.registry = &regs_[0];
    auto root = dema::sim::BuildRootLogic(cfg, root_tp_.get(), &clock_);
    if (!root.ok()) Fatal("BuildRootLogic", root.status());
    root_ = std::move(root).MoveValueUnsafe();
    root_->SetResultCallback([this](const dema::sim::WindowOutput& out) {
      sink_->OnResult(out);
      ++emitted_;
    });
    inboxes_.push_back(root_tp_->Inbox(0));
    for (size_t i = 0; i < kLocals; ++i) {
      cfg.registry = &regs_[i + 1];
      const auto id = static_cast<dema::NodeId>(i + 1);
      auto local = dema::sim::BuildLocalLogic(cfg, id, local_tp_[i].get(), &clock_);
      if (!local.ok()) Fatal("BuildLocalLogic", local.status());
      locals_.push_back(std::move(local).MoveValueUnsafe());
      inboxes_.push_back(local_tp_[i]->Inbox(id));
    }
  }

  ~TcpCluster() {
    for (auto& tp : local_tp_) tp->Shutdown();
    root_tp_->Shutdown();
  }
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  /// Feeds window \p w to both locals, closes it, and serves every node's
  /// inbox until the root emits it; false when nothing arrived for
  /// kStallTimeoutNs. Sets \p last_event_ns to the instant the last local
  /// received its last event of the window.
  bool Step(uint64_t w, ThreadTrace* trace, int64_t* last_event_ns) {
    const dema::TimestampUs base = static_cast<dema::TimestampUs>(w) * kWindowLenUs;
    const auto wid = static_cast<int64_t>(w);
    for (size_t i = 0; i < kLocals; ++i) {
      SpanScope span(trace, "local.ingest", wid);
      for (const dema::Event& src : in_->windows[w % in_->pool()][i]) {
        dema::Event e = src;
        e.timestamp += base;
        Check(locals_[i]->OnEvent(e), "local OnEvent");
      }
    }
    *last_event_ns = NowNs();
    for (size_t i = 0; i < kLocals; ++i) {
      SpanScope span(trace, "local.close", wid);
      Check(locals_[i]->OnWatermark(base + kWindowLenUs), "local OnWatermark");
    }
    // Messages cross real sockets, so wait on the inboxes in turn with a
    // short timeout; a message for any node is handled as soon as it is seen.
    int64_t last_progress = NowNs();
    for (size_t turn = 0; emitted_ <= w; turn = (turn + 1) % inboxes_.size()) {
      auto msg = inboxes_[turn]->PopFor(kPollUs);
      if (!msg) {
        if (turn == 0) Check(root_->Tick(), "root Tick");
        if (NowNs() - last_progress > kStallTimeoutNs) return false;
        continue;
      }
      last_progress = NowNs();
      if (msg->type == dema::net::MessageType::kShutdown) continue;
      const int64_t msg_window = trace != nullptr ? PeekWindow(*msg) : -1;
      if (turn == 0) {
        SpanScope span(trace, RootSpan(msg->type), msg_window);
        sink_->call_start_ns = NowNs();
        Check(root_->OnMessage(*msg), "root OnMessage");
      } else {
        SpanScope span(trace, LocalSpan(msg->type), msg_window);
        Check(locals_[turn - 1]->OnMessage(*msg), "local OnMessage");
      }
    }
    return true;
  }

  /// Sum over the three transports of the traffic each one sent.
  dema::net::TrafficCounters SentTotal() const {
    dema::net::TrafficCounters sum;
    for (const auto& [link, c] : root_tp_->LinkTraffic()) sum += c;
    for (const auto& tp : local_tp_) {
      for (const auto& [link, c] : tp->LinkTraffic()) sum += c;
    }
    return sum;
  }
  uint64_t SentBytesOfType(dema::net::MessageType t) const {
    uint64_t sum = 0;
    auto add = [&](const dema::transport::TcpTransport& tp) {
      auto by = tp.TrafficByType();
      auto it = by.find(t);
      if (it != by.end()) sum += it->second.bytes;
    };
    add(*root_tp_);
    for (const auto& tp : local_tp_) add(*tp);
    return sum;
  }
  /// Sum of counter \p name over every node's registry.
  uint64_t CounterSum(const std::string& name) const {
    uint64_t sum = 0;
    for (const auto& r : regs_) sum += SumCounters(r, name);
    return sum;
  }
  int64_t RetainedPeak() const {
    int64_t peak = 0;
    for (size_t i = 1; i < regs_.size(); ++i) {
      peak = std::max(peak, MaxGauge(regs_[i], "local.retained_events_peak"));
    }
    return peak;
  }
  dema::core::DemaRootNode* dema_root() {
    return dynamic_cast<dema::core::DemaRootNode*>(root_.get());
  }

 private:
  static dema::transport::TcpTransportOptions SessionOptions(dema::obs::Registry* reg) {
    dema::transport::TcpTransportOptions o;
    o.registry = reg;
    o.heartbeat_interval_us = 100'000;
    o.heartbeat_misses = 5;
    o.auto_reconnect = true;
    return o;
  }

  const FabricInputs* in_;
  WindowResults* sink_;
  dema::RealClock clock_;
  std::vector<dema::obs::Registry> regs_;
  std::unique_ptr<dema::transport::TcpTransport> root_tp_;
  std::vector<std::unique_ptr<dema::transport::TcpTransport>> local_tp_;
  std::unique_ptr<dema::sim::RootNodeLogic> root_;
  std::vector<std::unique_ptr<dema::sim::LocalNodeLogic>> locals_;
  /// Root inbox first, then the locals' in node-id order.
  std::vector<dema::net::Channel*> inboxes_;
  uint64_t emitted_ = 0;
};

/// Dema counters of the root, plus what the three transports sent and
/// their session counters.
struct TcpCounters {
  DemaCounters dema;
  uint64_t wire_bytes = 0;
  uint64_t acks = 0, heartbeats = 0, replayed = 0, reconnects = 0;

  static TcpCounters Read(TcpCluster* c) {
    using MT = dema::net::MessageType;
    TcpCounters out;
    out.dema.ReadRoot(*c->dema_root());
    const auto sent = c->SentTotal();
    out.dema.messages = sent.messages;
    out.wire_bytes = sent.bytes;
    out.dema.synopsis_bytes = c->SentBytesOfType(MT::kSynopsisBatch);
    out.dema.request_bytes = c->SentBytesOfType(MT::kCandidateRequest);
    out.dema.reply_bytes = c->SentBytesOfType(MT::kCandidateReply);
    out.acks = c->CounterSum("net.acks");
    out.heartbeats = c->CounterSum("net.heartbeats");
    out.replayed = c->CounterSum("net.replayed_frames");
    out.reconnects = c->CounterSum("net.reconnects");
    return out;
  }
};

/// Mean over windows of the root-side candidate wait: from the end of the
/// call that completed a window's synopses (and so sent its requests) to the
/// start of the call that emitted it, minus the slowest local's reply time.
double CandidateWaitMs(const TraceRecorder& recorder, const WindowResults& sink,
                       uint64_t first, uint64_t last) {
  std::map<int64_t, std::vector<int64_t>> synopsis_ends;  // window -> call ends
  std::map<int64_t, int64_t> reply_ns;                    // window -> slowest reply
  for (const ThreadTrace* t : recorder.threads()) {
    for (const Span& s : t->spans()) {
      const std::string name = s.name;
      if (name == "root.synopsis") synopsis_ends[s.window].push_back(s.end_ns);
      if (name == "local.candidate_request") {
        int64_t& r = reply_ns[s.window];
        r = std::max(r, s.end_ns - s.start_ns);
      }
    }
  }
  double sum_ns = 0;
  uint64_t n = 0;
  for (uint64_t w = first; w <= last; ++w) {
    auto it = synopsis_ends.find(static_cast<int64_t>(w));
    if (it == synopsis_ends.end() || it->second.size() != kLocals || !sink.Passed(w)) continue;
    const int64_t requests_sent = *std::max_element(it->second.begin(), it->second.end());
    sum_ns += static_cast<double>(sink.emit_call_ns(w) - requests_sent -
                                  reply_ns[static_cast<int64_t>(w)]);
    ++n;
  }
  return PerUnit(sum_ns / 1e6, static_cast<double>(n));
}

}  // namespace

Report RunTcpWorkload(const Options& opt) {
  Report report;
  const FabricInputs in =
      MakeFabricInputs(opt.seed, kLocals, kEventsPerLocal, kPool, kQuantiles);
  EndToEndSample e2e;

  std::unique_ptr<WindowResults> sink;
  std::unique_ptr<TcpCluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    sink = std::make_unique<WindowResults>(&in);
    const int64_t t0 = NowNs();
    cluster = std::make_unique<TcpCluster>(&in, sink.get());
    int64_t last_event_ns = 0;
    if (!cluster->Step(0, nullptr, &last_event_ns)) {
      Fatal("tcp warm-up window", dema::Status::Internal("no result within the stall timeout"));
    }
    e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!sink->Passed(0)) report.correct = false;
  }

  TraceRecorder recorder(opt.trace);
  ThreadTrace* trace = recorder.NewThread();
  alloc::CountForeign(opt.trace);
  const TcpCounters before = TcpCounters::Read(cluster.get());
  e2e.latencies_ms.reserve(kMaxWindows);
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(opt.seconds) * 1'000'000'000;
  int64_t t_end = t0;
  uint64_t last = 0;
  for (uint64_t w = 1; w < kMaxWindows; ++w) {
    int64_t last_event_ns = 0;
    bool stalled = false;
    {
      SpanScope span(trace, "window", static_cast<int64_t>(w));
      stalled = !cluster->Step(w, trace, &last_event_ns);
    }
    last = w;
    ++report.attempted;
    if (sink->Passed(w)) {
      e2e.latencies_ms.push_back(static_cast<double>(sink->emit_ns(w) - last_event_ns) / 1e6);
      t_end = sink->emit_ns(w);
    } else {
      ++report.failed;
      t_end = NowNs();
    }
    if (stalled) {
      report.correct = false;
      break;
    }
    if (NowNs() >= deadline) break;
  }
  e2e.cpu_ns = ProcessCpuNs() - cpu0;
  e2e.wall_ns = t_end - t0;
  alloc::CountForeign(false);

  const TcpCounters after = TcpCounters::Read(cluster.get());
  e2e.events = last * in.events_per_window;
  e2e.wire_bytes = after.wire_bytes - before.wire_bytes;
  AddEndToEnd(e2e, &report);

  if (opt.trace) {
    LayerValues lv;
    SetDemaLayers(recorder.Totals(), e2e.events, last, cluster->RetainedPeak(), before.dema,
                  after.dema, &lv);
    const double wins = static_cast<double>(last);
    lv.Set("transport.candidate_wait_ms_per_window", CandidateWaitMs(recorder, *sink, 1, last));
    lv.Set("transport.acks_per_window",
           PerUnit(static_cast<double>(after.acks - before.acks), wins));
    lv.Set("transport.heartbeats", static_cast<double>(after.heartbeats - before.heartbeats));
    lv.Set("transport.replayed_frames", static_cast<double>(after.replayed - before.replayed));
    lv.Set("transport.reconnects", static_cast<double>(after.reconnects - before.reconnects));
    lv.AppendTo(&report);
    WriteTrace(opt, recorder);
  }
  return report;
}

}  // namespace perfbench
