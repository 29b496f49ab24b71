#include "dema_layers.h"

namespace perfbench {

const char* RootSpan(dema::net::MessageType t) {
  switch (t) {
    case dema::net::MessageType::kSynopsisBatch:
      return "root.synopsis";
    case dema::net::MessageType::kCandidateReply:
      return "root.candidate_reply";
    default:
      return "root.other";
  }
}

const char* LocalSpan(dema::net::MessageType t) {
  switch (t) {
    case dema::net::MessageType::kCandidateRequest:
      return "local.candidate_request";
    case dema::net::MessageType::kGammaUpdate:
      return "local.gamma_update";
    default:
      return "local.other";
  }
}

void DemaCounters::ReadRoot(const dema::core::DemaRootNode& root) {
  stats = root.stats();
  if (const auto* h = root.registry()->FindHistogram("root.select_us")) {
    const auto s = h->Summarize();
    select_us_sum = s.sum;
    select_count = s.count;
  }
}

void SetDemaLayers(const SpanTotals& spans, uint64_t events, uint64_t windows,
                   int64_t retained_peak, const DemaCounters& before,
                   const DemaCounters& after, LayerValues* lv) {
  const double ev = static_cast<double>(events);
  const double wins = static_cast<double>(windows);
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  const SpanTotal req = spans("local.candidate_request");
  lv->Set("dema.local.ingest_ns_per_event",
          PerUnit(static_cast<double>(spans("local.ingest").ns), ev));
  lv->Set("dema.local.close_ms_per_window", PerUnit(spans("local.close").ns / 1e6, wins));
  lv->Set("dema.local.reply_us_per_request",
          PerUnit(req.ns / 1e3, static_cast<double>(req.count)));
  const uint64_t local_allocs = spans("local.ingest").allocs + spans("local.close").allocs +
                                req.allocs + spans("local.gamma_update").allocs +
                                spans("local.other").allocs;
  lv->Set("dema.local.allocs_per_event", PerUnit(static_cast<double>(local_allocs), ev));
  lv->Set("dema.local.retained_events_peak", static_cast<double>(retained_peak));
  lv->Set("dema.root.synopsis_us_per_window", PerUnit(spans("root.synopsis").ns / 1e3, wins));
  lv->Set("dema.root.reply_us_per_window",
          PerUnit(spans("root.candidate_reply").ns / 1e3, wins));
  const uint64_t root_allocs = spans("root.synopsis").allocs +
                               spans("root.candidate_reply").allocs +
                               spans("root.other").allocs;
  lv->Set("dema.root.allocs_per_window", PerUnit(static_cast<double>(root_allocs), wins));
  const auto& s0 = before.stats;
  const auto& s1 = after.stats;
  lv->Set("dema.candidate_event_share",
          PerUnit(delta(s0.candidate_events, s1.candidate_events),
                  delta(s0.global_events, s1.global_events)));
  lv->Set("dema.synopsis_slices_per_window",
          PerUnit(delta(s0.synopsis_slices, s1.synopsis_slices), wins));
  lv->Set("dema.candidate_slices_per_window",
          PerUnit(delta(s0.candidate_slices, s1.candidate_slices), wins));
  lv->Set("dema.retries", delta(s0.retries, s1.retries));
  lv->Set("dema.degraded_windows", delta(s0.degraded_windows, s1.degraded_windows));
  lv->Set("stream.select_us_per_window",
          PerUnit(delta(before.select_us_sum, after.select_us_sum),
                  delta(before.select_count, after.select_count)));
  lv->Set("net.messages_per_window", PerUnit(delta(before.messages, after.messages), wins));
  lv->Set("net.synopsis_bytes_per_window",
          PerUnit(delta(before.synopsis_bytes, after.synopsis_bytes), wins));
  lv->Set("net.request_bytes_per_window",
          PerUnit(delta(before.request_bytes, after.request_bytes), wins));
  lv->Set("net.reply_bytes_per_window",
          PerUnit(delta(before.reply_bytes, after.reply_bytes), wins));
}

}  // namespace perfbench
