#include "checks.h"

#include <algorithm>

#include "common.h"
#include "oracle.h"

namespace perfbench {

void WindowResults::OnResult(const dema::sim::WindowOutput& out) {
  const int64_t now = NowNs();
  if (out.window_id >= kMaxWindows) return;
  const size_t w = out.window_id;
  ++results_[w];
  emit_ns_[w] = now;
  emit_call_ns_[w] = call_start_ns;
  const auto& want = in_->expected[w % in_->pool()];
  ok_[w] = ResultMatches(in_->events_per_window, want.data(), want.size(), out.global_size,
                         out.values.data(), out.values.size(), out.degraded);
}

void KeySlot::OnResult(const dema::sim::WindowOutput& out) {
  emit_ns = NowNs();
  ++results;
  window = out.window_id;
  size = out.global_size;
  num_values = std::min<size_t>(out.values.size(), 2);
  for (size_t j = 0; j < num_values; ++j) values[j] = out.values[j];
  degraded = out.degraded;
}

uint64_t CheckKeyWindow(const KeyedInputs& in, const std::vector<KeySlot>& slots,
                        uint64_t w, int64_t last_event_ns,
                        std::vector<double>* latencies_ms) {
  const size_t p = w % in.pool();
  const size_t nq = in.num_quantiles;
  uint64_t failed = 0;
  for (uint64_t k = 0; k < in.keys; ++k) {
    const KeySlot& s = slots[k];
    if (s.results == 1 && s.window == w &&
        ResultMatches(in.sizes[p][k], &in.values[p][k * nq], nq, s.size, s.values,
                      s.num_values, s.degraded)) {
      latencies_ms->push_back(static_cast<double>(s.emit_ns - last_event_ns) / 1e6);
    } else {
      ++failed;
    }
  }
  return failed;
}

bool QueryAnswerOk(const KeyedInputs& in, const std::vector<double>& quantiles,
                   const dema::net::KeyedQuery& query,
                   const dema::net::KeyedQueryReply& reply, uint64_t floor,
                   uint64_t ceiling) {
  const size_t nq = in.num_quantiles;
  if (!reply.error.empty() || reply.answers.size() != query.keys.size()) return false;
  if (reply.quantiles != quantiles) return false;
  for (size_t i = 0; i < reply.answers.size(); ++i) {
    const auto& a = reply.answers[i];
    if (!a.found || a.key != query.keys[i] || a.key >= in.keys) return false;
    if (a.window_id < floor || a.window_id > ceiling) return false;
    const size_t p = a.window_id % in.pool();
    if (!ResultMatches(in.sizes[p][a.key], &in.values[p][a.key * nq], nq, a.global_size,
                       a.values.data(), a.values.size(), a.degraded)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
