#pragma once

// The checkers that decide whether an operation failed. The workloads count
// attempted and failed operations through these and nothing else, so the
// self-test plants wrong results into the same code.

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "net/keyed.h"
#include "sim/node.h"

namespace perfbench {

/// Windows a flat run can check (far more than any run emits).
inline constexpr uint64_t kMaxWindows = 1 << 16;

/// Root results of a flat topology, kept per window id. A window passes when
/// the root emitted exactly one result for it and that result equals the
/// oracle for its pool window.
class WindowResults {
 public:
  explicit WindowResults(const FabricInputs* in) : in_(in) {}

  /// Records one root result (ids at or beyond kMaxWindows are dropped, so
  /// their window reads as missing).
  void OnResult(const dema::sim::WindowOutput& out);
  bool Passed(uint64_t w) const { return w < kMaxWindows && results_[w] == 1 && ok_[w]; }
  /// When the root emitted window \p w.
  int64_t emit_ns(uint64_t w) const { return emit_ns_[w]; }
  /// Start of the root call that emitted window \p w (see call_start_ns).
  int64_t emit_call_ns(uint64_t w) const { return emit_call_ns_[w]; }

  /// Set by the workload before each root call, so results remember which
  /// call emitted them.
  int64_t call_start_ns = 0;

 private:
  const FabricInputs* in_;
  std::vector<uint8_t> results_ = std::vector<uint8_t>(kMaxWindows, 0);
  std::vector<uint8_t> ok_ = std::vector<uint8_t>(kMaxWindows, 0);
  std::vector<int64_t> emit_ns_ = std::vector<int64_t>(kMaxWindows, 0);
  std::vector<int64_t> emit_call_ns_ = std::vector<int64_t>(kMaxWindows, 0);
};

/// The latest result one key published, written by the shard strands (each
/// key by exactly one strand) and read by the driving thread after
/// `WaitIdle`.
struct KeySlot {
  uint64_t window = 0;
  uint64_t size = 0;
  double values[2] = {0, 0};
  size_t num_values = 0;
  bool degraded = false;
  int64_t emit_ns = 0;
  uint32_t results = 0;

  /// Records one keyed result (keeps at most two values).
  void OnResult(const dema::sim::WindowOutput& out);
};

/// Checks every key's result for window \p w: exactly one result, for
/// window \p w, equal to the oracle. Returns the failures and appends the
/// latency of every exact key-window to \p latencies_ms.
uint64_t CheckKeyWindow(const KeyedInputs& in, const std::vector<KeySlot>& slots,
                        uint64_t w, int64_t last_event_ns,
                        std::vector<double>* latencies_ms);

/// True when a query reply answers every asked key, with \p quantiles, from
/// a window in [floor, ceiling] (the newest window fully published before
/// the query ran, and the newest window fed), with the oracle's values for
/// that key-window.
bool QueryAnswerOk(const KeyedInputs& in, const std::vector<double>& quantiles,
                   const dema::net::KeyedQuery& query,
                   const dema::net::KeyedQueryReply& reply, uint64_t floor,
                   uint64_t ceiling);

}  // namespace perfbench
