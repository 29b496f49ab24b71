#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded layer call: which call, when, under which parent span, for
/// which window (and key, where the call serves one key), and how many heap
/// allocations the calling thread made inside it.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same thread's buffer, or -1.
  int32_t parent = -1;
  int64_t window = -1;
  int64_t key = -1;
  uint64_t allocs = 0;
};

/// Spans of one benchmark thread. Only that thread writes to it.
class ThreadTrace {
 public:
  explicit ThreadTrace(uint32_t id) : id_(id) { spans_.reserve(1 << 16); }

  /// Opens a span nested in the innermost open span; returns its index.
  int32_t Begin(const char* name, int64_t window, int64_t key);
  /// Closes span \p idx (the innermost open one).
  void End(int32_t idx);

  uint32_t id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t id_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Count, total duration and total allocations of the spans of one name.
struct SpanTotal {
  uint64_t count = 0;
  int64_t ns = 0;
  uint64_t allocs = 0;
};

/// Span totals by name; names never recorded read as zeros.
class SpanTotals {
 public:
  explicit SpanTotals(std::map<std::string, SpanTotal> by_name)
      : by_name_(std::move(by_name)) {}
  SpanTotal operator()(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? SpanTotal{} : it->second;
  }

 private:
  std::map<std::string, SpanTotal> by_name_;
};

/// In-memory span recorder. Disabled recorders hand out null thread traces,
/// so every `SpanScope` in an untraced run is a null-pointer test.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh per-thread span buffer (null when disabled). Call once per
  /// thread and keep the pointer; it lives as long as the recorder.
  ThreadTrace* NewThread();

  /// Sums over every thread's spans by name. Call after the recording
  /// threads stopped.
  SpanTotals Totals() const;

  /// Every thread's buffer (read after the recording threads stopped).
  std::vector<const ThreadTrace*> threads() const;

  /// Writes every span as one tab-separated line (times relative to the
  /// earliest span) to \p path; returns false when the file cannot be
  /// written.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// Records one span for the lifetime of the scope (no-op on a null trace).
class SpanScope {
 public:
  SpanScope(ThreadTrace* trace, const char* name, int64_t window = -1,
            int64_t key = -1)
      : trace_(trace) {
    if (trace_ != nullptr) idx_ = trace_->Begin(name, window, key);
  }
  ~SpanScope() {
    if (trace_ != nullptr) trace_->End(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadTrace* trace_;
  int32_t idx_ = -1;
};

}  // namespace perfbench
