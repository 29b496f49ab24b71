#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "alloc_count.h"
#include "common.h"

namespace perfbench {

int32_t ThreadTrace::Begin(const char* name, int64_t window, int64_t key) {
  const int32_t idx = static_cast<int32_t>(spans_.size());
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.window = window;
  s.key = key;
  spans_.push_back(s);
  open_.push_back(idx);
  // Read last, after the bookkeeping above, so the span's own buffer growth
  // is not charged to the call it wraps.
  spans_.back().allocs = alloc::ThreadCount();
  spans_.back().start_ns = NowNs();
  return idx;
}

void ThreadTrace::End(int32_t idx) {
  const int64_t end = NowNs();
  const uint64_t allocs = alloc::ThreadCount();
  Span& s = spans_[static_cast<size_t>(idx)];
  s.end_ns = end;
  s.allocs = allocs - s.allocs;
  open_.pop_back();
}

ThreadTrace* TraceRecorder::NewThread() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(
      std::make_unique<ThreadTrace>(static_cast<uint32_t>(threads_.size())));
  return threads_.back().get();
}

SpanTotals TraceRecorder::Totals() const {
  std::map<std::string, SpanTotal> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (const Span& s : t->spans()) {
      SpanTotal& tot = out[s.name];
      ++tot.count;
      tot.ns += s.end_ns - s.start_ns;
      tot.allocs += s.allocs;
    }
  }
  return SpanTotals(std::move(out));
}

std::vector<const ThreadTrace*> TraceRecorder::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : threads_) out.push_back(t.get());
  return out;
}

bool TraceRecorder::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const auto& t : threads_) {
    for (const Span& s : t->spans()) origin = std::min(origin, s.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tspan\tname\tstart_ns\tend_ns\tparent\twindow\tkey\tallocs\n");
  for (const auto& t : threads_) {
    const auto& spans = t->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%u\t%zu\t%s\t%lld\t%lld\t%d\t%lld\t%lld\t%llu\n", t->id(),
                   i, s.name, static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin), s.parent,
                   static_cast<long long>(s.window),
                   static_cast<long long>(s.key),
                   static_cast<unsigned long long>(s.allocs));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
