// Hand-worked checks of the oracle, of the checkers every workload counts
// its failed operations with (fed planted wrong results) and of the
// allocation counter, run before every workload.

#include <cmath>
#include <cstdio>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "checks.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Tally {
  int failures = 0;
  void Expect(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
      ++failures;
    }
  }
};

void OracleCases(Tally* t) {
  // Pos(q) = ceil(q * n): 0.5 of 5 -> 3; 0.99 of 100 -> 99; 0.99 of 150 ->
  // ceil(148.5) = 149; 0.99 of 10 -> ceil(9.9) = 10; any q of 1 -> 1.
  t->Expect(OracleRank(0.5, 5) == 3, "rank(0.5, 5) == 3");
  t->Expect(OracleRank(0.5, 4) == 2, "rank(0.5, 4) == 2");
  t->Expect(OracleRank(0.99, 100) == 99, "rank(0.99, 100) == 99");
  t->Expect(OracleRank(0.99, 150) == 149, "rank(0.99, 150) == 149");
  t->Expect(OracleRank(0.99, 10) == 10, "rank(0.99, 10) == 10");
  t->Expect(OracleRank(0.99, 1) == 1 && OracleRank(0.5, 1) == 1, "rank(q, 1) == 1");
  t->Expect(OracleRank(0.5, 0) == 0, "rank(q, 0) == 0");

  const std::vector<double> qs = {0.5, 0.99};
  // Ties: sorted 1 2 2 2 3; rank 3 -> 2, rank ceil(4.95) = 5 -> 3.
  t->Expect(OracleQuantiles({3, 2, 1, 2, 2}, qs) == std::vector<double>({2, 3}),
            "ties {3,2,1,2,2} -> {2, 3}");
  // A one-event window answers its only value for every q.
  t->Expect(OracleQuantiles({7.25}, qs) == std::vector<double>({7.25, 7.25}),
            "one event {7.25} -> {7.25, 7.25}");
  t->Expect(OracleQuantiles({}, qs).empty(), "empty window -> no values");
  std::vector<double> hundred_fifty;
  for (int v = 150; v >= 1; --v) hundred_fifty.push_back(v);
  t->Expect(OracleQuantiles(hundred_fifty, qs) == std::vector<double>({75, 149}),
            "1..150 -> {75, 149}");
}

/// A flat pool of one window: one local, values {3, 2, 1, 2, 2}, so the
/// oracle answers {2, 3} for q = 0.5, 0.99.
FabricInputs TinyFabric() {
  FabricInputs in;
  in.locals = 1;
  in.events_per_window = 5;
  in.windows.assign(1, std::vector<std::vector<dema::Event>>(1));
  for (double v : {3.0, 2.0, 1.0, 2.0, 2.0}) {
    dema::Event e;
    e.value = v;
    in.windows[0][0].push_back(e);
  }
  in.expected.push_back({2, 3});
  return in;
}

dema::sim::WindowOutput Output(uint64_t w, uint64_t size, std::vector<double> values) {
  dema::sim::WindowOutput out;
  out.window_id = w;
  out.global_size = size;
  out.quantiles = {0.5, 0.99};
  out.values = std::move(values);
  return out;
}

void WindowResultCases(Tally* t) {
  const double nudged = std::nextafter(3.0, 4.0);
  const FabricInputs in = TinyFabric();
  WindowResults r(&in);
  r.OnResult(Output(0, 5, {2, 3}));
  r.OnResult(Output(1, 5, {2, nudged}));  // planted wrong value
  r.OnResult(Output(2, 5, {2, 3}));
  r.OnResult(Output(3, 6, {2, 3}));       // wrong global_size
  auto degraded = Output(4, 5, {2, 3});
  degraded.degraded = true;
  r.OnResult(degraded);
  r.OnResult(Output(5, 5, {2}));          // a value missing
  r.OnResult(Output(6, 5, {2, 3}));
  r.OnResult(Output(6, 5, {2, 3}));       // emitted twice
  // Window 7 is never emitted; window 8's result carries id 9.
  r.OnResult(Output(9, 5, {2, 3}));
  r.OnResult(Output(kMaxWindows, 5, {2, 3}));  // beyond the checked range
  uint64_t failed_of_three = 0;
  for (uint64_t w = 0; w < 3; ++w) failed_of_three += r.Passed(w) ? 0 : 1;
  t->Expect(failed_of_three == 1, "planted value: one failed window of three");
  t->Expect(!r.Passed(1), "planted value fails its window");
  t->Expect(!r.Passed(3), "wrong global_size fails");
  t->Expect(!r.Passed(4), "degraded result fails");
  t->Expect(!r.Passed(5), "missing value fails");
  t->Expect(!r.Passed(6), "duplicated result fails");
  t->Expect(!r.Passed(7), "missing result fails");
  t->Expect(!r.Passed(8) && r.Passed(9), "result under another window id fails");
  t->Expect(!r.Passed(kMaxWindows), "window beyond the checked range fails");
}

/// A keyed pool of one window with two keys: key 0 has {3, 2, 1, 2, 2}
/// (oracle {2, 3}), key 1 has {7.25} (oracle {7.25, 7.25}).
KeyedInputs TinyKeyed() {
  KeyedInputs in;
  in.locals = 1;
  in.keys = 2;
  in.num_quantiles = 2;
  in.windows.resize(1);
  in.sizes.push_back({5, 1});
  in.values.push_back({2, 3, 7.25, 7.25});
  in.events_per_window.push_back(6);
  return in;
}

void KeyedCases(Tally* t) {
  const KeyedInputs in = TinyKeyed();
  std::vector<KeySlot> slots(2);
  slots[0].OnResult(Output(4, 5, {2, 3}));
  slots[1].OnResult(Output(4, 1, {7.25, 7.25}));
  std::vector<double> latencies;
  t->Expect(CheckKeyWindow(in, slots, 4, 0, &latencies) == 0 && latencies.size() == 2,
            "exact key-windows pass");
  slots[1] = KeySlot{};
  slots[1].OnResult(Output(4, 1, {7.25, std::nextafter(7.25, 8.0)}));
  latencies.clear();
  t->Expect(CheckKeyWindow(in, slots, 4, 0, &latencies) == 1 && latencies.size() == 1,
            "planted key value: one failed key-window of two");
  t->Expect(CheckKeyWindow(in, slots, 5, 0, &latencies) == 2,
            "key-windows of an older window fail");

  const std::vector<double> qs = {0.5, 0.99};
  dema::net::KeyedQuery query;
  query.keys = {1, 0};
  auto answer = [](uint32_t key, uint64_t w, uint64_t size, std::vector<double> values) {
    dema::net::KeyedAnswer a;
    a.key = key;
    a.found = true;
    a.window_id = w;
    a.global_size = size;
    a.values = std::move(values);
    return a;
  };
  dema::net::KeyedQueryReply reply;
  reply.quantiles = qs;
  reply.answers = {answer(1, 4, 1, {7.25, 7.25}), answer(0, 4, 5, {2, 3})};
  t->Expect(QueryAnswerOk(in, qs, query, reply, 4, 5), "exact query answer passes");
  t->Expect(!QueryAnswerOk(in, qs, query, reply, 5, 6),
            "answer older than the newest published window fails");
  t->Expect(!QueryAnswerOk(in, qs, query, reply, 2, 3),
            "answer newer than the newest fed window fails");
  auto planted = reply;
  planted.answers[1].values[0] = std::nextafter(2.0, 3.0);
  t->Expect(!QueryAnswerOk(in, qs, query, planted, 4, 5), "planted query value fails");
  auto missing = reply;
  missing.answers[0].found = false;
  t->Expect(!QueryAnswerOk(in, qs, query, missing, 4, 5), "unanswered key fails");
  auto swapped = reply;
  std::swap(swapped.answers[0], swapped.answers[1]);
  t->Expect(!QueryAnswerOk(in, qs, query, swapped, 4, 5), "answer for another key fails");
  auto rejected = reply;
  rejected.error = "rejected";
  t->Expect(!QueryAnswerOk(in, qs, query, rejected, 4, 5), "rejected query fails");
}

void AllocCases(Tally* t) {
  const uint64_t before = alloc::ThreadCount();
  void* p = ::operator new(64);
  const uint64_t after = alloc::ThreadCount();
  ::operator delete(p);
  t->Expect(after == before + 1, "one operator new counts one allocation");

  alloc::CountForeign(true);
  const uint64_t foreign_before = alloc::ForeignCount();
  std::thread th([] {
    void* q = ::operator new(64);
    ::operator delete(q);
  });
  th.join();
  alloc::CountForeign(false);
  t->Expect(alloc::ForeignCount() >= foreign_before + 1,
            "an unregistered thread's allocation counts as foreign");
}

}  // namespace

bool RunSelfTests() {
  Tally t;
  OracleCases(&t);
  WindowResultCases(&t);
  KeyedCases(&t);
  AllocCases(&t);
  return t.failures == 0;
}

}  // namespace perfbench
