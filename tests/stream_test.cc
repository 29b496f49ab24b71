// Unit tests for the streaming substrate: window assignment, quantile ranks,
// sorted window buffers, the window manager, and the loser-tree merger.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "stream/merge.h"
#include "stream/quantile.h"
#include "stream/sorted_buffer.h"
#include "stream/window.h"
#include "stream/window_manager.h"

namespace dema::stream {
namespace {

TEST(WindowAssigner, MapsTimesToWindows) {
  TumblingWindowAssigner a(SecondsUs(1));
  EXPECT_EQ(a.AssignWindow(0), 0u);
  EXPECT_EQ(a.AssignWindow(999'999), 0u);
  EXPECT_EQ(a.AssignWindow(1'000'000), 1u);
  EXPECT_EQ(a.WindowStart(3), 3'000'000);
  EXPECT_EQ(a.WindowEnd(3), 4'000'000);
}

TEST(QuantileRank, PaperDefinition) {
  // Pos(q) = ceil(q * n), clamped to [1, n].
  EXPECT_EQ(QuantileRank(0.5, 10), 5u);
  EXPECT_EQ(QuantileRank(0.5, 11), 6u);
  EXPECT_EQ(QuantileRank(0.25, 4), 1u);
  EXPECT_EQ(QuantileRank(1.0, 7), 7u);
  EXPECT_EQ(QuantileRank(0.001, 10), 1u);
  EXPECT_EQ(QuantileRank(0.5, 0), 0u);
}

TEST(ExactQuantile, SortedEventsSelection) {
  std::vector<Event> sorted;
  for (int i = 1; i <= 100; ++i) {
    sorted.push_back(Event{static_cast<double>(i), 0, 1, static_cast<uint32_t>(i)});
  }
  auto median = ExactQuantileSorted(sorted, 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_DOUBLE_EQ(median->value, 50);
  auto max = ExactQuantileSorted(sorted, 1.0);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max->value, 100);
}

TEST(ExactQuantile, RejectsBadInput) {
  EXPECT_FALSE(ExactQuantileSorted({}, 0.5).ok());
  std::vector<Event> one = {Event{1, 0, 0, 0}};
  EXPECT_FALSE(ExactQuantileSorted(one, 0.0).ok());
  EXPECT_FALSE(ExactQuantileSorted(one, 1.5).ok());
  EXPECT_FALSE(ExactQuantileValues({}, 0.5).ok());
}

TEST(ExactQuantile, ValuesMatchesFullSort) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 999; ++i) values.push_back(rng.Uniform(0, 1000));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.01, 0.25, 0.5, 0.77, 1.0}) {
    auto got = ExactQuantileValues(values, q);
    ASSERT_TRUE(got.ok());
    EXPECT_DOUBLE_EQ(*got, sorted[QuantileRank(q, sorted.size()) - 1]);
  }
}

TEST(SortedBuffer, BothModesYieldIdenticalOrder) {
  Rng rng(4);
  SortedWindowBuffer on_close(SortMode::kSortOnClose);
  SortedWindowBuffer incremental(SortMode::kIncremental);
  std::vector<Event> events;
  for (uint32_t i = 0; i < 500; ++i) {
    Event e{rng.Uniform(0, 100), static_cast<TimestampUs>(i), 1, i};
    events.push_back(e);
    on_close.Add(e);
    incremental.Add(e);
  }
  EXPECT_EQ(on_close.size(), 500u);
  EXPECT_EQ(incremental.size(), 500u);
  auto a = on_close.TakeSorted();
  auto b = incremental.TakeSorted();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Buffers are reusable after TakeSorted.
  EXPECT_TRUE(on_close.empty());
  EXPECT_TRUE(incremental.empty());
}

TEST(WindowManager, ClosesWindowsInOrder) {
  WindowManager wm(SecondsUs(1));
  wm.OnEvent(Event{1, 100, 1, 0});
  wm.OnEvent(Event{2, SecondsUs(1) + 5, 1, 1});
  wm.OnEvent(Event{3, SecondsUs(2) + 5, 1, 2});
  EXPECT_EQ(wm.open_windows(), 3u);
  EXPECT_EQ(wm.buffered_events(), 3u);

  auto closed = wm.AdvanceWatermark(SecondsUs(2));
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].id, 0u);
  EXPECT_EQ(closed[1].id, 1u);
  EXPECT_EQ(closed[0].sorted_events.size(), 1u);
  EXPECT_EQ(wm.open_windows(), 1u);
}

TEST(WindowManager, DropsLateEvents) {
  WindowManager wm(SecondsUs(1));
  wm.AdvanceWatermark(SecondsUs(5));
  EXPECT_FALSE(wm.OnEvent(Event{1, 100, 1, 0}));
  EXPECT_EQ(wm.late_events(), 1u);
  EXPECT_TRUE(wm.OnEvent(Event{1, SecondsUs(5) + 1, 1, 1}));
}

TEST(WindowManager, WatermarkNeverRegresses) {
  WindowManager wm(SecondsUs(1));
  wm.AdvanceWatermark(SecondsUs(3));
  auto closed = wm.AdvanceWatermark(SecondsUs(2));
  EXPECT_TRUE(closed.empty());
  EXPECT_EQ(wm.watermark_us(), SecondsUs(3));
}

TEST(WindowManager, FlushClosesEverything) {
  WindowManager wm(SecondsUs(1));
  wm.OnEvent(Event{5, 10, 1, 0});
  wm.OnEvent(Event{1, 20, 1, 1});
  auto closed = wm.Flush();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].sorted_events[0].value, 1);
  EXPECT_EQ(closed[0].sorted_events[1].value, 5);
  EXPECT_EQ(wm.open_windows(), 0u);
}

std::vector<Event> RandomSortedRun(Rng* rng, uint32_t node, size_t n) {
  std::vector<Event> run;
  for (uint32_t i = 0; i < n; ++i) {
    run.push_back(Event{rng->Uniform(0, 1000), static_cast<TimestampUs>(i), node, i});
  }
  std::sort(run.begin(), run.end());
  return run;
}

TEST(LoserTree, MergesLikeGlobalSort) {
  Rng rng(42);
  std::vector<std::vector<Event>> runs;
  std::vector<Event> all;
  for (uint32_t n = 0; n < 5; ++n) {
    auto run = RandomSortedRun(&rng, n, 200 + n * 37);
    all.insert(all.end(), run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  std::sort(all.begin(), all.end());
  auto merged = MergeSortedRuns(std::move(runs));
  EXPECT_EQ(merged, all);
}

TEST(LoserTree, HandlesEmptyAndSingletonRuns) {
  std::vector<std::vector<Event>> runs(4);
  runs[1].push_back(Event{2, 0, 1, 0});
  runs[3].push_back(Event{1, 0, 3, 0});
  auto merged = MergeSortedRuns(std::move(runs));
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].value, 1);
  EXPECT_EQ(merged[1].value, 2);
}

TEST(LoserTree, NoRunsMeansNothing) {
  LoserTreeMerger merger({});
  EXPECT_FALSE(merger.HasNext());
  EXPECT_EQ(merger.remaining(), 0u);
}

TEST(LoserTree, SingleRunPassesThrough) {
  Rng rng(1);
  auto run = RandomSortedRun(&rng, 0, 100);
  auto expected = run;
  std::vector<std::vector<Event>> runs;
  runs.push_back(std::move(run));
  auto merged = MergeSortedRuns(std::move(runs));
  EXPECT_EQ(merged, expected);
}

TEST(LoserTree, ManyRunsNonPowerOfTwo) {
  Rng rng(7);
  std::vector<std::vector<Event>> runs;
  std::vector<Event> all;
  for (uint32_t n = 0; n < 13; ++n) {  // pads to 16 leaves internally
    auto run = RandomSortedRun(&rng, n, (n * 53) % 97);
    all.insert(all.end(), run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(MergeSortedRuns(std::move(runs)), all);
}

TEST(LoserTree, StreamingInterface) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}, Event{3, 0, 0, 1}});
  runs.push_back({Event{2, 0, 1, 0}});
  LoserTreeMerger merger(std::move(runs));
  EXPECT_EQ(merger.remaining(), 3u);
  EXPECT_EQ(merger.Next().value, 1);
  EXPECT_EQ(merger.Next().value, 2);
  EXPECT_TRUE(merger.HasNext());
  EXPECT_EQ(merger.Next().value, 3);
  EXPECT_FALSE(merger.HasNext());
}

// The merger documents that the global event order is strict across honest
// runs, but callers can feed it runs that break the contract (replayed or
// duplicated events). The tiebreak must keep the merge deterministic and
// rank-select must still agree with a plain sort oracle.
TEST(LoserTree, DuplicateEventsAcrossRunsMatchSortOracle) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_runs = static_cast<size_t>(rng.UniformInt(2, 12));
    std::vector<std::vector<Event>> runs(num_runs);
    std::vector<Event> all;
    for (size_t n = 0; n < num_runs; ++n) {
      const size_t len = static_cast<size_t>(rng.UniformInt(0, 40));
      for (size_t i = 0; i < len; ++i) {
        // Tiny alphabet everywhere: values, timestamps, node ids and seqs
        // all collide, so runs share exactly-equal event tuples.
        Event e{static_cast<double>(rng.UniformInt(0, 4)),
                static_cast<TimestampUs>(rng.UniformInt(0, 2)),
                static_cast<NodeId>(rng.UniformInt(0, 2)),
                static_cast<uint32_t>(rng.UniformInt(0, 2))};
        runs[n].push_back(e);
        all.push_back(e);
        // Sometimes mirror the identical event into a second run too.
        if (rng.UniformInt(0, 3) == 0) {
          runs[(n + 1) % num_runs].push_back(e);
          all.push_back(e);
        }
      }
    }
    for (auto& run : runs) std::sort(run.begin(), run.end());
    std::sort(all.begin(), all.end());
    auto runs_copy = runs;
    EXPECT_EQ(MergeSortedRuns(std::move(runs_copy)), all) << "trial " << trial;

    if (all.empty()) continue;
    std::vector<uint64_t> ranks = {1, static_cast<uint64_t>(all.size())};
    for (int i = 0; i < 5; ++i) {
      ranks.push_back(static_cast<uint64_t>(
          rng.UniformInt(1, static_cast<int64_t>(all.size()))));
    }
    auto picked = SelectRanksFromRuns(std::move(runs), ranks);
    ASSERT_TRUE(picked.ok()) << picked.status();
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ((*picked)[i], all[ranks[i] - 1])
          << "trial " << trial << " rank " << ranks[i];
    }
  }
}

/// Oracle for SelectRanksFromRuns: materialize the full merge and index.
std::vector<Event> SelectByFullMerge(std::vector<std::vector<Event>> runs,
                                     const std::vector<uint64_t>& ranks) {
  auto merged = MergeSortedRuns(std::move(runs));
  std::vector<Event> out;
  out.reserve(ranks.size());
  for (uint64_t r : ranks) out.push_back(merged[r - 1]);
  return out;
}

TEST(SelectRanks, MatchesFullMergeOracleOnRandomRuns) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    size_t num_runs = static_cast<size_t>(rng.UniformInt(1, 8));
    std::vector<std::vector<Event>> runs;
    uint64_t total = 0;
    for (size_t n = 0; n < num_runs; ++n) {
      size_t len = static_cast<size_t>(rng.UniformInt(0, 60));
      runs.push_back(RandomSortedRun(&rng, static_cast<uint32_t>(n), len));
      total += len;
    }
    if (total == 0) continue;
    // Unsorted, possibly duplicated rank list, always including both ends.
    std::vector<uint64_t> ranks = {total, 1};
    size_t extra = static_cast<size_t>(rng.UniformInt(0, 6));
    for (size_t i = 0; i < extra; ++i) {
      ranks.push_back(static_cast<uint64_t>(rng.UniformInt(1, static_cast<int64_t>(total))));
    }
    auto oracle = SelectByFullMerge(runs, ranks);
    auto picked = SelectRanksFromRuns(std::move(runs), ranks);
    ASSERT_TRUE(picked.ok()) << picked.status();
    ASSERT_EQ(picked->size(), ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ((*picked)[i], oracle[i])
          << "trial " << trial << " rank " << ranks[i];
    }
  }
}

TEST(SelectRanks, SingleRunIsDirectIndexing) {
  Rng rng(9);
  auto run = RandomSortedRun(&rng, 0, 40);
  std::vector<std::vector<Event>> runs;
  runs.push_back(run);
  std::vector<uint64_t> ranks = {1, 20, 40};
  auto picked = SelectRanksFromRuns(std::move(runs), ranks);
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ((*picked)[0], run[0]);
  EXPECT_EQ((*picked)[1], run[19]);
  EXPECT_EQ((*picked)[2], run[39]);
}

TEST(SelectRanks, EmptyRankListReturnsNothing) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}});
  auto picked = SelectRanksFromRuns(std::move(runs), {});
  ASSERT_TRUE(picked.ok());
  EXPECT_TRUE(picked->empty());
}

TEST(SelectRanks, DuplicateRanksReuseOneAdvance) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}, Event{3, 0, 0, 1}});
  runs.push_back({Event{2, 0, 1, 0}});
  auto picked = SelectRanksFromRuns(std::move(runs), {2, 2, 2});
  ASSERT_TRUE(picked.ok());
  for (const Event& e : *picked) EXPECT_EQ(e.value, 2);
}

TEST(SelectRanks, RejectsOutOfRangeRanks) {
  std::vector<std::vector<Event>> runs;
  runs.push_back({Event{1, 0, 0, 0}, Event{2, 0, 0, 1}});
  EXPECT_FALSE(SelectRanksFromRuns(runs, {0}).ok());
  EXPECT_FALSE(SelectRanksFromRuns(runs, {3}).ok());
  EXPECT_FALSE(SelectRanksFromRuns({}, {1}).ok());
}

TEST(SelectRanks, EmptyRunsAmongRealOnes) {
  std::vector<std::vector<Event>> runs(5);
  runs[1] = {Event{10, 0, 1, 0}, Event{30, 0, 1, 1}};
  runs[3] = {Event{20, 0, 3, 0}};
  auto picked = SelectRanksFromRuns(std::move(runs), {1, 2, 3});
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ((*picked)[0].value, 10);
  EXPECT_EQ((*picked)[1].value, 20);
  EXPECT_EQ((*picked)[2].value, 30);
}

// Property tests for the pivot search behind SelectRanksFromRuns, each
// against a plain std::sort of every event as the oracle.

std::vector<Event> SortedUnion(const std::vector<std::vector<Event>>& runs) {
  std::vector<Event> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::sort(all.begin(), all.end());
  return all;
}

void ExpectMatchesSortOracle(const std::vector<std::vector<Event>>& runs,
                             const std::vector<uint64_t>& ranks,
                             const std::string& label) {
  const std::vector<Event> all = SortedUnion(runs);
  auto picked = SelectRanksFromRuns(runs, ranks);
  ASSERT_TRUE(picked.ok()) << label << ": " << picked.status();
  ASSERT_EQ(picked->size(), ranks.size()) << label;
  for (size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ((*picked)[i], all[ranks[i] - 1]) << label << " rank " << ranks[i];
  }
}

std::vector<uint64_t> EveryRank(uint64_t total) {
  std::vector<uint64_t> ranks(total);
  for (uint64_t r = 1; r <= total; ++r) ranks[r - 1] = r;
  return ranks;
}

/// Ranks 1 and n, the p50 and p99 ranks, and \p extra random ranks.
std::vector<uint64_t> EndsQuantilesAndRandom(Rng* rng, uint64_t total,
                                             size_t extra) {
  std::vector<uint64_t> ranks = {1, total, QuantileRank(0.5, total),
                                 QuantileRank(0.99, total)};
  for (size_t i = 0; i < extra; ++i) {
    ranks.push_back(static_cast<uint64_t>(
        rng->UniformInt(1, static_cast<int64_t>(total))));
  }
  return ranks;
}

TEST(SelectRanks, TiesAcrossRunsMatchSortOracle) {
  // Few distinct values, so most events tie on value with events of other
  // runs and are ordered only by (timestamp, node, seq).
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t num_runs = static_cast<size_t>(rng.UniformInt(2, 20));
    std::vector<std::vector<Event>> runs(num_runs);
    for (size_t n = 0; n < num_runs; ++n) {
      const size_t len = static_cast<size_t>(rng.UniformInt(1, 80));
      for (uint32_t i = 0; i < len; ++i) {
        runs[n].push_back(Event{static_cast<double>(rng.UniformInt(0, 3)),
                                static_cast<TimestampUs>(rng.UniformInt(0, 5)),
                                static_cast<NodeId>(n), i});
      }
      std::sort(runs[n].begin(), runs[n].end());
    }
    ExpectMatchesSortOracle(runs, EveryRank(SortedUnion(runs).size()),
                            "trial " + std::to_string(trial));
  }
}

TEST(SelectRanks, AllValuesEqualMatchSortOracle) {
  std::vector<std::vector<Event>> runs(7);
  for (uint32_t n = 0; n < runs.size(); ++n) {
    for (uint32_t i = 0; i < 30 + 11 * n; ++i) {
      runs[n].push_back(Event{42.0, static_cast<TimestampUs>(i % 4), n, i});
    }
    std::sort(runs[n].begin(), runs[n].end());
  }
  ExpectMatchesSortOracle(runs, EveryRank(SortedUnion(runs).size()), "equal");
}

TEST(SelectRanks, MirroredDuplicateEventsMatchSortOracle) {
  // The same event tuples in several runs at once: the equal stretch around
  // a pivot then spans runs, and every rank inside it is the pivot.
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t num_runs = static_cast<size_t>(rng.UniformInt(2, 10));
    std::vector<Event> base;
    const size_t len = static_cast<size_t>(rng.UniformInt(1, 60));
    for (uint32_t i = 0; i < len; ++i) {
      base.push_back(Event{static_cast<double>(rng.UniformInt(0, 9)), 0, 0, i % 3});
    }
    std::vector<std::vector<Event>> runs(num_runs);
    for (auto& run : runs) {
      for (const Event& e : base) {
        if (rng.UniformInt(0, 2) != 0) run.push_back(e);
      }
      std::sort(run.begin(), run.end());
    }
    const uint64_t total = SortedUnion(runs).size();
    if (total == 0) continue;
    ExpectMatchesSortOracle(runs, EveryRank(total),
                            "trial " + std::to_string(trial));
  }
}

TEST(SelectRanks, EmptyRunsBetweenNonEmptyOnesMatchSortOracle) {
  Rng rng(64);
  std::vector<std::vector<Event>> runs(12);
  for (uint32_t n = 0; n < runs.size(); n += 3) {
    runs[n] = RandomSortedRun(&rng, n, 25 + n);
  }
  ExpectMatchesSortOracle(runs, EveryRank(SortedUnion(runs).size()), "gaps");
}

TEST(SelectRanks, SingleRunEveryRank) {
  Rng rng(8);
  std::vector<std::vector<Event>> runs = {RandomSortedRun(&rng, 3, 257)};
  ExpectMatchesSortOracle(runs, EveryRank(257), "single");
}

TEST(SelectRanks, EndRanksAndRepeatedRanksMatchSortOracle) {
  Rng rng(12);
  std::vector<std::vector<Event>> runs;
  for (uint32_t n = 0; n < 9; ++n) runs.push_back(RandomSortedRun(&rng, n, 40));
  const uint64_t n = 9 * 40;
  ExpectMatchesSortOracle(runs, {n, 1, n, 1, 180, 180, 181, n, 1}, "ends");
}

TEST(SelectRanks, FanInShapeMatchesSortOracle) {
  // One 1500-event candidate slice from each of 64 locals.
  Rng rng(2024);
  std::vector<std::vector<Event>> runs;
  for (uint32_t n = 0; n < 64; ++n) runs.push_back(RandomSortedRun(&rng, n, 1500));
  ExpectMatchesSortOracle(runs, EndsQuantilesAndRandom(&rng, 64 * 1500, 60),
                          "64x1500");
}

TEST(SelectRanks, ManyTinyRunsMatchSortOracle) {
  // One event from each of 1000 locals.
  Rng rng(1000);
  std::vector<std::vector<Event>> runs;
  for (uint32_t n = 0; n < 1000; ++n) runs.push_back(RandomSortedRun(&rng, n, 1));
  ExpectMatchesSortOracle(runs, EveryRank(1000), "1000x1");
}

TEST(SelectRanks, UnsortedRunsFailInsteadOfLooping) {
  // The first pivot is 9 (midpoint of the longer run); the binary search in
  // the unsorted run then counts every live event below it, so a cut would
  // discard nothing.
  std::vector<std::vector<Event>> runs = {
      {Event{1, 0, 0, 0}, Event{9, 0, 0, 1}, Event{2, 0, 0, 2}, Event{3, 0, 0, 3}},
      {Event{0, 0, 1, 0}, Event{0.5, 0, 1, 1}}};
  EXPECT_FALSE(SelectRanksFromRuns(std::move(runs), {1}).ok());
}

TEST(SelectRanks, RandomizedSweepOverRunCounts) {
  Rng rng(4242);
  for (size_t num_runs = 1; num_runs <= 100; ++num_runs) {
    std::vector<std::vector<Event>> runs;
    uint64_t total = 0;
    for (uint32_t n = 0; n < num_runs; ++n) {
      // Mix empty, tiny and long runs; narrow values force cross-run ties.
      const size_t len = static_cast<size_t>(
          rng.UniformInt(0, 3) == 0 ? 0 : rng.UniformInt(1, 200));
      std::vector<Event> run;
      for (uint32_t i = 0; i < len; ++i) {
        run.push_back(Event{std::floor(rng.Uniform(0, 50)),
                            static_cast<TimestampUs>(rng.UniformInt(0, 3)), n, i});
      }
      std::sort(run.begin(), run.end());
      total += run.size();
      runs.push_back(std::move(run));
    }
    if (total == 0) continue;
    ExpectMatchesSortOracle(runs, EndsQuantilesAndRandom(&rng, total, 12),
                            std::to_string(num_runs) + " runs");
  }
}

}  // namespace
}  // namespace dema::stream
