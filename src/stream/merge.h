#pragma once

#include <cstdint>
#include <vector>

#include "common/event.h"
#include "common/result.h"

namespace dema::stream {

/// \brief Streaming k-way merger over pre-sorted event runs.
///
/// Used by the Dema root to combine per-node candidate events and by the
/// Desis baseline to merge whole sorted local windows.
///
/// The advance loop is branch-free with respect to run exhaustion: every
/// leaf holds a materialized head event, and exhausted (or virtual) runs
/// hold a +inf sentinel that loses every comparison — no per-comparison
/// `done` checks. Equal heads (possible when callers merge runs that break
/// the strict-total-order contract, e.g. duplicated events) are broken by
/// leaf index, lowest run first, so the merge order is always deterministic.
///
/// Two engines sit behind the same interface:
///  - k ≤ 8: a flat argmin over the contiguous head-value array, using AVX2
///    when the CPU has it (runtime dispatch) — the common root fan-in case.
///  - otherwise: a loser tree, O(log k) comparisons per produced event.
class LoserTreeMerger {
 public:
  /// Takes ownership of \p runs; each run must be sorted by the global event
  /// order. Empty runs are allowed.
  explicit LoserTreeMerger(std::vector<std::vector<Event>> runs);

  /// True while events remain.
  bool HasNext() const { return remaining_ > 0; }

  /// Produces the next event in global order; must not be called when
  /// `HasNext()` is false.
  Event Next();

  /// Events not yet produced.
  uint64_t remaining() const { return remaining_; }

 private:
  /// Replays the tournament from leaf \p runner upward (tree engine).
  void Replay(size_t runner);
  /// True when leaf a's head loses to (is ordered after) leaf b's head.
  bool Loses(size_t a, size_t b) const;
  /// Current winning leaf (flat engine: argmin; tree engine: tree_[0]).
  size_t Winner() const;
  /// Advances leaf \p w by one event and refreshes its head/tournament.
  void Advance(size_t w);

  std::vector<std::vector<Event>> runs_;
  std::vector<size_t> pos_;    // cursor per run
  /// Head event per padded leaf; exhausted/virtual leaves hold the sentinel.
  std::vector<Event> heads_;
  /// heads_[i].value mirrored contiguously for the SIMD/flat argmin.
  std::vector<double> head_vals_;
  std::vector<size_t> tree_;   // internal nodes hold losers; tree_[0] = winner
  size_t k_ = 0;               // padded leaf count (power of two)
  bool flat_ = false;          // k_ <= 8: argmin engine instead of the tree
  uint64_t remaining_ = 0;
};

/// \brief Fully merges \p runs into one sorted vector.
std::vector<Event> MergeSortedRuns(std::vector<std::vector<Event>> runs);

/// \brief Picks the events at the given 1-based global \p ranks across the
/// pre-sorted \p runs without merging them.
///
/// Each distinct rank k is found by a pivot search that counts instead of
/// merging. Every non-empty run keeps a live range `[lo, hi)`. A step takes
/// as pivot the weighted median of the live ranges' midpoints (weight =
/// range length) and counts, per run, the events below and at the pivot
/// with `lower_bound`/`upper_bound`. If k falls among the events equal to
/// the pivot, the pivot is the answer: equal events are the same tuple, so
/// ties and duplicated events are exact. Otherwise every range is cut to
/// the side that holds k (k drops by the count cut off below) and emptied
/// runs leave the search. At least half the live weight has its midpoint
/// on each side of the pivot, so a step discards at least a quarter of the
/// live events: O(log n) steps of O(m · log n) comparisons for m runs and n
/// events, O(m · log² n) in all. Once the live events fit in one entry per
/// run they are selected directly (`nth_element`), and a lone live run is
/// indexed.
///
/// Each run must be sorted by the global event order. Ranks may repeat and
/// arrive in any order; the result vector is parallel to \p ranks. Besides
/// the result, the call allocates three buffers of at most one entry per
/// rank or run. Fails with `InvalidArgument` when a rank falls outside
/// [1, total events], or when a step finds a run out of order (not every
/// unsorted input is detected, but none makes the search loop).
Result<std::vector<Event>> SelectRanksFromRuns(
    std::vector<std::vector<Event>> runs, const std::vector<uint64_t>& ranks);

}  // namespace dema::stream
