#include "stream/merge.h"

#include <algorithm>
#include <limits>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dema::stream {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Leaf count at or below which the flat argmin engine replaces the tree.
constexpr size_t kFlatMaxK = 8;

/// Orders after every real event: exhausted and virtual runs hold this, so
/// the advance loop needs no per-comparison exhaustion checks. Never
/// produced (`remaining_` gates `Next`).
Event Sentinel() {
  return Event{std::numeric_limits<double>::infinity(),
               std::numeric_limits<TimestampUs>::max(),
               std::numeric_limits<NodeId>::max(),
               std::numeric_limits<uint32_t>::max()};
}

/// Bitmask of the lanes of v[0..7] holding the minimum value.
uint32_t MinValueMask8Scalar(const double* v) {
  double mn = v[0];
  for (size_t i = 1; i < kFlatMaxK; ++i) mn = std::min(mn, v[i]);
  uint32_t mask = 0;
  for (size_t i = 0; i < kFlatMaxK; ++i) {
    if (v[i] == mn) mask |= 1u << i;
  }
  return mask;
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) uint32_t MinValueMask8Avx2(const double* v) {
  __m256d a = _mm256_loadu_pd(v);
  __m256d b = _mm256_loadu_pd(v + 4);
  __m256d m = _mm256_min_pd(a, b);
  __m128d lo = _mm256_castpd256_pd128(m);
  __m128d hi = _mm256_extractf128_pd(m, 1);
  __m128d m2 = _mm_min_pd(lo, hi);
  __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
  __m256d vm = _mm256_broadcastsd_pd(m1);
  uint32_t mask_a = static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_cmp_pd(a, vm, _CMP_EQ_OQ)));
  uint32_t mask_b = static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_cmp_pd(b, vm, _CMP_EQ_OQ)));
  return mask_a | (mask_b << 4);
}

using MinMaskFn = uint32_t (*)(const double*);

/// Runtime dispatch, resolved once: AVX2 hardware argmin when the CPU has
/// it, portable scalar otherwise. Both return identical masks.
MinMaskFn ResolveMinMask() {
  return __builtin_cpu_supports("avx2") ? &MinValueMask8Avx2
                                        : &MinValueMask8Scalar;
}

uint32_t MinValueMask8(const double* v) {
  static const MinMaskFn fn = ResolveMinMask();
  return fn(v);
}
#else
uint32_t MinValueMask8(const double* v) { return MinValueMask8Scalar(v); }
#endif

}  // namespace

LoserTreeMerger::LoserTreeMerger(std::vector<std::vector<Event>> runs)
    : runs_(std::move(runs)) {
  pos_.assign(runs_.size(), 0);
  for (const auto& run : runs_) remaining_ += run.size();
  k_ = NextPow2(std::max<size_t>(1, runs_.size()));
  flat_ = k_ <= kFlatMaxK;
  // The flat engine always scans kFlatMaxK lanes so the SIMD path needs no
  // per-k masking; unused lanes hold the sentinel and never win.
  const size_t leaves = flat_ ? kFlatMaxK : k_;
  heads_.assign(leaves, Sentinel());
  head_vals_.assign(leaves, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (!runs_[i].empty()) {
      heads_[i] = runs_[i][0];
      head_vals_[i] = heads_[i].value;
    }
  }
  if (flat_ || remaining_ == 0) return;

  // Bottom-up tournament: winners propagate, internal nodes keep losers.
  // Virtual leaves beyond runs_.size() hold sentinels (exhausted runs).
  tree_.assign(k_, 0);
  struct Init {
    LoserTreeMerger* m;
    size_t Winner(size_t node) {
      if (node >= m->k_) return node - m->k_;
      size_t left = Winner(2 * node);
      size_t right = Winner(2 * node + 1);
      if (m->Loses(right, left)) {
        m->tree_[node] = right;
        return left;
      }
      m->tree_[node] = left;
      return right;
    }
  };
  tree_[0] = Init{this}.Winner(1);
}

bool LoserTreeMerger::Loses(size_t a, size_t b) const {
  // Heads are materialized (sentinel when exhausted), so this is a plain
  // comparison — no bounds checks in the replay loop. The global event
  // order is strict for honest inputs; if two runs nevertheless present
  // equal heads (duplicated events, or two sentinels), the lower leaf index
  // wins so the merge stays deterministic.
  const Event& ea = heads_[a];
  const Event& eb = heads_[b];
  if (eb < ea) return true;
  if (ea < eb) return false;
  return a > b;
}

size_t LoserTreeMerger::Winner() const {
  if (!flat_) return tree_[0];
  uint32_t mask = MinValueMask8(head_vals_.data());
  size_t w = static_cast<size_t>(__builtin_ctz(mask));
  mask &= mask - 1;
  // Value ties across lanes: resolve by the full event tuple, lowest leaf
  // index last (strict `<` keeps the earlier lane on exact duplicates).
  while (mask != 0) {
    size_t i = static_cast<size_t>(__builtin_ctz(mask));
    if (heads_[i] < heads_[w]) w = i;
    mask &= mask - 1;
  }
  return w;
}

void LoserTreeMerger::Advance(size_t w) {
  if (++pos_[w] < runs_[w].size()) {
    heads_[w] = runs_[w][pos_[w]];
    head_vals_[w] = heads_[w].value;
  } else {
    heads_[w] = Sentinel();
    head_vals_[w] = std::numeric_limits<double>::infinity();
  }
  if (!flat_) Replay(w);
}

Event LoserTreeMerger::Next() {
  size_t w = Winner();
  Event out = heads_[w];
  --remaining_;
  Advance(w);
  return out;
}

void LoserTreeMerger::Replay(size_t runner) {
  size_t cur = runner;
  for (size_t node = (k_ + runner) / 2; node >= 1; node /= 2) {
    if (Loses(cur, tree_[node])) std::swap(cur, tree_[node]);
  }
  tree_[0] = cur;
}

std::vector<Event> MergeSortedRuns(std::vector<std::vector<Event>> runs) {
  LoserTreeMerger merger(std::move(runs));
  std::vector<Event> out;
  out.reserve(merger.remaining());
  while (merger.HasNext()) out.push_back(merger.Next());
  return out;
}

namespace {

/// What is left of one sorted run in a rank search, and its split around the
/// current pivot: [lo, lt) orders below it, [lt, le) equals it, [le, hi)
/// orders above it.
struct Span {
  const Event* lo;
  const Event* hi;
  const Event* lt;
  const Event* le;
  uint64_t size() const { return static_cast<uint64_t>(hi - lo); }
};

/// One pivot candidate: a span's (lower) midpoint weighted by the span's
/// length. The direct-selection tail reuses the type with weight 1.
struct Mid {
  Event event;
  uint64_t weight;
};

const Event& MedianOf3(const Event& a, const Event& b, const Event& c) {
  if (b < a) return c < b ? b : (c < a ? c : a);
  return c < a ? a : (c < b ? c : b);
}

/// The smallest event x in [first, last) whose cumulative weight (all
/// entries ordered at or below x) reaches \p target — the weighted median
/// when target is half the total weight. Quickselect with a three-way
/// partition, so O(n) expected and no allocation; reorders the entries.
/// Requires 1 <= target <= total weight.
Event WeightedSelect(Mid* first, Mid* last, uint64_t target) {
  while (true) {
    const Event pivot =
        MedianOf3(first->event, first[(last - first) / 2].event, last[-1].event);
    Mid* eq = std::partition(first, last,
                             [&](const Mid& m) { return m.event < pivot; });
    Mid* gt = std::partition(eq, last,
                             [&](const Mid& m) { return !(pivot < m.event); });
    uint64_t below = 0;
    for (const Mid* m = first; m != eq; ++m) below += m->weight;
    if (target <= below) {
      last = eq;
      continue;
    }
    uint64_t at = 0;
    for (const Mid* m = eq; m != gt; ++m) at += m->weight;
    if (target <= below + at) return pivot;
    target -= below + at;
    first = gt;
  }
}

/// The k-th smallest (1-based) event across the sorted \p runs. \p spans
/// and \p scratch are caller-owned buffers with capacity for one entry per
/// non-empty run, so the search allocates nothing.
Result<Event> SelectRank(const std::vector<std::vector<Event>>& runs, uint64_t k,
                 std::vector<Span>* spans, std::vector<Mid>* scratch) {
  spans->clear();
  uint64_t live = 0;
  for (const auto& run : runs) {
    if (run.empty()) continue;
    spans->push_back(Span{run.data(), run.data() + run.size(), nullptr, nullptr});
    live += run.size();
  }
  const size_t direct_max = scratch->capacity();
  while (true) {
    if (spans->size() == 1) return spans->front().lo[k - 1];
    scratch->clear();
    if (live <= direct_max) {
      // Few enough events left to hold them all: select among them directly.
      for (const Span& s : *spans) {
        for (const Event* e = s.lo; e != s.hi; ++e) scratch->push_back(Mid{*e, 1});
      }
      auto nth = scratch->begin() + static_cast<std::ptrdiff_t>(k - 1);
      std::nth_element(scratch->begin(), nth, scratch->end(),
                       [](const Mid& a, const Mid& b) { return a.event < b.event; });
      return nth->event;
    }

    for (const Span& s : *spans) {
      scratch->push_back(Mid{s.lo[(s.size() - 1) / 2], s.size()});
    }
    const Event pivot = WeightedSelect(scratch->data(),
                                       scratch->data() + scratch->size(),
                                       (live + 1) / 2);
    uint64_t less = 0;
    uint64_t less_or_equal = 0;
    for (Span& s : *spans) {
      s.lt = std::lower_bound(s.lo, s.hi, pivot);
      // Only an exact copy of the pivot can sit at lt; most runs hold none.
      s.le = s.lt == s.hi || pivot < *s.lt
                 ? s.lt
                 : std::upper_bound(s.lt + 1, s.hi, pivot);
      less += static_cast<uint64_t>(s.lt - s.lo);
      less_or_equal += static_cast<uint64_t>(s.le - s.lo);
    }
    // Every event equal to the pivot is the same tuple, so any rank inside
    // the equal stretch is the pivot itself.
    if (k > less && k <= less_or_equal) return pivot;
    // In sorted runs the pivot counts as neither below itself nor absent, so
    // either cut shrinks the search; out-of-order input could loop forever.
    if (less == live || less_or_equal == 0) {
      return Status::InvalidArgument("runs are not sorted");
    }

    const bool keep_below = k <= less;
    if (keep_below) {
      live = less;
    } else {
      live -= less_or_equal;
      k -= less_or_equal;
    }
    size_t kept = 0;
    for (Span& s : *spans) {
      if (keep_below) {
        s.hi = s.lt;
      } else {
        s.lo = s.le;
      }
      if (s.lo != s.hi) (*spans)[kept++] = s;
    }
    spans->resize(kept);
  }
}

}  // namespace

Result<std::vector<Event>> SelectRanksFromRuns(
    std::vector<std::vector<Event>> runs, const std::vector<uint64_t>& ranks) {
  uint64_t total = 0;
  size_t non_empty = 0;
  for (const auto& run : runs) {
    total += run.size();
    non_empty += run.empty() ? 0 : 1;
  }
  for (uint64_t rank : ranks) {
    if (rank < 1 || rank > total) {
      return Status::InvalidArgument("rank " + std::to_string(rank) +
                                     " outside merged runs [1, " +
                                     std::to_string(total) + "]");
    }
  }
  std::vector<Event> out(ranks.size());
  if (ranks.empty()) return out;

  // Visit the requested ranks in ascending order so a repeated rank reuses
  // the event its first occurrence selected.
  std::vector<size_t> order(ranks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ranks[a] < ranks[b]; });

  std::vector<Span> spans;
  spans.reserve(non_empty);
  std::vector<Mid> scratch;
  if (non_empty > 1) scratch.reserve(non_empty);
  uint64_t selected = 0;
  Event current{};
  for (size_t idx : order) {
    if (ranks[idx] != selected) {
      DEMA_ASSIGN_OR_RETURN(current,
                            SelectRank(runs, ranks[idx], &spans, &scratch));
      selected = ranks[idx];
    }
    out[idx] = current;
  }
  return out;
}

}  // namespace dema::stream
