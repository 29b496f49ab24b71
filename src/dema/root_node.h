#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "dema/adaptive_gamma.h"
#include "dema/protocol.h"
#include "dema/window_cut.h"
#include "net/dedup.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "transport/transport.h"
#include "sim/node.h"

namespace dema::core {

/// \brief Configuration of the Dema root node.
struct DemaRootNodeOptions {
  /// This node's id.
  NodeId id = 0;
  /// Ids of all local nodes contributing to global windows.
  std::vector<NodeId> locals;
  /// Quantiles to answer per window, each in (0, 1]. One identification step
  /// serves all of them (multi-quantile extension). Validated at
  /// construction; a bad quantile fails every OnMessage instead of poisoning
  /// a running cluster mid-stream.
  std::vector<double> quantiles = {0.5};
  /// Initial slice factor (also broadcast target when adaptation is off).
  uint64_t initial_gamma = 10'000;
  /// Re-optimize γ after every window (Section 3.3) and broadcast updates.
  bool adaptive_gamma = false;
  /// Controller tuning (used when adaptive_gamma is true).
  GammaControllerOptions gamma_options;
  /// Paper's future-work extension: optimize a separate γ per local node
  /// from that node's own window size and candidate-slice count
  /// (γ_i* = sqrt(2·l_i / m_i)), instead of one global factor. Only
  /// meaningful with adaptive_gamma; heterogeneous event rates benefit most.
  bool per_node_gamma = false;
  /// Ablation: replace window-cut with naive transitive-overlap selection.
  /// Only valid with a single quantile (checked at construction).
  bool use_naive_selection = false;
  /// Tolerate at-least-once delivery: duplicate synopses/replies are ignored
  /// (counted in stats) instead of failing the node. On by default — IoT
  /// transports retransmit; turn off to assert exactly-once in tests.
  bool tolerate_duplicates = true;
  /// Per-window progress deadline, measured in `Tick()` calls: a pending
  /// window that makes no progress for this many ticks gets its candidate
  /// requests retried (with exponential backoff), and after `max_retries`
  /// attempts is emitted degraded. 0 (default) disables the deadline
  /// machinery entirely — the legacy wait-forever behavior. With a deadline
  /// enabled, transport send failures also become survivable (counted in
  /// `root.send_failures` instead of failing the node).
  uint64_t deadline_ticks = 0;
  /// Recovery attempts per window before degrading (with deadlines on).
  uint32_t max_retries = 3;
  /// Hold inbound payloads to the strict flat-topology protocol rules (see
  /// `ValidateSynopsisBatch`): slices form an exact γ-cut of one sorted local
  /// window. Tree builders turn this off — a relay's combined batch
  /// legitimately interleaves its children's cuts — keeping only the
  /// structural rules (node identity, finite sorted values, sizes that add
  /// up).
  bool strict_validation = true;
  /// Misbehaving-local quarantine: after this many rejected payloads a local
  /// is excluded from the window protocol — its payloads are dropped, it is
  /// left out of completion expectations and the window-cut, and affected
  /// windows emit through the degraded path with `cause=quarantine` and a
  /// rank-error bound. 0 (default) disables quarantine; rejections are still
  /// counted in `dema.rejected{reason=}` and dropped.
  uint32_t quarantine_strikes = 0;
  /// Windows a quarantined local sits out before probation begins.
  uint64_t probation_windows = 8;
  /// Exact windows a probation local must contribute cleanly before full
  /// re-admission; any rejection during probation re-quarantines it.
  uint32_t probation_clean_windows = 2;
  /// Optional label set stamped onto every instrument this node records, as
  /// a comma-separated `key=value` list without braces (e.g. "shard=3" turns
  /// `dema.windows` into `dema.windows{shard=3}` and merges into the
  /// `dema.rejected{reason=...}` breakdown). The shard service labels each
  /// shard's per-key roots with its shard index, so instruments aggregate
  /// per shard while sharing one registry. Empty keeps the legacy names.
  std::string instrument_label;
  /// Metrics sink for the `dema.*` instruments. When null, the node owns a
  /// private registry (reachable via `registry()`), so instrumentation is
  /// always on. Must outlive the node when provided.
  obs::Registry* registry = nullptr;
  /// Optional per-window span recorder; when set, every emitted window
  /// records one `obs::WindowTrace`. Must outlive the node.
  obs::TraceRecorder* tracer = nullptr;
};

/// \brief Aggregate algorithm counters across all completed windows.
///
/// A point-in-time view materialized from the node's registry instruments
/// (the registry is the source of truth; this struct keeps the historical
/// accessor shape).
struct DemaRootStats {
  uint64_t windows = 0;
  /// Slice synopses received (identification step volume).
  uint64_t synopsis_slices = 0;
  /// Slices marked candidate by window-cut.
  uint64_t candidate_slices = 0;
  /// Raw events transferred in calculation steps.
  uint64_t candidate_events = 0;
  /// Sum of global window sizes.
  uint64_t global_events = 0;
  /// Accumulated slice classification diagnostics.
  SliceClassCounts classes;
  /// γ update messages sent (one per recipient local node).
  uint64_t gamma_updates_sent = 0;
  /// Duplicate deliveries ignored (at-least-once transport tolerance).
  uint64_t duplicates_ignored = 0;
  /// Windows whose local close stamp was ahead of the root clock (latency
  /// clamped to 0 instead of underflowing).
  uint64_t clock_skew_windows = 0;
  /// Candidate-request retransmissions sent by the deadline machinery.
  uint64_t retries = 0;
  /// Windows emitted best-effort after recovery was exhausted.
  uint64_t degraded_windows = 0;
  /// Transport send failures tolerated while recovery was enabled.
  uint64_t send_failures = 0;
  /// Inbound payloads rejected by the validation pass (all reasons).
  uint64_t rejected_payloads = 0;
  /// Quarantine entries (a re-offending probation local counts again).
  uint64_t quarantines = 0;
  /// Locals fully re-admitted after a clean probation.
  uint64_t readmissions = 0;
};

/// \brief Dema's root node: runs the identification and calculation steps
/// (Section 3.1) and the adaptive-γ loop (Section 3.3).
///
/// Per global window: collects one synopsis batch from every local node,
/// runs window-cut to pick candidate slices, requests exactly those slices'
/// events, selects the target ranks across the pre-sorted replies, and
/// emits the exact quantile event(s). Windows complete independently, so several can
/// be in flight.
class DemaRootNode final : public sim::RootNodeLogic {
 public:
  /// \p transport and \p clock must outlive the node.
  DemaRootNode(DemaRootNodeOptions options, transport::Transport* transport,
               const Clock* clock);

  Status OnMessage(const net::Message& msg) override;
  void SetResultCallback(sim::ResultCallback cb) override { callback_ = std::move(cb); }
  uint64_t windows_emitted() const override { return c_windows_->Value(); }
  bool idle() const override { return pending_.empty(); }

  /// Deadline tick (no-op unless `deadline_ticks` > 0): checks every pending
  /// window for progress, retries candidate requests with exponential
  /// backoff, and degrades windows whose retry budget ran out — a faulty run
  /// always terminates with `pending_` empty, never a silent stall.
  Status Tick() override;

  /// Tells the deadline machinery that windows up to \p last exist, even if
  /// no synopsis for them ever arrives (a driver knows the workload horizon;
  /// the root alone cannot distinguish "stream ended" from "everything was
  /// dropped"). No-op unless deadlines are enabled.
  void NoteWindowHorizon(net::WindowId last);

  /// Algorithm counters over all completed windows (snapshot of the
  /// registry-backed instruments).
  DemaRootStats stats() const;

  /// Construction-time option validation result; every OnMessage returns
  /// this error while it is not OK.
  const Status& init_status() const { return init_status_; }

  /// The registry this node records into (the options-provided one, or the
  /// node's own private registry).
  obs::Registry* registry() const { return registry_; }

  /// The slice factor the global controller currently prescribes.
  uint64_t current_gamma() const { return gamma_.current(); }

  /// The per-node slice factor currently prescribed for \p node (falls back
  /// to the global factor when per-node mode is off or unobserved).
  uint64_t current_gamma_for(NodeId node) const;

 private:
  struct PendingWindow {
    std::vector<SliceSynopsis> slices;
    std::vector<bool> synopsis_from;  // by local index
    size_t synopses_received = 0;
    uint64_t global_size = 0;
    TimestampUs last_close_time_us = 0;
    bool requests_sent = false;
    size_t expected_replies = 0;
    std::vector<bool> reply_from;  // by local index (duplicate suppression)
    std::vector<std::vector<Event>> reply_runs;
    WindowCutResult cut;
    obs::WindowTrace trace;  // lifecycle span, recorded at emit
    /// The candidate indices sent to each node, kept so the deadline
    /// machinery can retransmit the exact same requests.
    std::map<NodeId, std::vector<uint32_t>> request_indices;
    /// Recovery attempts consumed.
    uint32_t retries = 0;
    /// Tick at which the deadline machinery next examines this window;
    /// pushed forward on every progress event.
    uint64_t next_check_tick = 0;
    /// Events excluded from this window because their local was quarantined
    /// (exact counts for stripped synopses, last-known-size estimates for
    /// never-arrived ones). Non-zero forces a degraded emit with
    /// `cause=quarantine` and this value as the rank-error bound.
    uint64_t excluded_events = 0;
    /// Locals (by index) already accounted into `excluded_events`.
    std::vector<bool> excluded_from;
  };

  /// Per-local reputation for the misbehaving-local quarantine.
  struct LocalReputation {
    enum class State { kHealthy, kQuarantined, kProbation };
    State state = State::kHealthy;
    /// Rejected payloads since the last clean slate (healthy state only).
    uint32_t strikes = 0;
    /// Quarantine: emitted windows left before probation begins.
    uint64_t probation_windows_left = 0;
    /// Probation: clean windows left before full re-admission.
    uint32_t clean_windows_needed = 0;
    /// Trusted window size from the local's last *accepted* synopsis; basis
    /// of the excluded-events estimate for windows it never contributed to.
    uint64_t last_known_size = 0;
    /// Untrusted size claimed by its last *rejected* synopsis (fallback
    /// estimate when nothing was ever accepted).
    uint64_t last_claimed_size = 0;
  };

  Status HandleSynopsisBatch(const SynopsisBatch& batch, NodeId src);
  /// Takes the reply by value: its event run moves straight into
  /// `PendingWindow::reply_runs` without a copy (hot path — one run per node
  /// per window).
  Status HandleCandidateReply(CandidateReply reply, NodeId src);
  Status HandleGammaSync(const GammaSyncRequest& sync, NodeId src);
  /// Drops an inbound payload that failed validation: counts it into
  /// `dema.rejected` (total and per \p reason) and, with quarantine enabled
  /// and \p src a known local, adds a strike — possibly quarantining it.
  /// Always resolves to OK (or an internal error from the quarantine sweep);
  /// corruption must never take the root down.
  Status RejectPayload(NodeId src, const char* reason);
  /// Strike accounting for local \p idx; quarantines on the K-th strike and
  /// immediately re-quarantines a striking probation local.
  Status AddStrike(size_t idx);
  /// Excludes local \p idx: flips its state, then sweeps pending windows —
  /// pre-identification windows drop its accepted slices (and may now
  /// complete without it); post-identification windows still waiting on its
  /// reply emit degraded with `cause=quarantine`.
  Status QuarantineLocal(size_t idx);
  /// True when local \p idx is currently excluded by quarantine.
  bool IsQuarantined(size_t idx) const;
  /// Every non-quarantined local has contributed a synopsis.
  bool SynopsesComplete(const PendingWindow& w) const;
  /// Runs identification once the (quarantine-aware) synopsis set is
  /// complete, first charging excluded-size estimates for quarantined locals
  /// that never contributed.
  Status MaybeRunIdentification(net::WindowId id, PendingWindow* w);
  /// Best-guess window size of an excluded local (last accepted size, else
  /// last claimed).
  uint64_t ExcludedSizeEstimate(size_t idx) const;
  /// Credits probation locals that contributed cleanly to a completed
  /// window; the last needed credit re-admits them.
  void CreditCleanWindow(const PendingWindow& w);
  /// Emits a best-effort result for a window whose recovery budget ran out:
  /// the quantile over whatever candidate replies arrived, or an estimate
  /// from the synopses alone, flagged with a rank-error bound and \p cause.
  Status EmitDegraded(net::WindowId id, PendingWindow* w,
                      const std::string& cause);
  /// Sends \p m; with deadlines enabled a failure (e.g. dead peer mid-
  /// restart) is absorbed into `root.send_failures` — retry or degradation
  /// covers it — instead of failing the caller.
  Status SendBestEffort(net::Message m);
  /// Emitted-window bookkeeping: late messages for an already-emitted window
  /// must be absorbed, never allowed to resurrect a pending entry.
  void MarkEmitted(net::WindowId id);
  bool IsEmitted(net::WindowId id) const;
  /// All synopses in: run window-cut and fire candidate requests.
  Status RunIdentification(net::WindowId id, PendingWindow* w);
  /// All replies in: merge, select, emit, adapt γ.
  Status CompleteWindow(net::WindowId id, PendingWindow* w);
  Status BroadcastGamma(net::WindowId effective_from, uint64_t gamma);
  /// Per-node mode: feed each node's (l_i, m_i) observation and send
  /// node-specific updates where the prescription changed.
  Status AdaptPerNode(net::WindowId completed_window, const PendingWindow& w);
  /// Emission-time latency relative to \p close_us, clamped at 0; a clamp
  /// counts into `dema.clock_skew_windows` and flags the trace.
  DurationUs EmitLatencyUs(TimestampUs close_us, obs::WindowTrace* trace);
  /// Finalizes and records the window's trace span.
  void RecordTrace(PendingWindow* w);

  DemaRootNodeOptions options_;
  transport::Transport* transport_;
  const Clock* clock_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  obs::TraceRecorder* tracer_;
  Status init_status_;
  std::map<NodeId, size_t> local_index_;
  std::map<net::WindowId, PendingWindow> pending_;
  /// Per-local reputation, by local index (parallel to `options_.locals`).
  std::vector<LocalReputation> health_;
  /// Transport-level duplicate suppression over message sequence numbers.
  net::SeqDedup dedup_;
  /// Deadline clock (incremented per `Tick()`).
  uint64_t tick_ = 0;
  /// Emitted-window tracking: every id < emitted_below_ is emitted, plus the
  /// out-of-order ids in emitted_above_.
  net::WindowId emitted_below_ = 0;
  std::set<net::WindowId> emitted_above_;
  /// Highest window id known to exist (from synopses or the driver horizon);
  /// gap-fill creates pending entries up to it so fully-dropped windows
  /// degrade instead of stalling silently.
  net::WindowId highest_window_seen_ = 0;
  bool any_window_seen_ = false;
  sim::ResultCallback callback_;
  AdaptiveGammaController gamma_;
  uint64_t last_broadcast_gamma_;
  /// Per-node controllers and last-broadcast values (per-node mode only).
  std::vector<AdaptiveGammaController> node_gamma_;
  std::vector<uint64_t> node_last_broadcast_;
  /// Cached registry instruments (stable pointers; hot-path increments).
  obs::Counter* c_windows_;
  obs::Counter* c_synopsis_slices_;
  obs::Counter* c_candidate_slices_;
  obs::Counter* c_candidate_events_;
  obs::Counter* c_global_events_;
  obs::Counter* c_class_separate_;
  obs::Counter* c_class_compound_;
  obs::Counter* c_class_cover_;
  obs::Counter* c_gamma_updates_sent_;
  obs::Counter* c_duplicates_ignored_;
  obs::Counter* c_clock_skew_windows_;
  obs::Counter* c_degraded_windows_;
  obs::Counter* c_retries_;
  obs::Counter* c_send_failures_;
  obs::Counter* c_rejected_;
  obs::Counter* c_quarantined_;
  obs::Counter* c_readmitted_;
  /// Calculation-step selection time (rank-select over the reply runs,
  /// wall-clock µs) — the cost `SelectRanksFromRuns` keeps off the heap.
  obs::Histogram* h_select_us_;
};

}  // namespace dema::core
