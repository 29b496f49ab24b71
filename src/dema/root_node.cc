#include "dema/root_node.h"

#include <algorithm>
#include <chrono>

#include "dema/validate.h"
#include "stream/merge.h"
#include "stream/quantile.h"

namespace dema::core {

DemaRootNode::DemaRootNode(DemaRootNodeOptions options, transport::Transport* transport,
                           const Clock* clock)
    : options_(std::move(options)),
      transport_(transport),
      clock_(clock),
      registry_(options_.registry),
      tracer_(options_.tracer),
      gamma_(options_.initial_gamma, options_.gamma_options),
      last_broadcast_gamma_(gamma_.current()) {
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const std::string label = options_.instrument_label.empty()
                                ? std::string()
                                : "{" + options_.instrument_label + "}";
  c_windows_ = registry_->GetCounter("dema.windows" + label);
  c_synopsis_slices_ = registry_->GetCounter("dema.synopsis_slices" + label);
  c_candidate_slices_ = registry_->GetCounter("dema.candidate_slices" + label);
  c_candidate_events_ = registry_->GetCounter("dema.candidate_events" + label);
  c_global_events_ = registry_->GetCounter("dema.global_events" + label);
  c_class_separate_ = registry_->GetCounter("dema.classes.separate" + label);
  c_class_compound_ = registry_->GetCounter("dema.classes.compound" + label);
  c_class_cover_ = registry_->GetCounter("dema.classes.cover" + label);
  c_gamma_updates_sent_ = registry_->GetCounter("dema.gamma_updates_sent" + label);
  c_duplicates_ignored_ = registry_->GetCounter("dema.duplicates_ignored" + label);
  c_clock_skew_windows_ = registry_->GetCounter("dema.clock_skew_windows" + label);
  c_degraded_windows_ = registry_->GetCounter("dema.degraded_windows" + label);
  c_retries_ = registry_->GetCounter("root.retries" + label);
  c_send_failures_ = registry_->GetCounter("root.send_failures" + label);
  c_rejected_ = registry_->GetCounter("dema.rejected" + label);
  c_quarantined_ = registry_->GetCounter("dema.quarantined" + label);
  c_readmitted_ = registry_->GetCounter("dema.readmitted" + label);
  h_select_us_ = registry_->GetHistogram("root.select_us" + label);

  // Fail fast on option errors: a bad quantile must not poison a running
  // cluster per-window after synopses already shipped.
  if (options_.quantiles.empty()) {
    init_status_ = Status::InvalidArgument("no quantiles configured");
  }
  for (double q : options_.quantiles) {
    if (!(q > 0.0) || q > 1.0) {
      init_status_ = Status::InvalidArgument(
          "quantile " + std::to_string(q) + " outside (0, 1]");
      break;
    }
  }
  if (init_status_.ok() && options_.use_naive_selection &&
      options_.quantiles.size() != 1) {
    init_status_ =
        Status::InvalidArgument("naive selection supports exactly one quantile");
  }

  for (size_t i = 0; i < options_.locals.size(); ++i) {
    local_index_[options_.locals[i]] = i;
  }
  health_.assign(options_.locals.size(), LocalReputation{});
  if (options_.per_node_gamma) {
    node_gamma_.assign(options_.locals.size(),
                       AdaptiveGammaController(options_.initial_gamma,
                                               options_.gamma_options));
    node_last_broadcast_.assign(options_.locals.size(), gamma_.current());
  }
}

DemaRootStats DemaRootNode::stats() const {
  DemaRootStats s;
  s.windows = c_windows_->Value();
  s.synopsis_slices = c_synopsis_slices_->Value();
  s.candidate_slices = c_candidate_slices_->Value();
  s.candidate_events = c_candidate_events_->Value();
  s.global_events = c_global_events_->Value();
  s.classes.separate = c_class_separate_->Value();
  s.classes.compound = c_class_compound_->Value();
  s.classes.cover = c_class_cover_->Value();
  s.gamma_updates_sent = c_gamma_updates_sent_->Value();
  s.duplicates_ignored = c_duplicates_ignored_->Value();
  s.clock_skew_windows = c_clock_skew_windows_->Value();
  s.retries = c_retries_->Value();
  s.degraded_windows = c_degraded_windows_->Value();
  s.send_failures = c_send_failures_->Value();
  s.rejected_payloads = c_rejected_->Value();
  s.quarantines = c_quarantined_->Value();
  s.readmissions = c_readmitted_->Value();
  return s;
}

void DemaRootNode::MarkEmitted(net::WindowId id) {
  if (id == emitted_below_) {
    ++emitted_below_;
    while (emitted_above_.erase(emitted_below_) > 0) ++emitted_below_;
  } else if (id > emitted_below_) {
    emitted_above_.insert(id);
  }
  if (options_.quarantine_strikes > 0) {
    // Quarantine time is measured in emitted windows (the only clock every
    // configuration shares); the last one opens probation.
    for (LocalReputation& h : health_) {
      if (h.state == LocalReputation::State::kQuarantined &&
          h.probation_windows_left > 0 && --h.probation_windows_left == 0) {
        h.state = LocalReputation::State::kProbation;
        h.strikes = 0;
      }
    }
  }
}

bool DemaRootNode::IsEmitted(net::WindowId id) const {
  return id < emitted_below_ || emitted_above_.count(id) > 0;
}

Status DemaRootNode::RejectPayload(NodeId src, const char* reason) {
  c_rejected_->Increment();
  std::string by_reason = std::string("dema.rejected{reason=") + reason;
  if (!options_.instrument_label.empty()) {
    by_reason += "," + options_.instrument_label;
  }
  registry_->GetCounter(by_reason + "}")->Increment();
  if (options_.quarantine_strikes == 0) return Status::OK();
  auto it = local_index_.find(src);
  if (it == local_index_.end()) return Status::OK();
  return AddStrike(it->second);
}

Status DemaRootNode::AddStrike(size_t idx) {
  LocalReputation& h = health_[idx];
  switch (h.state) {
    case LocalReputation::State::kQuarantined:
      // Already excluded; further rejections carry no new information.
      return Status::OK();
    case LocalReputation::State::kProbation:
      // One strike during probation re-quarantines immediately — the local
      // has not earned back the benefit of a fresh strike budget.
      return QuarantineLocal(idx);
    case LocalReputation::State::kHealthy:
      if (++h.strikes >= options_.quarantine_strikes) {
        return QuarantineLocal(idx);
      }
      return Status::OK();
  }
  return Status::OK();
}

bool DemaRootNode::IsQuarantined(size_t idx) const {
  return options_.quarantine_strikes > 0 &&
         health_[idx].state == LocalReputation::State::kQuarantined;
}

uint64_t DemaRootNode::ExcludedSizeEstimate(size_t idx) const {
  const LocalReputation& h = health_[idx];
  return h.last_known_size > 0 ? h.last_known_size : h.last_claimed_size;
}

bool DemaRootNode::SynopsesComplete(const PendingWindow& w) const {
  if (w.synopsis_from.empty()) return false;
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (!w.synopsis_from[i] && !IsQuarantined(i)) return false;
  }
  return true;
}

Status DemaRootNode::MaybeRunIdentification(net::WindowId id,
                                            PendingWindow* w) {
  if (w->requests_sent) return Status::OK();
  if (!SynopsesComplete(*w)) return Status::OK();
  // Charge an excluded-size estimate for every quarantined local the window
  // never heard from: the emitted result is exact over the contributors, and
  // the estimate bounds its rank error against the true global window.
  if (w->excluded_from.empty()) {
    w->excluded_from.assign(options_.locals.size(), false);
  }
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (IsQuarantined(i) && !w->synopsis_from[i] && !w->excluded_from[i]) {
      w->excluded_from[i] = true;
      w->excluded_events += ExcludedSizeEstimate(i);
    }
  }
  return RunIdentification(id, w);
}

Status DemaRootNode::QuarantineLocal(size_t idx) {
  LocalReputation& h = health_[idx];
  h.state = LocalReputation::State::kQuarantined;
  h.strikes = 0;
  h.probation_windows_left = std::max<uint64_t>(options_.probation_windows, 1);
  h.clean_windows_needed =
      std::max<uint32_t>(options_.probation_clean_windows, 1);
  c_quarantined_->Increment();
  const NodeId node = options_.locals[idx];

  // Sweep pending windows: identification and completion must stop waiting
  // for the excluded local right now, or every in-flight window stalls into
  // its deadline. Ids are snapshotted first — completing or degrading a
  // window erases it from `pending_`.
  std::vector<net::WindowId> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, w] : pending_) ids.push_back(id);
  for (net::WindowId id : ids) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    PendingWindow& w = it->second;
    if (!w.requests_sent) {
      // Still collecting synopses: drop the local's accepted contribution
      // (its data is no longer trusted) and release its retained window.
      if (!w.synopsis_from.empty() && w.synopsis_from[idx]) {
        uint64_t stripped = 0;
        auto keep = w.slices.begin();
        for (const SliceSynopsis& s : w.slices) {
          if (s.node == node) {
            stripped += s.count;
          } else {
            *keep++ = s;
          }
        }
        w.slices.erase(keep, w.slices.end());
        w.synopsis_from[idx] = false;
        --w.synopses_received;
        w.global_size -= stripped;
        if (w.excluded_from.empty()) {
          w.excluded_from.assign(options_.locals.size(), false);
        }
        w.excluded_from[idx] = true;
        w.excluded_events += stripped;
        CandidateRequest release;
        release.window_id = id;
        (void)transport_->Send(net::MakeMessage(
            net::MessageType::kCandidateRequest, options_.id, node, release));
      }
      DEMA_RETURN_NOT_OK(MaybeRunIdentification(id, &it->second));
    } else {
      // Candidates already requested. If the window still waits on this
      // local's reply, it will never arrive honestly — emit degraded from
      // whatever did (EmitDegraded also releases the local's retained
      // window).
      auto req_it = w.request_indices.find(node);
      const bool waiting = req_it != w.request_indices.end() &&
                           (w.reply_from.empty() || !w.reply_from[idx]);
      if (waiting) {
        DEMA_RETURN_NOT_OK(EmitDegraded(id, &w, "quarantine"));
      }
    }
  }
  return Status::OK();
}

void DemaRootNode::CreditCleanWindow(const PendingWindow& w) {
  if (options_.quarantine_strikes == 0) return;
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    LocalReputation& h = health_[i];
    if (h.state != LocalReputation::State::kProbation) continue;
    if (w.synopsis_from.empty() || !w.synopsis_from[i]) continue;
    const bool replied_clean =
        w.request_indices.count(options_.locals[i]) == 0 ||
        (!w.reply_from.empty() && w.reply_from[i]);
    if (!replied_clean) continue;
    if (h.clean_windows_needed > 0 && --h.clean_windows_needed == 0) {
      h.state = LocalReputation::State::kHealthy;
      h.strikes = 0;
      c_readmitted_->Increment();
    }
  }
}

Status DemaRootNode::SendBestEffort(net::Message m) {
  Status st = transport_->Send(std::move(m));
  if (st.ok() || options_.deadline_ticks == 0) return st;
  c_send_failures_->Increment();
  return Status::OK();
}

uint64_t DemaRootNode::current_gamma_for(NodeId node) const {
  if (options_.per_node_gamma) {
    auto it = local_index_.find(node);
    if (it != local_index_.end()) return node_gamma_[it->second].current();
  }
  return gamma_.current();
}

DurationUs DemaRootNode::EmitLatencyUs(TimestampUs close_us,
                                       obs::WindowTrace* trace) {
  TimestampUs now = clock_->NowUs();
  trace->emit_us = static_cast<uint64_t>(std::max<TimestampUs>(0, now));
  if (now < close_us) {
    // A peer's close stamp ran ahead of the root clock (possible across
    // processes despite the shared epoch); clamp instead of underflowing.
    c_clock_skew_windows_->Increment();
    trace->clock_skew = true;
    trace->latency_us = 0;
    return 0;
  }
  trace->latency_us = static_cast<uint64_t>(now - close_us);
  return now - close_us;
}

void DemaRootNode::RecordTrace(PendingWindow* w) {
  if (tracer_ == nullptr) return;
  w->trace.global_size = w->global_size;
  w->trace.synopses = w->synopses_received;
  w->trace.local_close_us =
      static_cast<uint64_t>(std::max<TimestampUs>(0, w->last_close_time_us));
  tracer_->Record(w->trace);
}

Status DemaRootNode::OnMessage(const net::Message& msg) {
  if (!init_status_.ok()) return init_status_;
  if (dedup_.IsDuplicate(msg.src, msg.seq)) {
    // Transport-level retransmission (same sequence number): absorb it
    // before it reaches the protocol handlers at all.
    c_duplicates_ignored_->Increment();
    return Status::OK();
  }
  net::Reader r(msg.payload_bytes());
  // A payload that fails to decode is corruption evidence, not a root
  // failure: drop it, count it, strike the sender. The retry/deadline
  // machinery recovers the window exactly as if the message were lost.
  switch (msg.type) {
    case net::MessageType::kSynopsisBatch: {
      auto batch = SynopsisBatch::Deserialize(&r);
      if (!batch.ok()) return RejectPayload(msg.src, "decode");
      return HandleSynopsisBatch(*batch, msg.src);
    }
    case net::MessageType::kCandidateReply: {
      auto reply = CandidateReply::Deserialize(&r);
      if (!reply.ok()) return RejectPayload(msg.src, "decode");
      return HandleCandidateReply(std::move(reply).MoveValueUnsafe(), msg.src);
    }
    case net::MessageType::kGammaSyncRequest: {
      auto sync = GammaSyncRequest::Deserialize(&r);
      if (!sync.ok()) return RejectPayload(msg.src, "decode");
      return HandleGammaSync(*sync, msg.src);
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("root got unexpected ") +
                              net::MessageTypeToString(msg.type));
  }
}

Status DemaRootNode::HandleGammaSync(const GammaSyncRequest& sync, NodeId src) {
  if (local_index_.find(src) == local_index_.end()) {
    return RejectPayload(src, "unknown_node");
  }
  if (sync.node != src) return RejectPayload(src, "node_mismatch");
  // A restarted local missed any broadcasts while it was down; answer with
  // the current factor. effective_from 0 lets the local clamp the update to
  // its own emission frontier.
  GammaUpdate update;
  update.effective_from = 0;
  update.gamma = static_cast<uint32_t>(std::min<uint64_t>(
      std::max<uint64_t>(current_gamma_for(sync.node), 2), UINT32_MAX));
  DEMA_RETURN_NOT_OK(SendBestEffort(net::MakeMessage(
      net::MessageType::kGammaUpdate, options_.id, sync.node, update)));
  c_gamma_updates_sent_->Increment();
  return Status::OK();
}

void DemaRootNode::NoteWindowHorizon(net::WindowId last) {
  if (options_.deadline_ticks == 0) return;
  any_window_seen_ = true;
  highest_window_seen_ = std::max(highest_window_seen_, last);
}

Status DemaRootNode::HandleSynopsisBatch(const SynopsisBatch& batch,
                                         NodeId src) {
  auto idx_it = local_index_.find(src);
  if (idx_it == local_index_.end()) {
    // An unknown sender (misrouted or forged frame) must not take the run
    // down; drop the payload and keep the window alive for the real locals.
    return RejectPayload(src, "unknown_node");
  }
  const size_t idx = idx_it->second;
  if (const char* reason =
          ValidateSynopsisBatch(batch, src, options_.strict_validation)) {
    // The payload is untrusted, but its claimed size is still the only
    // available exclusion estimate if this strike ends in quarantine.
    health_[idx].last_claimed_size = batch.local_window_size;
    return RejectPayload(src, reason);
  }
  if (IsQuarantined(idx)) {
    // Remember the claimed size as an (untrusted) exclusion estimate, and
    // release the local's retained window — it will never be queried.
    health_[idx].last_claimed_size = batch.local_window_size;
    CandidateRequest release;
    release.window_id = batch.window_id;
    (void)transport_->Send(net::MakeMessage(
        net::MessageType::kCandidateRequest, options_.id, src, release));
    return RejectPayload(src, "quarantined");
  }
  if (IsEmitted(batch.window_id)) {
    // A delayed or retransmitted synopsis for a window that already emitted
    // (possibly degraded); it must not resurrect a pending entry.
    if (options_.tolerate_duplicates) {
      c_duplicates_ignored_->Increment();
      return Status::OK();
    }
    return Status::AlreadyExists("synopsis for emitted window " +
                                 std::to_string(batch.window_id));
  }
  any_window_seen_ = true;
  highest_window_seen_ = std::max(highest_window_seen_, batch.window_id);
  PendingWindow& w = pending_[batch.window_id];
  if (w.synopsis_from.empty()) {
    w.synopsis_from.assign(options_.locals.size(), false);
    w.trace.window_id = batch.window_id;
    w.trace.first_synopsis_us =
        static_cast<uint64_t>(std::max<TimestampUs>(0, clock_->NowUs()));
  }
  if (w.synopsis_from[idx]) {
    if (options_.tolerate_duplicates) {
      c_duplicates_ignored_->Increment();
      return Status::OK();
    }
    return Status::AlreadyExists("duplicate synopsis from node " +
                                 std::to_string(batch.node));
  }
  w.synopsis_from[idx] = true;
  ++w.synopses_received;
  health_[idx].last_known_size = batch.local_window_size;
  w.global_size += batch.local_window_size;
  w.last_close_time_us = std::max(w.last_close_time_us, batch.close_time_us);
  w.slices.insert(w.slices.end(), batch.slices.begin(), batch.slices.end());
  c_synopsis_slices_->Increment(batch.slices.size());
  w.trace.last_synopsis_us =
      static_cast<uint64_t>(std::max<TimestampUs>(0, clock_->NowUs()));
  if (options_.deadline_ticks > 0) {
    // Progress: push the deadline out and refund the retry budget.
    w.next_check_tick = tick_ + options_.deadline_ticks;
    w.retries = 0;
  }

  return MaybeRunIdentification(batch.window_id, &w);
}

Status DemaRootNode::RunIdentification(net::WindowId id, PendingWindow* w) {
  if (w->global_size == 0) {
    // Every contributing local window was empty; emit an empty result
    // directly — flagged degraded when emptiness is an artifact of
    // quarantine exclusions rather than a genuinely empty global window.
    sim::WindowOutput out;
    out.window_id = id;
    out.global_size = 0;
    out.quantiles = options_.quantiles;
    out.values.assign(options_.quantiles.size(), 0.0);
    if (w->excluded_events > 0) {
      out.degraded = true;
      out.degrade_cause = "quarantine";
      out.rank_error_bound = w->excluded_events;
      c_degraded_windows_->Increment();
      w->trace.degraded = true;
    }
    out.latency_us = EmitLatencyUs(w->last_close_time_us, &w->trace);
    c_windows_->Increment();
    RecordTrace(w);
    MarkEmitted(id);
    if (callback_) callback_(out);
    pending_.erase(id);
    return Status::OK();
  }

  w->trace.identification_us =
      static_cast<uint64_t>(std::max<TimestampUs>(0, clock_->NowUs()));

  std::vector<uint64_t> ranks;
  ranks.reserve(options_.quantiles.size());
  for (double q : options_.quantiles) {
    ranks.push_back(stream::QuantileRank(q, w->global_size));
  }

  if (options_.use_naive_selection) {
    DEMA_ASSIGN_OR_RETURN(
        w->cut, WindowCut::SelectNaiveOverlap(w->slices, w->global_size, ranks[0]));
  } else {
    DEMA_ASSIGN_OR_RETURN(w->cut,
                          WindowCut::SelectMulti(w->slices, w->global_size, ranks));
  }

  c_candidate_slices_->Increment(w->cut.candidates.size());
  c_candidate_events_->Increment(w->cut.candidate_event_count);
  c_class_separate_->Increment(w->cut.classes.separate);
  c_class_compound_->Increment(w->cut.classes.compound);
  c_class_cover_->Increment(w->cut.classes.cover);
  w->trace.candidate_slices = w->cut.candidates.size();
  w->trace.candidate_events = w->cut.candidate_event_count;

  // Group candidate slices by owning node; indices within one node ascend
  // because synopsis batches list a node's slices in order and the candidate
  // list preserves input order.
  std::map<NodeId, std::vector<uint32_t>> per_node;
  for (size_t flat : w->cut.candidates) {
    const SliceSynopsis& s = w->slices[flat];
    per_node[s.node].push_back(s.index);
  }
  // Kept so the deadline machinery can retransmit identical requests.
  w->request_indices = per_node;

  // Every node with a retained (non-empty) window gets a request; an empty
  // index list releases the window's memory on that node.
  std::vector<uint64_t> local_sizes(options_.locals.size(), 0);
  for (const SliceSynopsis& s : w->slices) {
    local_sizes[local_index_[s.node]] += s.count;
  }
  w->expected_replies = 0;
  w->requests_sent = true;
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    NodeId node = options_.locals[i];
    if (local_sizes[i] == 0) continue;  // nothing retained there
    CandidateRequest req;
    req.window_id = id;
    auto it = per_node.find(node);
    if (it != per_node.end()) {
      req.slice_indices = std::move(it->second);
      ++w->expected_replies;
    }
    DEMA_RETURN_NOT_OK(SendBestEffort(net::MakeMessage(
        net::MessageType::kCandidateRequest, options_.id, node, req)));
  }
  if (w->expected_replies == 0) {
    return Status::Internal("window-cut produced no candidates for window " +
                            std::to_string(id));
  }
  if (options_.deadline_ticks > 0) {
    w->next_check_tick = tick_ + options_.deadline_ticks;
    w->retries = 0;
  }
  return Status::OK();
}

Status DemaRootNode::HandleCandidateReply(CandidateReply reply, NodeId src) {
  auto idx_it = local_index_.find(src);
  if (idx_it == local_index_.end()) {
    // Unknown sender: drop the payload, never the run (the window completes
    // from the real locals' replies).
    return RejectPayload(src, "unknown_node");
  }
  const size_t idx = idx_it->second;
  // Identity is checkable without window context — catch a tampered node
  // field even when the window already emitted.
  if (reply.node != src) return RejectPayload(src, "node_mismatch");
  if (IsQuarantined(idx)) return RejectPayload(src, "quarantined");
  auto it = pending_.find(reply.window_id);
  if (it == pending_.end()) {
    if (options_.tolerate_duplicates) {
      // The window already completed; this is a retransmitted reply.
      c_duplicates_ignored_->Increment();
      return Status::OK();
    }
    return Status::NotFound("reply for unknown window " +
                            std::to_string(reply.window_id));
  }
  PendingWindow& w = it->second;
  if (!w.requests_sent) {
    // No request is out yet, so no honest local can be replying.
    return RejectPayload(src, "unexpected_reply");
  }
  auto req_it = w.request_indices.find(src);
  if (req_it == w.request_indices.end()) {
    // This local holds no candidate slices for the window; accepting the
    // run would shift every rank. (Before validation existed, such a reply
    // poisoned the completion count.)
    return RejectPayload(src, "unexpected_reply");
  }
  // Re-derive the synopses of exactly the slices this local was asked for;
  // the reply must agree with what it declared at identification time.
  std::vector<SliceSynopsis> requested;
  requested.reserve(req_it->second.size());
  size_t next_requested = 0;
  for (const SliceSynopsis& s : w.slices) {
    if (s.node != src) continue;
    if (next_requested < req_it->second.size() &&
        s.index == req_it->second[next_requested]) {
      requested.push_back(s);
      ++next_requested;
    }
  }
  if (next_requested != req_it->second.size()) {
    return Status::Internal("candidate request indices for node " +
                            std::to_string(src) +
                            " not found among window synopses");
  }
  if (const char* reason = ValidateCandidateReply(
          reply, src, requested, options_.strict_validation)) {
    return RejectPayload(src, reason);
  }
  if (w.reply_from.empty()) w.reply_from.assign(options_.locals.size(), false);
  if (w.reply_from[idx]) {
    if (options_.tolerate_duplicates) {
      c_duplicates_ignored_->Increment();
      return Status::OK();
    }
    return Status::AlreadyExists("duplicate reply from node " +
                                 std::to_string(reply.node));
  }
  w.reply_from[idx] = true;
  w.reply_runs.push_back(std::move(reply.events));
  ++w.trace.replies;
  uint64_t now =
      static_cast<uint64_t>(std::max<TimestampUs>(0, clock_->NowUs()));
  if (w.trace.first_reply_us == 0) w.trace.first_reply_us = now;
  w.trace.last_reply_us = now;
  if (options_.deadline_ticks > 0) {
    w.next_check_tick = tick_ + options_.deadline_ticks;
    w.retries = 0;
  }
  if (w.reply_runs.size() == w.expected_replies) {
    return CompleteWindow(reply.window_id, &w);
  }
  return Status::OK();
}

Status DemaRootNode::CompleteWindow(net::WindowId id, PendingWindow* w) {
  // Replies are pre-sorted runs (one per node); rank-select across them by
  // pivot search — the merged candidate sequence is never materialized. The
  // window-cut consistency check works on summed run sizes instead.
  uint64_t total = 0;
  for (const auto& run : w->reply_runs) total += run.size();
  if (total != w->cut.candidate_event_count) {
    return Status::Internal("candidate reply events (" + std::to_string(total) +
                            ") do not match window-cut expectation (" +
                            std::to_string(w->cut.candidate_event_count) + ")");
  }

  std::vector<uint64_t> within_ranks;
  within_ranks.reserve(w->cut.selections.size());
  for (const RankSelection& sel : w->cut.selections) {
    uint64_t within = sel.rank - sel.below_count;  // 1-based among candidates
    if (within < 1 || within > total) {
      return Status::Internal("selection rank " + std::to_string(within) +
                              " outside merged candidates [1, " +
                              std::to_string(total) + "]");
    }
    within_ranks.push_back(within);
  }
  auto select_start = std::chrono::steady_clock::now();
  DEMA_ASSIGN_OR_RETURN(
      std::vector<Event> picked,
      stream::SelectRanksFromRuns(std::move(w->reply_runs), within_ranks));
  h_select_us_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - select_start)
          .count()));

  sim::WindowOutput out;
  out.window_id = id;
  out.global_size = w->global_size;
  out.quantiles = options_.quantiles;
  out.values.reserve(options_.quantiles.size());
  for (const Event& e : picked) out.values.push_back(e.value);
  if (w->excluded_events > 0) {
    // Exact over the contributing locals, but a quarantined local's events
    // were excluded — flag the emit so no consumer mistakes it for the true
    // global quantile. The exclusion count bounds the rank error.
    out.degraded = true;
    out.degrade_cause = "quarantine";
    out.rank_error_bound = w->excluded_events;
    c_degraded_windows_->Increment();
    w->trace.degraded = true;
  }
  out.latency_us = EmitLatencyUs(w->last_close_time_us, &w->trace);

  c_windows_->Increment();
  c_global_events_->Increment(w->global_size);
  RecordTrace(w);
  MarkEmitted(id);
  uint64_t global_size = w->global_size;
  uint64_t candidate_slices = w->cut.candidates.size();
  PendingWindow completed = std::move(*w);
  pending_.erase(id);
  if (callback_) callback_(out);
  // An exact completion is the probation currency: every local that
  // contributed cleanly earns a credit toward re-admission.
  CreditCleanWindow(completed);

  if (options_.adaptive_gamma && options_.per_node_gamma) {
    DEMA_RETURN_NOT_OK(AdaptPerNode(id, completed));
  } else if (options_.adaptive_gamma) {
    uint64_t next = gamma_.Observe(global_size, candidate_slices);
    if (next != last_broadcast_gamma_) {
      DEMA_RETURN_NOT_OK(BroadcastGamma(id + 1, next));
      last_broadcast_gamma_ = next;
    }
  }
  return Status::OK();
}

Status DemaRootNode::AdaptPerNode(net::WindowId completed_window,
                                  const PendingWindow& w) {
  // Per-node observations: l_i from the node's slice counts, m_i from its
  // share of the candidate set. The per-node cost model mirrors the global
  // one — identification ships 2·l_i/γ_i synopsis events from node i,
  // calculation ships m_i·(γ_i − 2) of its events.
  std::vector<uint64_t> local_size(options_.locals.size(), 0);
  std::vector<uint64_t> local_candidates(options_.locals.size(), 0);
  for (const SliceSynopsis& s : w.slices) {
    local_size[local_index_[s.node]] += s.count;
  }
  for (size_t flat : w.cut.candidates) {
    local_candidates[local_index_[w.slices[flat].node]] += 1;
  }
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (local_size[i] == 0) continue;  // no observation from an idle node
    uint64_t next = node_gamma_[i].Observe(local_size[i], local_candidates[i]);
    if (next == node_last_broadcast_[i]) continue;
    GammaUpdate update;
    update.effective_from = completed_window + 1;
    update.gamma = static_cast<uint32_t>(std::min<uint64_t>(next, UINT32_MAX));
    DEMA_RETURN_NOT_OK(SendBestEffort(net::MakeMessage(
        net::MessageType::kGammaUpdate, options_.id, options_.locals[i], update)));
    node_last_broadcast_[i] = next;
    c_gamma_updates_sent_->Increment();
  }
  return Status::OK();
}

Status DemaRootNode::BroadcastGamma(net::WindowId effective_from, uint64_t gamma) {
  GammaUpdate update;
  update.effective_from = effective_from;
  update.gamma = static_cast<uint32_t>(std::min<uint64_t>(gamma, UINT32_MAX));
  // Counts messages, not broadcasts, matching AdaptPerNode's accounting.
  for (NodeId node : options_.locals) {
    DEMA_RETURN_NOT_OK(SendBestEffort(net::MakeMessage(
        net::MessageType::kGammaUpdate, options_.id, node, update)));
    c_gamma_updates_sent_->Increment();
  }
  return Status::OK();
}

Status DemaRootNode::Tick() {
  if (!init_status_.ok()) return init_status_;
  if (options_.deadline_ticks == 0) return Status::OK();
  ++tick_;
  // Gap-fill: a window whose every synopsis was dropped has no pending entry
  // and would otherwise stall silently. Create one for each known-to-exist,
  // not-yet-emitted id so the deadline machinery sees it.
  if (any_window_seen_) {
    for (net::WindowId id = emitted_below_; id <= highest_window_seen_; ++id) {
      if (IsEmitted(id) || pending_.count(id) > 0) continue;
      PendingWindow& w = pending_[id];
      w.synopsis_from.assign(options_.locals.size(), false);
      w.trace.window_id = id;
      w.next_check_tick = tick_ + options_.deadline_ticks;
    }
  }
  std::vector<std::pair<net::WindowId, std::string>> to_degrade;
  for (auto& [id, w] : pending_) {
    if (tick_ < w.next_check_tick) continue;
    if (w.retries >= options_.max_retries) {
      std::string cause;
      if (w.requests_sent) {
        cause = w.reply_runs.empty() ? "replies_lost" : "replies_partial";
      } else {
        cause = w.synopses_received == 0 ? "synopses_lost" : "synopses_partial";
      }
      to_degrade.emplace_back(id, std::move(cause));
      continue;
    }
    ++w.retries;
    // Exponential backoff between recovery attempts.
    w.next_check_tick = tick_ + (options_.deadline_ticks << w.retries);
    if (!w.requests_sent) {
      // Nothing to re-request in the synopsis phase: a crashed local re-ships
      // its windows after restarting, so the backoff just extends the wait.
      continue;
    }
    for (const auto& [node, indices] : w.request_indices) {
      if (!w.reply_from.empty() && w.reply_from[local_index_[node]]) continue;
      CandidateRequest req;
      req.window_id = id;
      req.slice_indices = indices;
      c_retries_->Increment();
      DEMA_RETURN_NOT_OK(SendBestEffort(net::MakeMessage(
          net::MessageType::kCandidateRequest, options_.id, node, req)));
    }
  }
  for (auto& [id, cause] : to_degrade) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    DEMA_RETURN_NOT_OK(EmitDegraded(id, &it->second, cause));
  }
  return Status::OK();
}

Status DemaRootNode::EmitDegraded(net::WindowId id, PendingWindow* w,
                                  const std::string& cause) {
  sim::WindowOutput out;
  out.window_id = id;
  out.global_size = w->global_size;
  out.quantiles = options_.quantiles;
  out.degraded = true;
  out.degrade_cause = cause;
  uint64_t arrived = 0;
  for (const auto& run : w->reply_runs) arrived += run.size();
  if (w->requests_sent && arrived > 0) {
    // Partial candidate data: answer from what arrived. Each missing
    // candidate event can shift a value's true rank by at most one, so the
    // shortfall bounds the rank error. Same no-materialization selection as
    // the healthy path, with ranks clamped into the arrived range.
    out.rank_error_bound = w->cut.candidate_event_count > arrived
                               ? w->cut.candidate_event_count - arrived
                               : 0;
    std::vector<uint64_t> within_ranks;
    within_ranks.reserve(w->cut.selections.size());
    for (const RankSelection& sel : w->cut.selections) {
      uint64_t within = sel.rank > sel.below_count ? sel.rank - sel.below_count : 1;
      within_ranks.push_back(
          std::min<uint64_t>(std::max<uint64_t>(within, 1), arrived));
    }
    auto select_start = std::chrono::steady_clock::now();
    DEMA_ASSIGN_OR_RETURN(
        std::vector<Event> picked,
        stream::SelectRanksFromRuns(std::move(w->reply_runs), within_ranks));
    h_select_us_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - select_start)
            .count()));
    for (const Event& e : picked) out.values.push_back(e.value);
  } else if (!w->slices.empty()) {
    // Synopses only: walk the slices in ascending first-value order,
    // accumulate counts up to the target rank, and answer with the
    // containing slice's first value. The true value can sit anywhere inside
    // that slice, so its size bounds the rank error.
    std::vector<const SliceSynopsis*> order;
    order.reserve(w->slices.size());
    for (const SliceSynopsis& s : w->slices) order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const SliceSynopsis* a, const SliceSynopsis* b) {
                if (a->first.value != b->first.value)
                  return a->first.value < b->first.value;
                if (a->node != b->node) return a->node < b->node;
                return a->index < b->index;
              });
    uint64_t observed = 0;
    for (const SliceSynopsis* s : order) observed += s->count;
    for (double q : options_.quantiles) {
      uint64_t target = stream::QuantileRank(q, observed);
      uint64_t cum = 0;
      double value = 0.0;
      for (const SliceSynopsis* s : order) {
        cum += s->count;
        value = s->first.value;
        if (cum >= target) {
          out.rank_error_bound = std::max(out.rank_error_bound, s->count);
          break;
        }
      }
      out.values.push_back(value);
    }
  } else {
    // Nothing arrived at all; emit an explicitly-empty degraded result.
    out.values.assign(options_.quantiles.size(), 0.0);
    out.rank_error_bound = 0;
  }
  // Quarantine exclusions shift true ranks on top of whatever this window
  // already lost; the bounds compose additively.
  out.rank_error_bound += w->excluded_events;
  out.latency_us = EmitLatencyUs(w->last_close_time_us, &w->trace);

  // Release retained windows on locals we will no longer query (best
  // effort: the node may be down, and a restarted one re-serves or prunes).
  std::vector<uint64_t> local_sizes(options_.locals.size(), 0);
  for (const SliceSynopsis& s : w->slices) {
    local_sizes[local_index_[s.node]] += s.count;
  }
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    if (local_sizes[i] == 0) continue;
    if (!w->reply_from.empty() && w->reply_from[i]) continue;
    CandidateRequest release;
    release.window_id = id;
    (void)transport_->Send(net::MakeMessage(net::MessageType::kCandidateRequest,
                                            options_.id, options_.locals[i],
                                            release));
  }

  c_windows_->Increment();
  c_degraded_windows_->Increment();
  c_global_events_->Increment(w->global_size);
  w->trace.degraded = true;
  RecordTrace(w);
  MarkEmitted(id);
  pending_.erase(id);
  if (callback_) callback_(out);
  return Status::OK();
}

}  // namespace dema::core
