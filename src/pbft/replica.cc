#include "pbft/replica.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "crypto/sha256.h"

namespace blockplane::pbft {

PbftReplica::PbftReplica(net::Network* network, crypto::KeyStore* keys,
                         PbftConfig config, net::NodeId self,
                         ExecuteCallback execute)
    : network_(network),
      sim_(network->simulator()),
      keys_(keys),
      config_(std::move(config)),
      self_(self),
      execute_(std::move(execute)) {
  config_.Validate();
  index_ = config_.ReplicaIndex(self_);
  BP_CHECK_MSG(index_ >= 0, "replica is not a member of its own group");
  signer_ = keys_->RegisterNode(self_);
  state_digest_.fill(0);
  // Jitter stream for the view-change backoff: seeded from this replica's
  // identity so it is deterministic per seed yet distinct per replica,
  // without consuming draws from the simulator's root RNG (which would
  // shift every downstream Fork and invalidate golden traces).
  backoff_rng_.Seed(0x5bd1e995u ^
                    (static_cast<uint64_t>(self_.site) << 32) ^
                    (static_cast<uint64_t>(self_.index) + 1));
}

void PbftReplica::RegisterWithNetwork() { network_->Register(self_, this); }

template <typename Map>
int PbftReplica::CountMatching(const Map& votes, const Digest& digest) {
  int count = 0;
  for (const auto& [index, vote] : votes) {
    if constexpr (std::is_same_v<std::decay_t<decltype(vote)>, Digest>) {
      if (vote == digest) ++count;
    } else {
      if (vote.digest == digest) ++count;
    }
  }
  return count;
}

void PbftReplica::HandleMessage(const net::Message& msg) {
  if (byzantine_ == ByzantineMode::kSilent) return;
  // One serial receive path (DESIGN.md §12): each handler decodes onto the
  // stack, checks, and applies, in delivery order.
  bool accepted = true;
  switch (msg.type) {
    case kPrePrepare:
      accepted = OnPrePrepare(msg);
      break;
    case kPrepare:
    case kCommit:
      accepted = OnVote(msg);
      break;
    case kRequest:
      OnRequest(msg);
      break;
    case kCheckpoint:
      OnCheckpoint(msg);
      break;
    case kViewChange:
      OnViewChange(msg);
      break;
    case kNewView:
      OnNewView(msg);
      break;
    case kFetchCommitted:
      OnFetchCommitted(msg);
      break;
    case kCommittedEntry:
      OnCommittedEntry(msg);
      break;
    case kFetchSnapshot:
      OnFetchSnapshot(msg);
      break;
    case kSnapshot:
      OnSnapshot(msg);
      break;
    default:
      return;  // not a PBFT message; ignore
  }
  if (!accepted) robustness_stats().msgs_rejected++;
}

// --- plumbing ---------------------------------------------------------------

void PbftReplica::Broadcast(net::MessageType type, Bytes payload,
                            uint64_t trace_id) {
  // Encode-once fan-out: one allocation, shared by every recipient's
  // Message. Each SendShared is a refcount bump where it used to be a full
  // buffer copy per peer.
  net::PayloadPtr shared = net::MakePayload(std::move(payload));
  int recipients = 0;
  for (const net::NodeId& node : config_.nodes) {
    if (node == self_) continue;
    SendShared(node, type, shared, trace_id);
    ++recipients;
  }
  if (recipients > 1) {
    hotpath_stats().bytes_copied_saved +=
        static_cast<int64_t>(recipients - 1) *
        static_cast<int64_t>(shared->size());
  }
}

void PbftReplica::SendTo(net::NodeId dst, net::MessageType type,
                         Bytes payload, uint64_t trace_id) {
  SendShared(dst, type, net::MakePayload(std::move(payload)), trace_id);
}

void PbftReplica::SendShared(net::NodeId dst, net::MessageType type,
                             net::PayloadPtr payload, uint64_t trace_id) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.trace_id = trace_id;
  network_->Send(std::move(msg));
}

Signature PbftReplica::Sign(const Bytes& canonical) const {
  if (!config_.sign_messages) return Signature{self_, {}};
  return signer_->Sign(canonical);
}

Signature PbftReplica::SignVote(const VoteMsg& vote) const {
  if (!config_.sign_messages) return Signature{self_, {}};
  hotpath_stats().encodes_elided++;
  const VoteMsg::CanonicalBytes body = vote.CanonicalBody();
  return signer_->Sign(body.data(), body.size());
}

bool PbftReplica::VerifySig(const Bytes& canonical,
                            const Signature& sig) const {
  if (!config_.sign_messages) return true;
  return keys_->Verify(canonical, sig);
}

int PbftReplica::ValidSigners(const Bytes& body,
                              const std::vector<Signature>& sigs,
                              net::NodeId excluded) const {
  std::set<int32_t> valid;
  for (const Signature& sig : sigs) {
    const int index = config_.ReplicaIndex(sig.signer);
    if (index < 0 || sig.signer == excluded) continue;
    if (keys_->Verify(body, sig)) valid.insert(index);
  }
  return static_cast<int>(valid.size());
}

bool PbftReplica::RunVerifier(const Bytes& value, const Digest* digest) const {
  if (byzantine_ == ByzantineMode::kRejectVerification) return false;
  if (!verifier_) return true;
  if (value.empty()) return true;  // no-op gap filler
  return verifier_(value, digest);
}

// --- client requests ---------------------------------------------------------

void PbftReplica::OnRequest(const net::Message& msg) {
  RequestMsg request;
  if (!RequestMsg::Decode(msg.body(), &request).ok()) return;

  // Already executed? Re-send the cached reply (the client's first reply
  // may have been lost).
  auto executed_it = executed_reqs_.find(request.client_token);
  if (executed_it != executed_reqs_.end() &&
      executed_it->second.count(request.req_id) > 0) {
    auto client_it = cached_replies_.find(request.client_token);
    if (client_it != cached_replies_.end()) {
      auto reply_it = client_it->second.find(request.req_id);
      if (reply_it != client_it->second.end()) {
        SendTo(ClientFromToken(request.client_token), kReply,
               reply_it->second);
      }
    }
    return;
  }

  if (IsLeader() && !in_view_change_) {
    auto key = std::make_pair(request.client_token, request.req_id);
    if (assigned_requests_.count(key) > 0) return;  // already proposed
    if (byzantine_ == ByzantineMode::kReorderGeo && !reorder_stashed_) {
      // Geo-reorder attack: silently censor the first request (mark it
      // assigned so retries stay censored too) while proposing later ones.
      // The unit log then carries non-contiguous geo positions until a view
      // change evicts this leader and an honest one proposes the gap.
      reorder_stashed_ = true;
      assigned_requests_.insert(key);
      return;
    }
    assigned_requests_.insert(key);
    pending_requests_.push_back({std::move(request), msg.trace_id, sim_->Now()});
    MaybeProposeNext();
    return;
  }

  // A request our own verification routine rejects will (rightly) be
  // censored by an honest leader; forwarding or watching it would only
  // provoke pointless view changes.
  if (!RunVerifier(request.value, nullptr)) return;

  // Backup: forward to the current leader and watch for progress. If the
  // leader censors the request, the watchdog forces a view change.
  // Forward the received payload verbatim by reference — no re-encode, no
  // copy (the leader decodes the same bytes we did).
  hotpath_stats().bytes_copied_saved += static_cast<int64_t>(msg.body().size());
  SendShared(leader(), kRequest, msg.payload, msg.trace_id);
  auto key = std::make_pair(request.client_token, request.req_id);
  if (watched_requests_.count(key) > 0) return;
  WatchedRequest& watch = watched_requests_[key];
  watch.payload = msg.payload;  // kept for re-forwarding on view entry
  watch.trace_id = msg.trace_id;
  ArmRequestWatchdog(key);
}

void PbftReplica::ArmRequestWatchdog(
    const std::pair<uint64_t, uint64_t>& key) {
  auto it = watched_requests_.find(key);
  if (it == watched_requests_.end()) return;
  sim_->Cancel(it->second.timer);
  it->second.timer = sim_->Schedule(config_.view_timeout, [this, key]() {
    watched_requests_.erase(key);
    // The quorum may have executed the request without us; fetch decided
    // entries before blaming the leader.
    CatchUp();
    StartViewChange(view_ + 1);
  });
}

uint64_t PbftReplica::EffectiveWindow() const {
  if (config_.window_provider) {
    uint64_t window = config_.window_provider();
    return window < 1 ? 1 : window;
  }
  return config_.window;
}

uint64_t PbftReplica::HighWatermark() const {
  // Keep the un-truncated log bounded: never run more than two checkpoint
  // intervals (or two windows, whichever is larger) past the last stable
  // checkpoint. At window 1 this is never the binding constraint.
  uint64_t span = std::max<uint64_t>(2 * config_.checkpoint_interval,
                                     2 * EffectiveWindow());
  return last_stable_ + span;
}

bool PbftReplica::AdmitValue(const Bytes& value, const Digest* digest) {
  if (byzantine_ == ByzantineMode::kRejectVerification) return false;
  // A geo-reordering byzantine leader does not run the honest admission
  // projection (which would reject its own out-of-contiguity proposals).
  if (byzantine_ == ByzantineMode::kReorderGeo) return true;
  if (value.empty()) return true;  // no-op gap filler
  if (admission_) return admission_(value, digest);
  if (verifier_) return verifier_(value, digest);
  return true;
}

void PbftReplica::RebuildAdmissionProjection(
    const std::map<uint64_t, const Bytes*>& extra) {
  if (!admission_) return;
  if (admission_reset_) admission_reset_();
  // Replay every value that is decided (committed instance) or carried over
  // (prepared proof from a view change) but not yet executed, in sequence
  // order, so fresh admissions are judged against the state the log will
  // reach once the in-flight window drains. Admission verdicts are ignored
  // here: these values are already fixed in the log.
  uint64_t max_seq = extra.empty() ? 0 : extra.rbegin()->first;
  if (!instances_.empty()) {
    max_seq = std::max(max_seq, instances_.rbegin()->first);
  }
  for (uint64_t seq = last_executed_ + 1; seq <= max_seq; ++seq) {
    const Bytes* value = nullptr;
    const Digest* digest = nullptr;
    auto ei = extra.find(seq);
    if (ei != extra.end()) {
      value = ei->second;
    } else {
      auto ii = instances_.find(seq);
      if (ii != instances_.end() && ii->second.committed) {
        value = &ii->second.value;
        digest = &ii->second.digest;
      }
    }
    if (value != nullptr && !value->empty()) admission_(*value, digest);
  }
}

void PbftReplica::MaybeProposeNext() {
  if (!IsLeader() || in_view_change_) return;
  if (next_seq_ <= last_executed_) next_seq_ = last_executed_ + 1;
  while (!pending_requests_.empty()) {
    // Sliding window: at most `window` proposed-but-unexecuted instances,
    // and never beyond the high watermark (checkpoint lag bound).
    uint64_t outstanding = (next_seq_ - 1) - last_executed_;
    if (outstanding >= EffectiveWindow() || next_seq_ > HighWatermark()) {
      // Count stall *episodes*, not pump invocations: this path re-enters
      // on every request arrival and execution while the same stall
      // persists, and ticking the counter each time made it meaningless
      // as a back-pressure signal. The episode closes below as soon as
      // any proposal is admitted (partial drain included).
      if (!window_stalled_) {
        window_stalled_ = true;
        pipeline_stats().pbft_window_stalls++;
      }
      return;
    }
    window_stalled_ = false;
    PendingRequest pending = std::move(pending_requests_.front());
    RequestMsg& request = pending.request;
    pending_requests_.pop_front();
    // An honest leader does not propose values its admission check rejects
    // (e.g. a receive that another node already committed); proposing them
    // would stall the group into a needless view change. With window > 1
    // the check runs against the projected state (DESIGN.md §9).
    // Hashed once here; admission and the pre-prepare share the digest.
    const Digest digest = ComputeDigest(request.value);
    if (!AdmitValue(request.value, &digest)) {
      pipeline_stats().pbft_admission_rejects++;
      continue;
    }
    Propose(request.client_token, request.req_id, std::move(request.value),
            digest, pending.trace_id, pending.enqueued);
  }
  // Queue drained: whatever stall was open is over (the window has room).
  window_stalled_ = false;
}

void PbftReplica::Propose(uint64_t client_token, uint64_t req_id,
                          Bytes value, const Digest& digest,
                          uint64_t trace_id, sim::SimTime enqueued) {
  uint64_t seq = next_seq_++;
  PipelineStats& ps = pipeline_stats();
  ps.pbft_proposals++;
  int64_t inflight = static_cast<int64_t>((next_seq_ - 1) - last_executed_);
  ps.pbft_inflight_peak = std::max(ps.pbft_inflight_peak, inflight);
  Tracer& tr = tracer();
  if (tr.enabled() && trace_id != 0 && enqueued != 0 &&
      sim_->Now() > enqueued) {
    // Queue-wait vs in-flight: how long the request sat behind a full
    // proposal window before its pre-prepare went out.
    tr.Span(trace_id, "queue_wait", "pipeline", enqueued, sim_->Now(),
            self_.site, self_.index, seq);
  }

  PrePrepareMsg pp;
  pp.view = view_;
  pp.seq = seq;
  pp.digest = digest;
  pp.client_token = client_token;
  pp.req_id = req_id;
  pp.value = std::move(value);
  pp.sig = Sign(pp.CanonicalHeader());

  Instance& instance = instances_[seq];
  instance.view = view_;
  instance.digest = pp.digest;
  instance.has_preprepare = true;
  instance.preprepare_sig = pp.sig;
  instance.value = pp.value;
  instance.client_token = client_token;
  instance.req_id = req_id;
  instance.trace_id = trace_id;
  instance.ts_started = sim_->Now();
  ArmProgressTimer(seq, instance);

  if (byzantine_ == ByzantineMode::kEquivocate) {
    // Send a different value (hence digest) to each half of the replicas.
    int parity = 0;
    for (const net::NodeId& node : config_.nodes) {
      if (node == self_) continue;
      PrePrepareMsg forged = pp;
      if (parity++ % 2 == 1) {
        forged.value.push_back(0xEE);
        forged.digest = ComputeDigest(forged.value);
        forged.sig = Sign(forged.CanonicalHeader());
      }
      SendTo(node, kPrePrepare, forged.Encode(), trace_id);
    }
    return;
  }
  Broadcast(kPrePrepare, pp.Encode(), trace_id);
}

// --- three-phase protocol -----------------------------------------------------

bool PbftReplica::OnPrePrepare(const net::Message& msg) {
  PrePrepareMsg pp;
  if (!PrePrepareMsg::Decode(msg.body(), &pp).ok()) return false;
  if (msg.src != config_.LeaderOf(pp.view)) return false;
  if (pp.sig.signer != msg.src) return false;
  if (ComputeDigest(pp.value) != pp.digest) return false;
  if (!VerifySig(pp.CanonicalHeader(), pp.sig)) return false;
  OnPrePrepareVerified(std::move(pp), msg.trace_id);
  return true;
}

void PbftReplica::OnPrePrepareVerified(PrePrepareMsg pp, uint64_t trace_id) {
  if (pp.view != view_ || in_view_change_) return;
  if (pp.seq <= last_stable_) return;
  // Flood protection: reject sequence numbers far beyond our high
  // watermark (lax by 2x so an honest leader whose stable checkpoint runs
  // ahead of ours is never rejected — checkpoint certificates travel on
  // the same reliable links as pre-prepares).
  if (pp.seq > HighWatermark() + (HighWatermark() - last_stable_)) return;

  // After a view change, carried-over sequence numbers must match the
  // digest recomputed from the view-change set.
  auto expected = expected_digests_.find(pp.seq);
  if (expected != expected_digests_.end() && expected->second != pp.digest) {
    return;
  }

  Instance& instance = instances_[pp.seq];
  if (instance.has_preprepare) {
    // Accept only an identical re-transmission for this view.
    if (instance.view == pp.view && instance.digest != pp.digest) {
      // Equivocation evidence: same (view, seq), different digest.
      StartViewChange(view_ + 1);
    }
    return;
  }
  instance.view = pp.view;
  instance.digest = pp.digest;
  instance.has_preprepare = true;
  instance.preprepare_sig = pp.sig;
  instance.value = std::move(pp.value);
  instance.client_token = pp.client_token;
  instance.req_id = pp.req_id;
  if (instance.trace_id == 0) instance.trace_id = trace_id;
  if (instance.ts_started == 0) instance.ts_started = sim_->Now();
  ArmProgressTimer(pp.seq, instance);

  // Broadcast our prepare vote.
  VoteMsg prepare;
  prepare.type = kPrepare;
  prepare.view = pp.view;
  prepare.seq = pp.seq;
  prepare.digest = instance.digest;
  if (byzantine_ == ByzantineMode::kBogusVotes) {
    prepare.digest[0] ^= 0xff;
  }
  prepare.sig = SignVote(prepare);
  instance.sent_prepare = true;
  instance.prepares[index_] = {prepare.digest, prepare.sig};  // own vote
  Broadcast(kPrepare, prepare.Encode(), instance.trace_id);
  MaybePrepared(pp.seq, instance);
}

bool PbftReplica::OnVote(const net::Message& msg) {
  // Decode, membership, leaders-don't-prepare, and the MAC over the
  // canonical body, built on the stack and verified detached, with no
  // cache probe (DESIGN.md §7).
  VoteMsg vote;
  const PbftMessageType type = msg.type == kPrepare ? kPrepare : kCommit;
  if (!VoteMsg::Decode(type, msg.body(), &vote).ok()) return false;
  const int sender = config_.ReplicaIndex(msg.src);
  if (sender < 0) return false;
  if (type == kPrepare && msg.src == config_.LeaderOf(vote.view)) {
    return false;  // leaders don't prepare
  }
  if (vote.sig.signer != msg.src) return false;
  if (config_.sign_messages) {
    const VoteMsg::CanonicalBytes body = vote.CanonicalBody();
    if (!keys_->VerifyDetached(body.data(), body.size(), vote.sig)) {
      return false;
    }
    hotpath_stats().hmac_precomputed_ops++;
    hotpath_stats().encodes_elided++;
  }
  OnVoteVerified(vote, sender, msg.trace_id);
  return true;
}

void PbftReplica::OnVoteVerified(const VoteMsg& vote, int sender,
                                 uint64_t trace_id) {
  if (vote.view != view_ || in_view_change_) return;
  if (vote.seq <= last_stable_) return;

  Instance& instance = instances_[vote.seq];
  if (instance.trace_id == 0) instance.trace_id = trace_id;
  if (vote.type == kPrepare) {
    if (!instance.has_preprepare) instance.view = vote.view;
    // Buffered early votes carry their digest; only matching ones count.
    instance.prepares.emplace(sender,
                              Instance::Vote{vote.digest, vote.sig});
    ArmProgressTimer(vote.seq, instance);
    MaybePrepared(vote.seq, instance);
    return;
  }
  instance.commit_view = vote.view;
  instance.commits[sender] = {vote.digest, vote.sig};
  MaybeCommitted(vote.seq, instance);
}

void PbftReplica::MaybePrepared(uint64_t seq, Instance& instance) {
  if (instance.prepared || !instance.has_preprepare) return;
  // Prepared = pre-prepare + 2f matching prepares from distinct backups.
  if (CountMatching(instance.prepares, instance.digest) < 2 * config_.f) {
    return;
  }
  instance.prepared = true;
  instance.ts_prepared = sim_->Now();

  // Blockplane §IV-B: run the verification routine before the commit vote.
  if (!RunVerifier(instance.value, &instance.digest)) {
    // The routine may merely be ahead of our state (e.g. it checks a chain
    // pointer whose predecessor has not executed here yet); retry after
    // each execution instead of voting now.
    instance.verify_pending = true;
    verify_pending_.insert(seq);
    BP_LOG(kInfo) << self_.ToString() << " verification rejected seq " << seq;
    return;  // withhold the commit-phase vote for now
  }
  SendCommitVote(seq);
}

void PbftReplica::SendCommitVote(uint64_t seq) {
  auto it = instances_.find(seq);
  if (it == instances_.end() || it->second.sent_commit) return;
  Instance& instance = it->second;
  instance.verify_pending = false;
  verify_pending_.erase(seq);
  VoteMsg commit;
  commit.type = kCommit;
  commit.view = instance.view;
  commit.seq = seq;
  commit.digest = instance.digest;
  if (byzantine_ == ByzantineMode::kBogusVotes) {
    commit.digest[1] ^= 0xff;
  }
  commit.sig = SignVote(commit);
  instance.sent_commit = true;
  instance.commit_view = instance.view;
  instance.commits[index_] = {instance.digest, commit.sig};
  Broadcast(kCommit, commit.Encode(), instance.trace_id);
  MaybeCommitted(seq, instance);
}

void PbftReplica::RetryPendingVerifications() {
  if (verify_pending_.empty()) return;
  std::vector<uint64_t> ready;
  for (auto it = verify_pending_.begin(); it != verify_pending_.end();) {
    auto inst = instances_.find(*it);
    if (inst == instances_.end() || !inst->second.verify_pending) {
      it = verify_pending_.erase(it);  // dropped or re-created since
      continue;
    }
    Instance& instance = inst->second;
    if (instance.prepared && !instance.sent_commit &&
        RunVerifier(instance.value, &instance.digest)) {
      ready.push_back(*it);
    }
    ++it;
  }
  for (uint64_t seq : ready) SendCommitVote(seq);
}

void PbftReplica::MaybeCommitted(uint64_t seq, Instance& instance) {
  if (instance.committed || !instance.prepared) return;
  if (CountMatching(instance.commits, instance.digest) < config_.quorum()) {
    return;
  }
  instance.committed = true;
  instance.ts_committed = sim_->Now();
  if (seq != last_executed_ + 1) {
    // Certificate completed out of sequence order; execution will hold it
    // until every earlier instance commits (in-order delivery).
    pipeline_stats().pbft_ooo_commits++;
  }
  CancelProgressTimer(&instance);
  ExecuteReady();
}

void PbftReplica::ExecuteReady() {
  while (true) {
    auto it = instances_.find(last_executed_ + 1);
    if (it == instances_.end() || !it->second.committed) break;
    Instance& instance = it->second;
    uint64_t seq = last_executed_ + 1;
    // Every path that fills an instance computed or checked its digest
    // (propose, pre-prepare, committed-entry fetch, view-change carry-over),
    // so the execute callback takes it instead of hashing the value again.
    BP_DCHECK(instance.digest == ComputeDigest(instance.value));

    bool is_noop = instance.client_token == 0 && instance.value.empty();
    bool duplicate =
        !is_noop &&
        executed_reqs_[instance.client_token].count(instance.req_id) > 0;

    if (!is_noop && !duplicate) {
      executed_reqs_[instance.client_token].insert(instance.req_id);
      executed_log_[seq] = instance.value;
      // Chain the state digest (cheap: fixed 64-byte input).
      Encoder chain;
      chain.PutRaw(state_digest_.data(), state_digest_.size());
      chain.PutRaw(instance.digest.data(), instance.digest.size());
      state_digest_ = crypto::Sha256Digest(chain.buffer());
      if (execute_) execute_(seq, instance.value, instance.digest);
      Tracer& tr = tracer();
      if (tr.enabled() && instance.trace_id != 0) {
        // Per-replica phase spans: how long this instance spent reaching
        // the prepared and committed points, plus an execution instant.
        if (instance.ts_prepared >= instance.ts_started) {
          tr.Span(instance.trace_id, "prepare", "pbft", instance.ts_started,
                  instance.ts_prepared, self_.site, self_.index, seq);
        }
        if (instance.ts_committed >= instance.ts_prepared &&
            instance.ts_prepared > 0) {
          tr.Span(instance.trace_id, "commit", "pbft", instance.ts_prepared,
                  instance.ts_committed, self_.site, self_.index, seq);
        }
        tr.Instant(instance.trace_id, "execute", "pbft", sim_->Now(),
                   self_.site, self_.index, seq);
      }
      SendReply(instance, seq);
      if (config_.on_commit_latency) {
        // Every executed instance grows the adaptive proposal window on
        // every replica — a backup that never grew would hand its next
        // leadership term a stale, collapsed window. Only the leader of
        // the proposing view reports a propose-to-execute latency sample
        // (an instance inherited across a view change mixes two leaders'
        // clocks — the congestion controller's Karn rule); backups report
        // 0, meaning "count the ack, skip the sample".
        bool clean = IsLeader() && instance.view == view_ &&
                     instance.ts_started > 0;
        config_.on_commit_latency(
            clean ? sim_->Now() - instance.ts_started : 0);
      }
    }

    auto wit =
        watched_requests_.find({instance.client_token, instance.req_id});
    if (wit != watched_requests_.end()) {
      sim_->Cancel(wit->second.timer);
      watched_requests_.erase(wit);
    }
    expected_digests_.erase(seq);
    ++last_executed_;

    if (last_executed_ % config_.checkpoint_interval == 0) {
      TakeCheckpoint(last_executed_);
    }
  }
  RetryPendingVerifications();
  MaybeAbandonViewChange();
  MaybeProposeNext();
}

void PbftReplica::MaybeAbandonViewChange() {
  // If execution progressed while we alone demand a new view, we were
  // merely lagging (now caught up), not facing a faulty leader. Resuming
  // normal operation is safe: our view-change message is just a vote that
  // others may still use.
  if (!in_view_change_) return;
  auto votes = view_changes_.find(target_view_);
  int supporters =
      votes == view_changes_.end() ? 0 : static_cast<int>(votes->second.size());
  if (supporters > config_.f) return;  // a real view change is brewing
  in_view_change_ = false;
  target_view_ = view_;
  viewchange_attempts_ = 0;
  sim_->Cancel(view_change_timer_);
  view_change_timer_ = sim::kInvalidEventId;
}

void PbftReplica::SendReply(const Instance& instance, uint64_t seq) {
  if (instance.client_token == 0) return;
  ReplyMsg reply;
  reply.view = view_;
  reply.req_id = instance.req_id;
  reply.seq = seq;
  reply.replica = index_;
  // The rolling state digest after executing `seq` (chained just before
  // this call). Honest replicas agree on it; it is what makes the client's
  // f+1 "matching" replies actually match — see ReplyMsg::result_digest.
  reply.result_digest = state_digest_;
  Bytes encoded = reply.Encode();
  auto& cache = cached_replies_[instance.client_token];
  cache[instance.req_id] = encoded;
  if (cache.size() > 128) cache.erase(cache.begin());
  SendTo(ClientFromToken(instance.client_token), kReply, std::move(encoded),
         instance.trace_id);
}

// --- state transfer / catch-up -------------------------------------------------

void PbftReplica::CatchUp() {
  FetchCommittedMsg fetch;
  fetch.from_seq = last_executed_ + 1;
  Broadcast(kFetchCommitted, fetch.Encode());
}

void PbftReplica::OnFetchCommitted(const net::Message& msg) {
  FetchCommittedMsg fetch;
  if (!FetchCommittedMsg::Decode(msg.body(), &fetch).ok()) return;
  if (config_.ReplicaIndex(msg.src) < 0) return;
  // Answer with a bounded range of committed entries we still hold.
  constexpr uint64_t kMaxEntries = 32;
  uint64_t sent = 0;
  for (auto it = instances_.lower_bound(fetch.from_seq);
       it != instances_.end() && sent < kMaxEntries; ++it) {
    const Instance& instance = it->second;
    if (!instance.committed) continue;
    CommittedEntryMsg entry;
    entry.seq = it->first;
    entry.view = instance.commit_view;
    entry.digest = instance.digest;
    entry.client_token = instance.client_token;
    entry.req_id = instance.req_id;
    entry.value = instance.value;
    for (const auto& [idx, vote] : instance.commits) {
      if (vote.digest == instance.digest) {
        entry.commit_sigs.push_back(vote.sig);
      }
    }
    SendTo(msg.src, kCommittedEntry, entry.Encode());
    ++sent;
  }
}

void PbftReplica::OnCommittedEntry(const net::Message& msg) {
  CommittedEntryMsg entry;
  if (!CommittedEntryMsg::Decode(msg.body(), &entry).ok()) return;
  if (config_.ReplicaIndex(msg.src) < 0) return;
  if (entry.seq <= last_executed_ || entry.seq <= last_stable_) return;
  auto existing = instances_.find(entry.seq);
  if (existing != instances_.end() && existing->second.committed) return;

  if (ComputeDigest(entry.value) != entry.digest) return;
  if (config_.sign_messages) {
    // The certificate must hold 2f+1 distinct valid commit votes.
    VoteMsg commit;
    commit.type = kCommit;
    commit.view = entry.view;
    commit.seq = entry.seq;
    commit.digest = entry.digest;
    const VoteMsg::CanonicalBytes body = commit.CanonicalBody();
    if (ValidSigners(Bytes(body.begin(), body.end()), entry.commit_sigs) <
        config_.quorum()) {
      return;
    }
  }

  Instance& instance = instances_[entry.seq];
  CancelProgressTimer(&instance);
  instance.view = entry.view;
  instance.digest = entry.digest;
  instance.value = std::move(entry.value);
  instance.client_token = entry.client_token;
  instance.req_id = entry.req_id;
  instance.has_preprepare = true;
  instance.prepared = true;
  instance.committed = true;
  instance.commit_view = entry.view;
  ExecuteReady();
}

void PbftReplica::RequestSnapshot() {
  Broadcast(kFetchSnapshot, Bytes{});
}

void PbftReplica::OnFetchSnapshot(const net::Message& msg) {
  if (config_.ReplicaIndex(msg.src) < 0) return;
  if (stable_snapshot_.seq == 0) return;  // no stable checkpoint yet
  SendTo(msg.src, kSnapshot, stable_snapshot_.Encode());
}

void PbftReplica::OnSnapshot(const net::Message& msg) {
  if (config_.ReplicaIndex(msg.src) < 0) return;
  SnapshotMsg snapshot;
  if (!SnapshotMsg::Decode(msg.body(), &snapshot).ok()) return;
  if (snapshot.seq <= last_executed_) return;
  if (config_.sign_messages) {
    // The certificate must hold 2f+1 distinct valid checkpoint votes.
    CheckpointMsg cp;
    cp.seq = snapshot.seq;
    cp.state_digest = snapshot.state_digest;
    if (ValidSigners(cp.CanonicalBody(), snapshot.cert) < config_.quorum()) {
      return;
    }
  }
  if (snapshot_callback_) {
    // The application fetches + verifies the log contents, then installs.
    snapshot_callback_(snapshot);
    return;
  }
  InstallCheckpoint(snapshot.seq, snapshot.state_digest);
  CatchUp();
}

void PbftReplica::InstallCheckpoint(uint64_t seq, const Digest& digest) {
  if (seq <= last_executed_) return;
  last_executed_ = seq;
  last_stable_ = std::max(last_stable_, seq);
  state_digest_ = digest;
  for (auto it = instances_.begin();
       it != instances_.end() && it->first <= seq;) {
    CancelProgressTimer(&it->second);
    it = instances_.erase(it);
  }
  executed_log_.erase(executed_log_.begin(),
                      executed_log_.upper_bound(seq));
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.upper_bound(seq));
  // The fast-forward may have skipped values the admission projection
  // counted (or never saw); re-base it on the new applied state.
  if (IsLeader()) RebuildAdmissionProjection({});
  ExecuteReady();
}

// --- checkpoints --------------------------------------------------------------

void PbftReplica::TakeCheckpoint(uint64_t seq) {
  CheckpointMsg cp;
  cp.seq = seq;
  cp.state_digest = state_digest_;
  cp.sig = Sign(cp.CanonicalBody());
  checkpoint_votes_[seq][cp.state_digest][index_] = cp.sig;
  Broadcast(kCheckpoint, cp.Encode());
}

void PbftReplica::OnCheckpoint(const net::Message& msg) {
  CheckpointMsg cp;
  if (!CheckpointMsg::Decode(msg.body(), &cp).ok()) return;
  int sender = config_.ReplicaIndex(msg.src);
  if (sender < 0) return;
  if (!VerifySig(cp.CanonicalBody(), cp.sig) || cp.sig.signer != msg.src) {
    return;
  }
  if (cp.seq <= last_stable_) return;
  auto& votes = checkpoint_votes_[cp.seq][cp.state_digest];
  votes[sender] = cp.sig;
  if (static_cast<int>(votes.size()) < config_.quorum()) return;

  // Keep the certificate: it lets far-behind replicas verify snapshots.
  stable_snapshot_.seq = cp.seq;
  stable_snapshot_.state_digest = cp.state_digest;
  stable_snapshot_.cert.clear();
  for (auto& [index, sig] : votes) stable_snapshot_.cert.push_back(sig);

  // Stable: truncate everything at or below the checkpoint.
  last_stable_ = cp.seq;
  instances_.erase(instances_.begin(), instances_.upper_bound(cp.seq));
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.upper_bound(cp.seq));
  executed_log_.erase(executed_log_.begin(),
                      executed_log_.upper_bound(cp.seq));
}

// --- view changes --------------------------------------------------------------

void PbftReplica::ArmProgressTimer(uint64_t seq, Instance& instance) {
  if (instance.progress_timer != sim::kInvalidEventId) return;
  instance.progress_timer = sim_->Schedule(config_.view_timeout, [this, seq]() {
    auto it = instances_.find(seq);
    if (it == instances_.end() || it->second.committed) return;
    it->second.progress_timer = sim::kInvalidEventId;
    BP_LOG(kDebug) << self_.ToString() << " progress timeout on seq " << seq;
    // We may simply have fallen behind a quorum that committed without us;
    // ask for the decided entries before demanding a new leader.
    CatchUp();
    StartViewChange(view_ + 1);
  });
}

void PbftReplica::CancelProgressTimer(Instance* instance) {
  if (instance->progress_timer != sim::kInvalidEventId) {
    sim_->Cancel(instance->progress_timer);
    instance->progress_timer = sim::kInvalidEventId;
  }
}

void PbftReplica::StartViewChange(uint64_t new_view) {
  if (new_view <= view_) return;
  if (in_view_change_ && target_view_ >= new_view) return;
  in_view_change_ = true;
  target_view_ = new_view;
  BP_LOG(kInfo) << self_.ToString() << " view change -> " << new_view;

  ViewChangeMsg vc;
  vc.new_view = new_view;
  vc.last_stable = last_stable_;
  for (auto& [seq, instance] : instances_) {
    if (!instance.prepared || seq <= last_stable_) continue;
    PreparedProof proof;
    proof.view = instance.view;
    proof.seq = seq;
    proof.digest = instance.digest;
    proof.client_token = instance.client_token;
    proof.req_id = instance.req_id;
    proof.value = instance.value;
    proof.preprepare_sig = instance.preprepare_sig;
    for (auto& [idx, vote] : instance.prepares) {
      if (vote.digest == instance.digest) {
        proof.prepare_sigs.push_back(vote.sig);
      }
    }
    vc.prepared.push_back(std::move(proof));
  }
  vc.sig = Sign(vc.CanonicalBody());

  Bytes encoded = vc.Encode();
  // Record our own view-change vote, then broadcast.
  view_changes_[new_view][index_] = vc;
  Broadcast(kViewChange, encoded);
  MaybeSendNewView(new_view);

  // Escalate if the new view does not start in time — with capped
  // exponential backoff plus jitter. A flat 2 * view_timeout retry lets
  // every replica's escalation fire in lock-step under a partition; the
  // repeated synchronized broadcasts then become a retry storm exactly when
  // the network is least able to absorb one. Each consecutive failed
  // attempt doubles the delay (up to view_backoff_cap), and per-replica
  // jitter decorrelates the herd (DESIGN.md §10).
  sim::SimTime delay = 2 * config_.view_timeout;
  uint64_t shift = std::min<uint64_t>(viewchange_attempts_, 16);
  if (shift > 0 && delay < config_.view_backoff_cap) {
    // Saturating left-shift: never overflows, never exceeds the cap.
    for (uint64_t i = 0; i < shift && delay < config_.view_backoff_cap; ++i) {
      delay *= 2;
    }
  }
  delay = std::min(delay, config_.view_backoff_cap);
  if (config_.view_backoff_jitter_permille > 0) {
    // Uniform in [0, jitter_permille/1000 * delay], all-integer so the
    // schedule replays bit-identically (BP005: no FP in consensus paths).
    const uint64_t span = static_cast<uint64_t>(delay) *
                          config_.view_backoff_jitter_permille / 1000;
    delay += static_cast<sim::SimTime>(backoff_rng_.NextBelow(span + 1));
  }
  ++viewchange_attempts_;
  RobustnessStats& rs = robustness_stats();
  rs.viewchange_attempts++;
  rs.viewchange_backoff_ms += static_cast<int64_t>(sim::ToMillis(delay));
  sim_->Cancel(view_change_timer_);
  view_change_timer_ = sim_->Schedule(delay, [this, new_view]() {
    if (view_ >= new_view) return;
    StartViewChange(target_view_ + 1);
  });
}

void PbftReplica::OnViewChange(const net::Message& msg) {
  ViewChangeMsg vc;
  if (!ViewChangeMsg::Decode(msg.body(), &vc).ok()) return;
  int sender = config_.ReplicaIndex(msg.src);
  if (sender < 0) return;
  if (!VerifySig(vc.CanonicalBody(), vc.sig) || vc.sig.signer != msg.src) {
    return;
  }
  if (vc.new_view <= view_) return;

  uint64_t new_view = vc.new_view;
  auto& votes = view_changes_[new_view];
  votes[sender] = std::move(vc);

  // Join the view change once f+1 replicas demand it (they cannot all be
  // wrong: at least one is honest).
  if (static_cast<int>(votes.size()) >= config_.f + 1 &&
      (!in_view_change_ || target_view_ < new_view)) {
    StartViewChange(new_view);
  }
  MaybeSendNewView(new_view);
}

void PbftReplica::MaybeSendNewView(uint64_t v) {
  if (v == 0 || v <= view_) return;
  if (config_.LeaderOf(v) != self_) return;
  auto it = view_changes_.find(v);
  if (it == view_changes_.end()) return;
  if (static_cast<int>(it->second.size()) < config_.quorum()) return;

  NewViewMsg nv;
  nv.view = v;
  std::vector<ViewChangeMsg> vcs;
  for (auto& [idx, vc] : it->second) {
    nv.view_changes.push_back(vc.Encode());
    vcs.push_back(vc);
    if (static_cast<int>(vcs.size()) == config_.quorum()) break;
  }
  nv.sig = Sign(nv.CanonicalBody());
  Broadcast(kNewView, nv.Encode());
  EnterView(v, vcs);
}

bool PbftReplica::ValidatePreparedProof(const PreparedProof& proof) const {
  // Checked in every mode: the carried digest reaches the execute
  // callback unrecomputed.
  if (ComputeDigest(proof.value) != proof.digest) return false;
  if (!config_.sign_messages) return true;
  // The pre-prepare must be signed by the leader of the view it cites.
  PrePrepareMsg pp;
  pp.view = proof.view;
  pp.seq = proof.seq;
  pp.digest = proof.digest;
  pp.client_token = proof.client_token;
  pp.req_id = proof.req_id;
  if (proof.preprepare_sig.signer != config_.LeaderOf(proof.view)) {
    return false;
  }
  if (!keys_->Verify(pp.CanonicalHeader(), proof.preprepare_sig)) return false;

  // 2f distinct valid backup prepares over the canonical vote body.
  VoteMsg vote;
  vote.type = kPrepare;
  vote.view = proof.view;
  vote.seq = proof.seq;
  vote.digest = proof.digest;
  const VoteMsg::CanonicalBytes body = vote.CanonicalBody();
  return ValidSigners(Bytes(body.begin(), body.end()), proof.prepare_sigs,
                      config_.LeaderOf(proof.view)) >= 2 * config_.f;
}

void PbftReplica::OnNewView(const net::Message& msg) {
  NewViewMsg nv;
  if (!NewViewMsg::Decode(msg.body(), &nv).ok()) return;
  if (nv.view <= view_) return;
  if (msg.src != config_.LeaderOf(nv.view)) return;
  if (!VerifySig(nv.CanonicalBody(), nv.sig) || nv.sig.signer != msg.src) {
    return;
  }

  // Validate the embedded view-change set: 2f+1 distinct, properly signed,
  // all targeting this view.
  std::vector<ViewChangeMsg> vcs;
  std::set<int32_t> senders;
  for (const Bytes& encoded : nv.view_changes) {
    ViewChangeMsg vc;
    if (!ViewChangeMsg::Decode(encoded, &vc).ok()) return;
    if (vc.new_view != nv.view) return;
    int sender = config_.ReplicaIndex(vc.sig.signer);
    if (sender < 0) return;
    if (!VerifySig(vc.CanonicalBody(), vc.sig)) return;
    if (!senders.insert(sender).second) return;
    vcs.push_back(std::move(vc));
  }
  if (static_cast<int>(vcs.size()) < config_.quorum()) return;

  EnterView(nv.view, vcs);
}

void PbftReplica::EnterView(uint64_t v, const std::vector<ViewChangeMsg>& vcs) {
  if (v <= view_) return;

  // Recompute the carried-over proposals deterministically from the
  // view-change set: for every sequence above the highest stable
  // checkpoint, the valid prepared-certificate from the highest view wins.
  uint64_t stable = last_stable_;
  for (const ViewChangeMsg& vc : vcs) stable = std::max(stable, vc.last_stable);

  std::map<uint64_t, const PreparedProof*> winners;
  for (const ViewChangeMsg& vc : vcs) {
    for (const PreparedProof& proof : vc.prepared) {
      if (proof.seq <= stable) continue;
      if (!ValidatePreparedProof(proof)) continue;
      auto [it, inserted] = winners.emplace(proof.seq, &proof);
      if (!inserted && proof.view > it->second->view) it->second = &proof;
    }
  }
  uint64_t max_seq = winners.empty() ? stable : winners.rbegin()->first;

  view_ = v;
  target_view_ = v;
  in_view_change_ = false;
  viewchange_attempts_ = 0;
  // Churn signal for the adaptive proposal window (DESIGN.md §13): a
  // *completed* view change re-proposes the in-flight tail, so a deep
  // window amplifies the disruption — back off before resuming. Spurious
  // backup escalations that never gather a quorum are not churn; firing on
  // attempts would let 1% message loss collapse the window for nothing.
  if (config_.on_view_change) config_.on_view_change();
  sim_->Cancel(view_change_timer_);
  view_change_timer_ = sim::kInvalidEventId;
  view_changes_.erase(view_changes_.begin(),
                      view_changes_.upper_bound(v));
  BP_LOG(kInfo) << self_.ToString() << " entered view " << v << " (leader "
                << leader().ToString() << ")";

  // Drop in-flight instances from older views; committed ones stay (their
  // values are already decided and will be re-confirmed identically).
  for (auto it = instances_.begin(); it != instances_.end();) {
    Instance& instance = it->second;
    if (!instance.committed && it->first > stable) {
      CancelProgressTimer(&instance);
      it = instances_.erase(it);
    } else {
      ++it;
    }
  }

  expected_digests_.clear();
  std::map<uint64_t, PreparedProof> carryover;
  for (uint64_t seq = stable + 1; seq <= max_seq; ++seq) {
    auto win = winners.find(seq);
    PreparedProof proof;
    if (win != winners.end()) {
      proof = *win->second;
    } else {
      proof.seq = seq;  // gap: fill with a no-op
      proof.value.clear();
      proof.client_token = 0;
      proof.req_id = 0;
      proof.digest = ComputeDigest(proof.value);
    }
    auto inst_it = instances_.find(seq);
    if (inst_it != instances_.end() && inst_it->second.committed) {
      continue;  // already committed locally; nothing to redo
    }
    expected_digests_[seq] = proof.digest;
    carryover.emplace(seq, std::move(proof));
  }

  if (IsLeader()) {
    next_seq_ = std::max(max_seq, last_executed_) + 1;
    assigned_requests_.clear();
    // Re-base the leader-side admission projection: applied state plus
    // every decided-or-carried-but-unexecuted value in seq order. Without
    // this, a retransmitted duplicate of a carried-over request could be
    // admitted again and stall the group on an unverifiable duplicate.
    std::map<uint64_t, const Bytes*> carried_values;
    for (const auto& [seq, proof] : carryover) {
      carried_values[seq] = &proof.value;
      // The carried-over requests are already assigned seqs in this view;
      // retransmissions of them must not be proposed a second time.
      if (proof.client_token != 0 || proof.req_id != 0) {
        assigned_requests_.insert({proof.client_token, proof.req_id});
      }
    }
    RebuildAdmissionProjection(carried_values);
    // Re-issue pre-prepares (in the new view) for every carried-over seq.
    for (auto& [seq, proof] : carryover) {
      PrePrepareMsg pp;
      pp.view = view_;
      pp.seq = seq;
      pp.digest = proof.digest;
      pp.client_token = proof.client_token;
      pp.req_id = proof.req_id;
      pp.value = proof.value;
      pp.sig = Sign(pp.CanonicalHeader());

      Instance& instance = instances_[seq];
      instance.view = view_;
      instance.digest = pp.digest;
      instance.has_preprepare = true;
      instance.preprepare_sig = pp.sig;
      instance.value = pp.value;
      instance.client_token = pp.client_token;
      instance.req_id = pp.req_id;
      instance.prepares.clear();
      instance.commits.clear();
      instance.prepared = false;
      instance.sent_prepare = false;
      instance.sent_commit = false;
      ArmProgressTimer(seq, instance);
      Broadcast(kPrePrepare, pp.Encode());
    }
    MaybeProposeNext();
  } else if (!carryover.empty()) {
    // Backups: watch for the leader's re-issued pre-prepares.
    const uint64_t first = carryover.begin()->first;
    ArmProgressTimer(first, instances_[first]);
  }

  // Give the new view a full timeout to serve the requests we are still
  // watching. Watchdogs armed in the old view would otherwise depose each
  // new leader before the client's (slower) retransmission reaches it, and
  // when the client retry period is close to the view timeout this repeats
  // in every view — a view-change storm that starves the request forever.
  // Re-forwarding from the backups' own stash breaks the synchronization.
  for (auto& [key, watch] : watched_requests_) {
    if (!watch.payload) continue;
    if (IsLeader()) {
      // Broadcast/SendShared deliberately skip self-delivery, so feed the
      // stashed request straight back into our own request path.
      net::Message msg;
      msg.src = self_;
      msg.dst = self_;
      msg.type = kRequest;
      msg.payload = watch.payload;
      msg.trace_id = watch.trace_id;
      OnRequest(msg);
    } else {
      SendShared(leader(), kRequest, watch.payload, watch.trace_id);
    }
    ArmRequestWatchdog(key);
  }
}

}  // namespace blockplane::pbft
