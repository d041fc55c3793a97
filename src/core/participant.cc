#include "core/participant.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/congestion.h"

namespace blockplane::core {

namespace {

constexpr int32_t kClientIndexBase = 1001;
constexpr int32_t kMirrorClientIndexBase = 2000;

/// Starts a causal trace for one API operation: allocates the id (kNoTrace
/// when tracing is disabled — every downstream site then skips its work)
/// and records the "submit" milestone.
TraceId BeginOpTrace(sim::Simulator* sim) {
  Tracer& tr = tracer();
  if (!tr.enabled()) return kNoTrace;
  TraceId trace = tr.NewTrace();
  tr.Mark(trace, "submit", sim->Now());
  return trace;
}

}  // namespace

Participant::Participant(net::Network* network, crypto::KeyStore* keys,
                         BlockplaneOptions options,
                         pbft::PbftConfig unit_group, net::SiteId site,
                         std::vector<net::SiteId> mirror_sites)
    : network_(network),
      sim_(network->simulator()),
      keys_(keys),
      options_(options),
      unit_group_(unit_group),
      site_(site),
      self_(ParticipantNodeId(site)),
      mirror_sites_(std::move(mirror_sites)) {
  signer_ = keys_->RegisterNode(self_);
  unit_group_.sign_messages = options_.sign_messages;
  unit_group_.view_timeout = options_.local_view_timeout;
  unit_group_.client_retry = options_.local_client_retry;
  client_ = std::make_unique<pbft::PbftClient>(
      network_, unit_group_, net::NodeId{site, kClientIndexBase});
  if (options_.congestion.adaptive && options_.fg > 0) {
    // One controller per mirror destination (DESIGN.md §13): the geo-ack
    // round trip toward each mirror feeds its RTT estimate; the effective
    // pipeline window is the minimum across them.
    const CongestionOptions& c = options_.congestion;
    uint64_t initial =
        c.initial_window != 0
            ? c.initial_window
            : std::max<uint64_t>(1, options_.participant_window);
    for (net::SiteId target : mirror_sites_) {
      sim::SimTime prior = network_->topology().Rtt(site_, target) +
                           4 * network_->options().intra_site_one_way;
      geo_ctl_[target] = std::make_unique<WindowController>(
          c, initial, prior,
          "geo_s" + std::to_string(site_) + "_to_s" +
              std::to_string(target));
    }
  }
  network_->Register(self_, this);
}

Participant::~Participant() {
  for (auto& [geo_pos, round] : geo_rounds_) sim_->Cancel(round->retry_timer);
  sim_->Cancel(mirror_op_timer_);
  for (auto& [read_id, pending] : reads_) sim_->Cancel(pending.retry_timer);
  network_->Unregister(self_);
}

void Participant::SendTo(net::NodeId dst, net::MessageType type,
                         Bytes payload) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = type;
  msg.set_body(std::move(payload));
  network_->Send(std::move(msg));
}

// --- API entry points -----------------------------------------------------------

void Participant::LogCommit(Bytes payload, uint64_t routine_id,
                            CommitCallback done) {
  ApiOp op;
  op.record.type = RecordType::kLogCommit;
  op.record.routine_id = routine_id;
  op.record.payload = std::move(payload);
  op.done = std::move(done);
  op.trace = BeginOpTrace(sim_);
  EnqueueOp(std::move(op));
}

void Participant::Send(net::SiteId dest, Bytes payload, uint64_t routine_id,
                       CommitCallback done) {
  BP_CHECK_MSG(dest != site_, "send to self");
  ApiOp op;
  op.record.type = RecordType::kCommunication;
  op.record.routine_id = routine_id;
  op.record.payload = std::move(payload);
  op.record.dest_site = dest;
  op.done = std::move(done);
  op.trace = BeginOpTrace(sim_);
  EnqueueOp(std::move(op));
}

void Participant::MirrorCommit(net::SiteId origin, Bytes payload,
                               uint64_t routine_id, CommitCallback done) {
  BP_CHECK_MSG(mirror_peers_.count(origin) > 0,
               "SetMirrorPeers(origin) required before MirrorCommit");
  ApiOp op;
  op.record.type = RecordType::kLogCommit;  // the inner record R
  op.record.routine_id = routine_id;
  op.record.payload = std::move(payload);
  op.done = std::move(done);
  op.mirror_origin = origin;
  op.trace = BeginOpTrace(sim_);
  EnqueueOp(std::move(op));
}

void Participant::SetMirrorPeers(net::SiteId origin,
                                 std::vector<net::SiteId> peers) {
  mirror_peers_[origin] = std::move(peers);
}

void Participant::EnqueueOp(ApiOp op) {
  if (options_.fg == 0 && op.mirror_origin < 0) {
    // Without geo rounds there is no cross-operation state: submit
    // immediately and let the unit's leader order concurrent requests.
    CommitCallback done = std::move(op.done);
    TraceId trace = op.trace;
    bool is_comm = op.record.type == RecordType::kCommunication;
    client_->Submit(
        op.record.Encode(),
        [this, done = std::move(done), trace, is_comm](uint64_t pos) {
          Tracer& tr = tracer();
          if (tr.enabled() && trace != kNoTrace) {
            sim::SimTime now = sim_->Now();
            tr.Mark(trace, "local_committed", now);
            tr.Mark(trace, "done", now);
            // A communication record's journey continues in the daemons;
            // bind (site, log pos) so they can tag later milestones.
            if (is_comm) tr.BindCommRecord(site_, pos, trace);
          }
          ++commits_completed_;
          if (done) done(pos);
        },
        trace);
    return;
  }
  op.enqueued = sim_->Now();
  ops_.push_back(std::move(op));
  PumpOps();
}

void Participant::PumpOps() {
  while (!ops_.empty()) {
    if (mirror_op_active_) return;  // mirror ops run exclusively
    if (ops_.front().mirror_origin >= 0) {
      // A MirrorCommit reconciles and extends *another* participant's
      // stream; interleaving it with own-stream rounds would entangle two
      // position spaces. Wait for the window to drain, then run it alone.
      if (!inflight_.empty()) return;
      mirror_op_active_ = true;
      InflightOp rec;
      rec.op = std::move(ops_.front());
      ops_.pop_front();
      inflight_.push_back(std::move(rec));
      StartMirrorOp();
      return;
    }
    uint64_t window = std::max<uint64_t>(1, options_.participant_window);
    for (const auto& [target, ctl] : geo_ctl_) {
      window = std::min(window, std::max<uint64_t>(1, ctl->window()));
    }
    if (inflight_.size() >= window) {
      // Stall *episode*: opened once while admission stays blocked by the
      // window, closed by any admission below (partial drains count).
      if (!geo_window_stalled_) {
        geo_window_stalled_ = true;
        ++pipeline_stats().participant_window_stalls;
      }
      return;
    }

    InflightOp rec;
    rec.op = std::move(ops_.front());
    ops_.pop_front();
    geo_window_stalled_ = false;
    if (options_.fg > 0) {
      // Own-stream geo position: assigned at submission so up to `window`
      // rounds can proceed concurrently, each keyed by its position.
      geo_assign_ = std::max(geo_assign_, geo_seq_);
      rec.op.record.geo_pos = ++geo_assign_;
    }
    uint64_t geo_pos = rec.op.record.geo_pos;
    TraceId trace = rec.op.trace;
    sim::SimTime enqueued = rec.op.enqueued;
    Bytes encoded = rec.op.record.Encode();
    inflight_.push_back(std::move(rec));
    PipelineStats& ps = pipeline_stats();
    ps.participant_inflight_peak =
        std::max(ps.participant_inflight_peak,
                 static_cast<int64_t>(inflight_.size()));
    Tracer& tr = tracer();
    if (tr.enabled() && trace != kNoTrace && enqueued != 0 &&
        sim_->Now() > enqueued) {
      // Queue-wait vs in-flight: how long the op sat behind a full window.
      tr.Span(trace, "queue_wait", "pipeline", enqueued, sim_->Now(), site_,
              self_.index, geo_pos);
    }
    client_->Submit(
        std::move(encoded),
        [this, geo_pos](uint64_t pos) { OnLocalCommitted(geo_pos, pos); },
        trace);
  }
}

void Participant::DrainFinished() {
  while (!inflight_.empty() && inflight_.front().finished) {
    InflightOp rec = std::move(inflight_.front());
    inflight_.pop_front();
    ++commits_completed_;
    Tracer& tr = tracer();
    if (tr.enabled() && rec.op.trace != kNoTrace) {
      tr.Mark(rec.op.trace, "done", sim_->Now());
    }
    if (rec.op.done) rec.op.done(rec.result_pos);
  }
}

void Participant::OnLocalCommitted(uint64_t geo_pos, uint64_t unit_pos) {
  for (InflightOp& rec : inflight_) {
    if (rec.op.mirror_origin >= 0 || rec.op.record.geo_pos != geo_pos ||
        rec.finished) {
      continue;
    }
    Tracer& tr = tracer();
    if (tr.enabled() && rec.op.trace != kNoTrace) {
      tr.Mark(rec.op.trace, "local_committed", sim_->Now());
      if (rec.op.record.type == RecordType::kCommunication) {
        tr.BindCommRecord(site_, unit_pos, rec.op.trace);
      }
    }
    StartGeoRound(rec.op, unit_pos);
    return;
  }
}

// --- geo-correlated commits (§V) ---------------------------------------------------

void Participant::StartGeoRound(const ApiOp& op, uint64_t unit_pos) {
  auto owned = std::make_unique<GeoRound>();
  GeoRound& round = *owned;
  round.unit_pos = unit_pos;
  round.geo_pos = op.record.geo_pos;
  round.origin = site_;
  round.record_encoded = op.record.Encode();
  round.digest = crypto::Sha256Digest(round.record_encoded);
  round.targets = mirror_sites_;
  round.is_communication = op.record.type == RecordType::kCommunication;
  round.trace = op.trace;
  round.ts_local = sim_->Now();
  uint64_t geo_pos = round.geo_pos;
  geo_rounds_[geo_pos] = std::move(owned);

  // Collect f_i+1 attestations from the unit, then replicate.
  AttestRequestMsg request;
  request.purpose = AttestPurpose::kGeoSource;
  request.pos = unit_pos;
  Bytes encoded = request.Encode();
  for (const net::NodeId& node : unit_group_.nodes) {
    SendTo(node, kAttestRequest, Bytes(encoded));
  }
  round.retry_timer = sim_->Schedule(
      options_.geo_retry, [this, geo_pos]() { ReplicateRound(geo_pos); });
}

void Participant::OnAttestResponse(const net::Message& msg) {
  if (geo_rounds_.empty()) return;
  AttestResponseMsg response;
  if (!AttestResponseMsg::Decode(msg.body(), &response).ok()) return;
  if (response.purpose != AttestPurpose::kGeoSource) return;
  if (response.sig.signer != msg.src) return;
  // Dispatch to the round this response answers: attest requests carry the
  // unit log position (own-stream rounds) or the geo position (mirror
  // rounds). A late response from a finished round matches nothing.
  GeoRound* found = nullptr;
  for (auto& [key, owned] : geo_rounds_) {
    uint64_t expected = owned->unit_pos != 0 ? owned->unit_pos
                                             : owned->geo_pos;
    if (expected == response.pos) {
      found = owned.get();
      break;
    }
  }
  if (found == nullptr) return;
  GeoRound& round = *found;
  if (static_cast<int>(round.source_sigs.size()) >= options_.fi + 1) return;
  if (options_.sign_messages) {
    Bytes canonical = AttestCanonical(AttestPurpose::kGeoSource, site_,
                                      round.geo_pos, round.digest);
    if (!keys_->Verify(canonical, response.sig)) return;
  }
  for (const crypto::Signature& sig : round.source_sigs) {
    if (sig.signer == response.sig.signer) return;
  }
  round.source_sigs.push_back(response.sig);
  if (static_cast<int>(round.source_sigs.size()) == options_.fi + 1) {
    // Certify the attestations once; every replicate fan-out (including
    // retries) ships this same certificate (DESIGN.md §14).
    round.source_certs = {crypto::BuildQuorumCert(site_, round.source_sigs)};
    qc_stats().certs_built++;
    round.ts_attested = sim_->Now();
    Tracer& tr = tracer();
    if (tr.enabled() && round.trace != kNoTrace) {
      tr.Mark(round.trace, "attested", round.ts_attested);
    }
    ReplicateRound(round.geo_pos);
  }
}

void Participant::ReplicateRound(uint64_t geo_pos) {
  auto it = geo_rounds_.find(geo_pos);
  if (it == geo_rounds_.end()) return;
  GeoRound& round = *it->second;
  sim_->Cancel(round.retry_timer);
  sim::SimTime period = options_.geo_retry;
  if (!geo_ctl_.empty() &&
      static_cast<int>(round.source_sigs.size()) >= options_.fi + 1) {
    // Wire fan-out retries follow the slowest unproven mirror's measured
    // timeout (attestation collection is intra-site and keeps the static
    // knob). Capped at geo_retry: adaptive only ever retries sooner.
    sim::SimTime rto = 0;
    for (net::SiteId target : round.targets) {
      if (round.ack_sigs.count(target) > 0) continue;
      auto ctl = geo_ctl_.find(target);
      if (ctl == geo_ctl_.end()) continue;
      rto = std::max(rto,
                     ctl->second->RetryTimeout(options_.congestion.min_rto,
                                               options_.geo_retry));
    }
    if (rto > 0) period = rto;
  }
  // Progress-deferred retry (adaptive wire phase only): while geo acks
  // are flowing the mirrors are just working through their commit queues;
  // re-entering the send path would mark the round retried for nothing.
  if (!geo_ctl_.empty() && round.replicate_sent != 0 &&
      static_cast<int>(round.source_sigs.size()) >= options_.fi + 1) {
    sim::SimTime deadline =
        std::max(round.last_sent, last_geo_progress_) + period;
    if (sim_->Now() < deadline) {
      round.retry_timer =
          sim_->Schedule(deadline - sim_->Now(),
                         [this, geo_pos]() { ReplicateRound(geo_pos); });
      return;
    }
  }
  round.retry_timer = sim_->Schedule(
      period, [this, geo_pos]() { ReplicateRound(geo_pos); });

  if (static_cast<int>(round.source_sigs.size()) < options_.fi + 1) {
    // Still collecting attestations: re-ask (covers lost responses).
    AttestRequestMsg request;
    request.purpose = AttestPurpose::kGeoSource;
    request.pos = round.unit_pos != 0 ? round.unit_pos : round.geo_pos;
    Bytes encoded = request.Encode();
    if (round.unit_pos != 0) {
      for (const net::NodeId& node : unit_group_.nodes) {
        SendTo(node, kAttestRequest, Bytes(encoded));
      }
    } else {
      for (int i = 0; i < 3 * options_.fi + 1; ++i) {
        SendTo(MirrorNodeId(site_, round.origin, i), kAttestRequest,
               Bytes(encoded));
      }
    }
    return;
  }

  round.last_sent = sim_->Now();
  if (round.replicate_sent == 0) {
    round.replicate_sent = sim_->Now();
  } else {
    // Timer-driven re-send: Karn's rule excludes this round's RTT. Only
    // the oldest outstanding round reports loss — completion callbacks
    // drain in submission order, so a stuck head makes trailing rounds
    // linger even when their mirrors answered promptly.
    round.retried = true;
    if (geo_rounds_.begin()->first == geo_pos) {
      for (net::SiteId target : round.targets) {
        if (round.ack_sigs.count(target) > 0) continue;
        auto ctl = geo_ctl_.find(target);
        if (ctl != geo_ctl_.end()) ctl->second->OnLoss(sim_->Now());
      }
    }
  }

  GeoReplicateMsg replicate;
  replicate.acting_site = site_;
  replicate.geo_pos = round.geo_pos;
  replicate.record = round.record_encoded;
  replicate.certs = round.source_certs;
  Bytes encoded = replicate.Encode();
  for (net::SiteId target : round.targets) {
    if (round.ack_sigs.count(target) > 0) continue;  // already proven
    for (int i = 0; i < options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(target, round.origin, i), kGeoReplicate,
             Bytes(encoded));
    }
  }
}

void Participant::OnGeoAck(const net::Message& msg) {
  GeoAckMsg ack;
  if (!GeoAckMsg::Decode(msg.body(), &ack).ok()) return;
  auto it = geo_rounds_.find(ack.geo_pos);
  if (it == geo_rounds_.end()) return;
  GeoRound& round = *it->second;
  if (ack.sig.signer != msg.src) return;
  net::SiteId target = msg.src.site;
  if (std::find(round.targets.begin(), round.targets.end(), target) ==
      round.targets.end()) {
    return;
  }
  if (round.ack_sigs.count(target) > 0) return;  // site already proven
  last_geo_progress_ = sim_->Now();
  if (options_.sign_messages) {
    Bytes canonical = AttestCanonical(AttestPurpose::kGeoAck, target,
                                      round.geo_pos, round.digest);
    if (!keys_->Verify(canonical, ack.sig)) return;
  }
  auto& nodes = round.ack_nodes[target];
  if (!nodes.insert(msg.src).second) return;
  round.ack_sigs_partial[target].push_back(ack.sig);
  if (static_cast<int>(nodes.size()) < options_.fi + 1) return;

  // f_i+1 nodes of this mirror participant attested: the site holds it.
  round.ack_sigs[target] = round.ack_sigs_partial[target];
  auto ctl = geo_ctl_.find(target);
  if (ctl != geo_ctl_.end()) {
    if (round.replicate_sent != 0 && !round.retried) {
      ctl->second->OnAck(sim_->Now() - round.replicate_sent);
    } else {
      ctl->second->OnAckNoSample();
    }
  }
  int proven = static_cast<int>(round.ack_sigs.size());
  if (proven >= options_.fg) FinishGeoRound(round.geo_pos);
}

void Participant::FinishGeoRound(uint64_t geo_pos) {
  auto it = geo_rounds_.find(geo_pos);
  BP_CHECK(it != geo_rounds_.end());
  GeoRound round = std::move(*it->second);
  geo_rounds_.erase(it);
  sim_->Cancel(round.retry_timer);

  if (round.is_communication) {
    // Hand the mirror proofs to the unit so the communication daemons can
    // attach them to the transmission record (§V).
    GeoProofBundleMsg bundle;
    bundle.pos = round.unit_pos;
    for (auto& [site, sigs] : round.ack_sigs) {
      // One cert per mirror site (DESIGN.md §14).
      bundle.certs.push_back(crypto::BuildQuorumCert(site, sigs));
      qc_stats().certs_built++;
    }
    Bytes encoded = bundle.Encode();
    for (const net::NodeId& node : unit_group_.nodes) {
      SendTo(node, kGeoProofBundle, Bytes(encoded));
    }
  }

  bool is_mirror_round = round.unit_pos == 0;
  if (is_mirror_round) {
    // A mirror-acting commit: remember the stream position so subsequent
    // commits skip the reconciliation round.
    acting_high_[round.origin] = round.geo_pos;
    mirror_op_active_ = false;
  } else {
    geo_seq_ = std::max(geo_seq_, round.geo_pos);
  }
  Tracer& tr = tracer();
  if (tr.enabled() && round.trace != kNoTrace) {
    sim::SimTime now = sim_->Now();
    tr.Mark(round.trace, "mirrored", now);
    // Phase spans on the participant's track: attestation gathering and
    // the WAN mirror round. Together with the PBFT "request" span they
    // decompose the end-to-end commit latency. (The "done" mark is added
    // when the op drains in submission order — same instant at window 1.)
    if (round.ts_attested >= round.ts_local && round.ts_attested > 0) {
      tr.Span(round.trace, "attest", "geo", round.ts_local,
              round.ts_attested, site_, self_.index, round.geo_pos);
      tr.Span(round.trace, "geo_mirror", "geo", round.ts_attested, now,
              site_, self_.index, round.geo_pos);
    }
  }
  // Mark the owning op finished; its callback fires only once every
  // earlier-submitted op finished too (in-order completion).
  for (size_t i = 0; i < inflight_.size(); ++i) {
    InflightOp& rec = inflight_[i];
    bool match = is_mirror_round
                     ? rec.op.mirror_origin >= 0
                     : (rec.op.mirror_origin < 0 &&
                        rec.op.record.geo_pos == round.geo_pos);
    if (!match || rec.finished) continue;
    rec.finished = true;
    rec.result_pos = round.unit_pos != 0 ? round.unit_pos : round.geo_pos;
    if (i > 0) pipeline_stats().participant_ooo_completions++;
    break;
  }
  DrainFinished();
  PumpOps();
}

// --- mirror-acting commits (failover) ------------------------------------------------

void Participant::StartMirrorOp() {
  BP_CHECK(mirror_op_active_ && !inflight_.empty());
  const ApiOp& op = inflight_.front().op;
  // Already acting for this origin: continue the stream directly.
  auto acting = acting_high_.find(op.mirror_origin);
  if (acting != acting_high_.end()) {
    CommitMirrorRecord(op.mirror_origin, acting->second + 1);
    return;
  }
  // Learn the mirror streams' high positions — locally and at every
  // reachable peer mirror — from byzantine quorums.
  mirror_status_.clear();
  mirror_status_origin_ = op.mirror_origin;
  mirror_op_proceeded_ = false;
  RecvStatusQueryMsg query;
  query.src_site = op.mirror_origin;
  Bytes encoded = query.Encode();
  for (int i = 0; i < 3 * options_.fi + 1; ++i) {
    SendTo(MirrorNodeId(site_, op.mirror_origin, i), kRecvStatusQuery,
           Bytes(encoded));
  }
  for (net::SiteId peer : mirror_peers_[op.mirror_origin]) {
    if (peer == site_ || peer == op.mirror_origin) continue;
    for (int i = 0; i < 2 * options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(peer, op.mirror_origin, i), kRecvStatusQuery,
             Bytes(encoded));
    }
  }
  // Dead peers never answer; proceed with whoever responded.
  sim_->Cancel(mirror_op_timer_);
  mirror_op_timer_ =
      sim_->Schedule(options_.geo_retry, [this]() { ProceedMirrorOp(); });
}

namespace {

/// The (threshold)-th largest value of a reply set, i.e. the highest
/// position some group of `threshold` responders jointly attests.
uint64_t AttestedHigh(const std::map<net::NodeId, uint64_t>& replies,
                      int threshold) {
  std::vector<uint64_t> values;
  for (auto& [node, pos] : replies) values.push_back(pos);
  if (static_cast<int>(values.size()) < threshold) return 0;
  std::sort(values.begin(), values.end(), std::greater<>());
  return values[threshold - 1];
}

}  // namespace

void Participant::OnRecvStatusReply(const net::Message& msg) {
  if (mirror_status_origin_ < 0 || !mirror_op_active_) return;
  RecvStatusReplyMsg reply;
  if (!RecvStatusReplyMsg::Decode(msg.body(), &reply).ok()) return;
  if (reply.src_site != mirror_status_origin_) return;
  mirror_status_[msg.src.site][msg.src] = reply.last_pos;
  // Proceed as soon as the local quorum plus every peer quorum answered;
  // the timer covers crashed peers.
  if (static_cast<int>(mirror_status_[site_].size()) < 2 * options_.fi + 1) {
    return;
  }
  for (net::SiteId peer : mirror_peers_[mirror_status_origin_]) {
    if (peer == site_ || peer == mirror_status_origin_) continue;
    auto it = mirror_status_.find(peer);
    if (it == mirror_status_.end() ||
        static_cast<int>(it->second.size()) < 2 * options_.fi + 1) {
      return;
    }
  }
  ProceedMirrorOp();
}

void Participant::ProceedMirrorOp() {
  if (mirror_op_proceeded_ || mirror_status_origin_ < 0) return;
  auto local_it = mirror_status_.find(site_);
  if (local_it == mirror_status_.end() ||
      static_cast<int>(local_it->second.size()) < 2 * options_.fi + 1) {
    // Local replies are mandatory; re-poll shortly.
    sim_->Cancel(mirror_op_timer_);
    mirror_op_timer_ =
        sim_->Schedule(options_.geo_retry, [this]() { StartMirrorOp(); });
    return;
  }
  mirror_op_proceeded_ = true;
  sim_->Cancel(mirror_op_timer_);
  mirror_op_timer_ = sim::kInvalidEventId;

  uint64_t local_high = AttestedHigh(local_it->second, options_.fi + 1);
  uint64_t target_high = local_high;
  net::SiteId ahead_peer = -1;
  for (auto& [peer, replies] : mirror_status_) {
    if (peer == site_) continue;
    uint64_t attested = AttestedHigh(replies, options_.fi + 1);
    if (attested > target_high) {
      target_high = attested;
      ahead_peer = peer;
    }
  }

  if (target_high > local_high && ahead_peer >= 0) {
    // Our mirror is missing entries that committed globally: fetch them
    // from the most advanced peer, replay into the local mirror group,
    // then re-run the status round until caught up.
    BP_LOG(kInfo) << "participant " << site_ << " reconciling mirror of "
                  << mirror_status_origin_ << ": " << local_high << " -> "
                  << target_high;
    MirrorFetchMsg fetch;
    fetch.origin_site = mirror_status_origin_;
    fetch.from_geo_pos = local_high;
    Bytes encoded = fetch.Encode();
    for (int i = 0; i < options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(ahead_peer, mirror_status_origin_, i),
             kMirrorFetch, Bytes(encoded));
    }
    sim_->Cancel(mirror_op_timer_);
    mirror_op_timer_ =
        sim_->Schedule(options_.geo_retry, [this]() { StartMirrorOp(); });
    return;
  }

  CommitMirrorRecord(mirror_status_origin_, target_high + 1);
}

void Participant::OnMirrorEntry(const net::Message& msg) {
  MirrorEntryMsg entry;
  if (!MirrorEntryMsg::Decode(msg.body(), &entry).ok()) return;
  LogRecord outer;
  if (!LogRecord::Decode(entry.record, &outer).ok()) return;
  if (outer.type != RecordType::kMirrored) return;
  // Replay into the local mirror group; verification re-checks the stored
  // proof and the chain position, so a lying peer achieves nothing.
  GeoReplicateMsg replicate;
  replicate.acting_site = outer.src_site;
  replicate.geo_pos = outer.geo_pos;
  replicate.record = std::move(outer.payload);
  replicate.sigs = std::move(outer.proof);
  replicate.certs = std::move(outer.certs);
  Bytes encoded = replicate.Encode();
  for (int i = 0; i < options_.fi + 1; ++i) {
    SendTo(MirrorNodeId(site_, entry.origin_site, i), kGeoReplicate,
           Bytes(encoded));
  }
}

void Participant::CommitMirrorRecord(net::SiteId origin, uint64_t geo_pos) {
  mirror_status_.clear();
  mirror_status_origin_ = -1;

  BP_CHECK(mirror_op_active_ && !inflight_.empty());
  ApiOp& op = inflight_.front().op;
  op.record.geo_pos = geo_pos;
  Bytes inner = op.record.Encode();
  crypto::Digest digest = crypto::Sha256Digest(inner);

  LogRecord outer;
  outer.type = RecordType::kMirrored;
  outer.payload = inner;
  outer.src_site = site_;
  outer.geo_pos = geo_pos;
  outer.proof.push_back(signer_->Sign(
      AttestCanonical(AttestPurpose::kGeoSource, site_, geo_pos, digest)));

  // Commit into the local mirror group, then replicate to the other
  // mirror peers of the failed origin.
  TraceId trace = op.trace;
  MirrorClient(origin)->Submit(
      outer.Encode(),
      [this, origin, geo_pos, inner, digest, trace](uint64_t) {
        Tracer& tr = tracer();
        if (tr.enabled() && trace != kNoTrace) {
          tr.Mark(trace, "local_committed", sim_->Now());
        }
        auto owned = std::make_unique<GeoRound>();
        GeoRound& round = *owned;
        round.unit_pos = 0;
        round.geo_pos = geo_pos;
        round.origin = origin;
        round.record_encoded = inner;
        round.digest = digest;
        round.trace = trace;
        round.ts_local = sim_->Now();
        for (net::SiteId peer : mirror_peers_[origin]) {
          if (peer != site_ && peer != origin) round.targets.push_back(peer);
        }
        // Attestations come from the local mirror group this time.
        AttestRequestMsg request;
        request.purpose = AttestPurpose::kGeoSource;
        request.pos = geo_pos;
        Bytes encoded = request.Encode();
        for (int i = 0; i < 3 * options_.fi + 1; ++i) {
          SendTo(MirrorNodeId(site_, origin, i), kAttestRequest,
                 Bytes(encoded));
        }
        round.retry_timer = sim_->Schedule(
            options_.geo_retry, [this, geo_pos]() { ReplicateRound(geo_pos); });
        geo_rounds_[geo_pos] = std::move(owned);
      },
      trace);
}

pbft::PbftClient* Participant::MirrorClient(net::SiteId origin) {
  auto it = mirror_clients_.find(origin);
  if (it != mirror_clients_.end()) return it->second.get();
  pbft::PbftConfig group;
  group.f = options_.fi;
  for (int i = 0; i < 3 * options_.fi + 1; ++i) {
    group.nodes.push_back(MirrorNodeId(site_, origin, i));
  }
  group.sign_messages = options_.sign_messages;
  group.view_timeout = options_.local_view_timeout;
  group.client_retry = options_.local_client_retry;
  auto client = std::make_unique<pbft::PbftClient>(
      network_, group,
      net::NodeId{site_, kMirrorClientIndexBase + origin});
  return mirror_clients_.emplace(origin, std::move(client))
      .first->second.get();
}

// --- receive ---------------------------------------------------------------------

void Participant::SetReceiveHandler(ReceiveHandler handler) {
  receive_handler_ = std::move(handler);
  // Drain anything already queued.
  for (auto& [src, queue] : receive_queues_) {
    while (!queue.empty() && receive_handler_) {
      Bytes payload = std::move(queue.front());
      queue.pop_front();
      receive_handler_(src, payload);
    }
  }
}

bool Participant::TryReceive(net::SiteId src, Bytes* payload) {
  auto it = receive_queues_.find(src);
  if (it == receive_queues_.end() || it->second.empty()) return false;
  *payload = std::move(it->second.front());
  it->second.pop_front();
  return true;
}

void Participant::OnDeliverNotice(const net::Message& msg) {
  // Only this site's own unit nodes may feed our reception buffers.
  if (msg.src.site != site_ || unit_group_.ReplicaIndex(msg.src) < 0) return;
  DeliverNoticeMsg notice;
  if (!DeliverNoticeMsg::Decode(msg.body(), &notice).ok()) return;
  if (notice.src_log_pos <= delivered_pos_[notice.src_site]) return;

  NoticeKey key{notice.src_site, notice.src_log_pos,
                crypto::Sha256Digest(notice.payload)};
  auto& votes = notice_votes_[key];
  votes.insert(msg.src);
  if (static_cast<int>(votes.size()) != options_.fi + 1) return;

  // f_i+1 nodes delivered identical content: believe it, in source order.
  ready_[notice.src_site][notice.src_log_pos] = {notice.prev_src_log_pos,
                                                 std::move(notice.payload)};
  auto& ready = ready_[notice.src_site];
  uint64_t& delivered = delivered_pos_[notice.src_site];
  while (!ready.empty()) {
    auto first = ready.begin();
    if (first->second.first != delivered) break;  // gap: wait for prev
    Bytes payload = std::move(first->second.second);
    delivered = first->first;
    ready.erase(first);
    Tracer& tr = tracer();
    if (tr.enabled()) {
      // End of a traced send: the source participant bound (site, pos)
      // when the communication record committed locally.
      TraceId t = tr.LookupCommRecord(notice.src_site, delivered);
      if (t != kNoTrace) {
        sim::SimTime now = sim_->Now();
        tr.Mark(t, "delivered", now);
        tr.Instant(t, "deliver", "geo", now, site_, self_.index, delivered);
      }
    }
    if (receive_handler_) {
      receive_handler_(notice.src_site, payload);
    } else {
      receive_queues_[notice.src_site].push_back(std::move(payload));
    }
  }
}

// --- read (§VI-A) -------------------------------------------------------------------

void Participant::Read(uint64_t pos, ReadStrategy strategy, ReadCallback done) {
  if (strategy == ReadStrategy::kLinearizable) {
    // Strongest strategy: order the read itself in the log, then serve it
    // with a quorum read at that point.
    LogCommit(ToBytes("linearizable-read-marker"), 0,
              [this, pos, done = std::move(done)](uint64_t) mutable {
                Read(pos, ReadStrategy::kReadQuorum, std::move(done));
              });
    return;
  }
  uint64_t read_id = next_read_id_++;
  PendingRead& pending = reads_[read_id];
  pending.pos = pos;
  pending.strategy = strategy;
  pending.done = std::move(done);

  ReadRequestMsg request;
  request.read_id = read_id;
  request.pos = pos;
  Bytes encoded = request.Encode();
  if (strategy == ReadStrategy::kReadOne) {
    // Served from the closest node; if it is down or slow, widen to the
    // whole unit after a grace period (the first response still wins).
    SendTo(unit_group_.nodes[0], kReadRequest, Bytes(encoded));
    pending.retry_timer = sim_->Schedule(
        2 * options_.local_client_retry,
        [this, read_id, encoded = std::move(encoded)]() {
          auto it = reads_.find(read_id);
          if (it == reads_.end()) return;
          it->second.retry_timer = sim::kInvalidEventId;
          for (const net::NodeId& node : unit_group_.nodes) {
            SendTo(node, kReadRequest, Bytes(encoded));
          }
        });
  } else {
    for (const net::NodeId& node : unit_group_.nodes) {
      SendTo(node, kReadRequest, Bytes(encoded));
    }
  }
}

void Participant::OnReadReply(const net::Message& msg) {
  ReadReplyMsg reply;
  if (!ReadReplyMsg::Decode(msg.body(), &reply).ok()) return;
  auto it = reads_.find(reply.read_id);
  if (it == reads_.end()) return;
  if (msg.src.site != site_ || unit_group_.ReplicaIndex(msg.src) < 0) return;
  PendingRead& pending = it->second;

  LogRecord record;
  if (reply.found) {
    if (!LogRecord::Decode(reply.record, &record).ok()) return;
    // Replies are compared, never hashed (DESIGN.md §7.5).
    hotpath_stats().digests_elided++;
  }
  if (pending.strategy != ReadStrategy::kReadOne) {
    // Quorum read: 2f_i+1 nodes must return the same content. Each reply
    // is compared in full against the answers so far.
    if (!pending.replied.insert(msg.src).second) return;
    auto answer = std::find_if(
        pending.answers.begin(), pending.answers.end(),
        [&](const ReadAnswer& a) {
          return a.found == reply.found &&
                 (!reply.found || SameContent(a.record, record));
        });
    if (answer == pending.answers.end()) {
      answer = pending.answers.insert(
          answer, ReadAnswer{reply.found, std::move(record), 0});
    }
    if (++answer->votes < 2 * options_.fi + 1) return;
    record = std::move(answer->record);
  }

  ReadCallback done = std::move(pending.done);
  sim_->Cancel(pending.retry_timer);
  reads_.erase(it);
  if (done) {
    if (reply.found) {
      done(Status::OK(), std::move(record));
    } else {
      done(Status::NotFound("no committed entry at position"), LogRecord{});
    }
  }
}

void Participant::HandleMessage(const net::Message& msg) {
  switch (msg.type) {
    case kDeliverNotice:
      OnDeliverNotice(msg);
      break;
    case kAttestResponse:
      OnAttestResponse(msg);
      break;
    case kGeoAck:
      OnGeoAck(msg);
      break;
    case kRecvStatusReply:
      OnRecvStatusReply(msg);
      break;
    case kMirrorEntry:
      OnMirrorEntry(msg);
      break;
    case kReadReply:
      OnReadReply(msg);
      break;
    case kGeoGapNotice:
      OnGeoGapNotice(msg);
      break;
    default:
      break;
  }
}

void Participant::OnGeoGapNotice(const net::Message& msg) {
  // Only our own unit nodes may report a stuck geo stream.
  if (unit_group_.ReplicaIndex(msg.src) < 0) return;
  GeoGapNoticeMsg notice;
  if (!GeoGapNoticeMsg::Decode(msg.body(), &notice).ok()) return;
  // A byzantine unit leader committed a later geo position while censoring
  // `missing_geo_pos` (DESIGN.md §10). The missing record is one of OUR
  // submissions — its PBFT request is still pending at the client (its
  // reply requires f_i+1 matching states, which the quarantined nodes
  // cannot produce for a censored record). Re-broadcasting the pending
  // requests arms the backups' censored-request watchdogs and forces a
  // view change that evicts the reordering leader; the honest successor
  // proposes the gap and the quarantine drains.
  //
  // Rate-limited: every quarantined apply on every unit node sends a
  // notice, but one nudge per half retry period is plenty.
  sim::SimTime now = sim_->Now();
  if (last_gap_nudge_ != 0 &&
      now - last_gap_nudge_ < options_.local_client_retry / 2) {
    return;
  }
  last_gap_nudge_ = now;
  robustness_stats().geo_gap_nudges++;
  client_->NudgePending();
}

}  // namespace blockplane::core
