#include "core/node.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "core/comm_daemon.h"
#include "core/congestion.h"
#include "core/wire.h"

namespace blockplane::core {

namespace {

/// The participant (user-space) process of a site lives at index 1000.
constexpr int32_t kParticipantIndex = 1000;

}  // namespace

net::NodeId ParticipantNodeId(net::SiteId site) {
  return net::NodeId{site, kParticipantIndex};
}

net::NodeId MirrorNodeId(net::SiteId host_site, net::SiteId origin_site,
                         int index) {
  // Mirror groups get disjoint index ranges per mirrored origin so they can
  // share the host site without demultiplexing PBFT traffic.
  return net::NodeId{host_site, 100 * (origin_site + 1) + index};
}

BlockplaneNode::BlockplaneNode(net::Network* network, crypto::KeyStore* keys,
                               const BlockplaneOptions& options,
                               pbft::PbftConfig group, net::NodeId self,
                               net::SiteId origin_site)
    : network_(network),
      sim_(network->simulator()),
      keys_(keys),
      signer_(keys->RegisterNode(self)),
      options_(options),
      self_(self),
      origin_site_(origin_site) {
  group.sign_messages = options_.sign_messages;
  group.view_timeout = options_.local_view_timeout;
  group.client_retry = options_.local_client_retry;
  group.checkpoint_interval = options_.checkpoint_interval;
  group.window = options_.pbft_window;
  if (options_.congestion.adaptive) {
    // Adaptive proposal window (DESIGN.md §13): the replica consults the
    // controller at admission time and feeds it propose-to-execute
    // latencies; view changes back it off. The controller's "RTT" is an
    // intra-site consensus round, so the prior is a few one-way hops.
    uint64_t initial = options_.congestion.initial_window != 0
                           ? options_.congestion.initial_window
                           : std::max<uint64_t>(1, options_.pbft_window);
    pbft_window_ctl_ = std::make_unique<WindowController>(
        options_.congestion, initial,
        4 * network_->options().intra_site_one_way,
        "pbft_s" + std::to_string(self_.site) + "n" +
            std::to_string(self_.index));
    group.window_provider = [this] { return pbft_window_ctl_->window(); };
    group.on_commit_latency = [this](sim::SimTime latency) {
      // latency == 0: backup-executed instance — grow without an RTT
      // sample (see PbftReplica::ExecuteReady).
      if (latency > 0) {
        pbft_window_ctl_->OnAck(latency);
      } else {
        pbft_window_ctl_->OnAckNoSample();
      }
    };
    group.on_view_change = [this] {
      pbft_window_ctl_->OnViewChange(sim_->Now());
    };
  }
  replica_ = std::make_unique<pbft::PbftReplica>(
      network_, keys_, std::move(group), self_,
      [this](uint64_t seq, const Bytes& value, const crypto::Digest& digest) {
        OnExecute(seq, value, digest);
      });
  replica_->SetVerifier(
      [this](const Bytes& value, const crypto::Digest* digest) {
        return VerifyValue(value, digest);
      });
  replica_->SetAdmission(
      [this](const Bytes& value, const crypto::Digest* digest) {
        return AdmitValue(value, digest);
      },
      [this]() { ResetAdmission(); });
  replica_->SetSnapshotCallback([this](const pbft::SnapshotMsg& snapshot) {
    OnSnapshotCertificate(snapshot);
  });
  network_->Register(self_, this);
}

BlockplaneNode::~BlockplaneNode() { network_->Unregister(self_); }

void BlockplaneNode::SendTo(net::NodeId dst, net::MessageType type,
                            Bytes payload) {
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.type = type;
  msg.set_body(std::move(payload));
  if (msg.dst == self_) {
    HandleMessage(msg);
    return;
  }
  network_->Send(std::move(msg));
}

void BlockplaneNode::HandleMessage(const net::Message& msg) {
  if (msg.type >= 100 && msg.type < 200) {
    // kReply messages addressed to this node are answers to SubmitLocalCommit
    // requests; execution is what matters, so they need no handling.
    if (msg.type == pbft::kReply) return;
    replica_->HandleMessage(msg);
    return;
  }
  // One serial receive path (DESIGN.md §12). The two hot types report a
  // rejection; every other case returns once handled.
  bool accepted = true;
  switch (msg.type) {
    case kTransmission:
      accepted = OnTransmission(msg);
      break;
    case kAttestResponse:
      accepted = OnAttestResponse(msg);
      break;
    case kTransmissionAck:
    case kRecvStatusReply:
      for (auto& daemon : daemons_) daemon->OnMessage(msg);
      return;
    case kAttestRequest:
      OnAttestRequest(msg);
      return;
    case kRecvStatusQuery:
      OnRecvStatusQuery(msg);
      return;
    case kGeoReplicate:
      OnGeoReplicate(msg);
      return;
    case kGeoProofBundle:
      OnGeoProofBundle(msg);
      return;
    case kLogSyncRequest:
      OnLogSyncRequest(msg);
      return;
    case kLogSyncReply:
      OnLogSyncReply(msg);
      return;
    case kMirrorFetch: {
      // Mirror reconciliation (§V): hand out the mirrored entries (with
      // their proofs) a recovering acting primary is missing. Mirror logs
      // commit strictly in geo order, so the PBFT sequence number equals
      // the geo position.
      if (!is_mirror()) return;
      MirrorFetchMsg fetch;
      if (!MirrorFetchMsg::Decode(msg.body(), &fetch).ok()) return;
      if (fetch.origin_site != origin_site_) return;
      constexpr uint64_t kMaxEntries = 64;
      for (uint64_t pos = fetch.from_geo_pos + 1;
           pos <= mirror_high_pos_ && pos <= fetch.from_geo_pos + kMaxEntries;
           ++pos) {
        auto it = log_.find(pos);
        if (it == log_.end()) break;
        MirrorEntryMsg entry;
        entry.origin_site = origin_site_;
        entry.record = it->second.Encode();
        SendTo(msg.src, kMirrorEntry, entry.Encode());
      }
      return;
    }
    case kMirrorEntry:
      OnMirrorEntry(msg);
      return;
    case kReadRequest: {
      ReadRequestMsg request;
      if (!ReadRequestMsg::Decode(msg.body(), &request).ok()) return;
      ReadReplyMsg reply;
      reply.read_id = request.read_id;
      reply.pos = request.pos;
      auto it = log_.find(request.pos);
      if (it != log_.end()) {
        reply.found = true;
        if (lie_on_reads_) {
          LogRecord forged = it->second;
          forged.payload = ToBytes("forged read result");
          reply.record = forged.Encode();
        } else {
          reply.record = it->second.Encode();
        }
      }
      SendTo(msg.src, kReadReply, reply.Encode());
      return;
    }
    default:
      return;
  }
  if (!accepted) robustness_stats().msgs_rejected++;
}

void BlockplaneNode::RegisterVerifier(uint64_t routine_id,
                                      VerifyRoutine routine) {
  BP_CHECK_MSG(routine_id != 0, "routine id 0 is the accept-all default");
  verifiers_[routine_id] = std::move(routine);
}

void BlockplaneNode::SubmitLocalCommit(const LogRecord& record) {
  SubmitRequest(record, next_req_id_++, /*broadcast=*/false);
}

void BlockplaneNode::SubmitRequest(const LogRecord& record, uint64_t req_id,
                                   bool broadcast) {
  pbft::RequestMsg request;
  request.client_token = pbft::ClientToken(self_);
  request.req_id = req_id;
  request.value = record.Encode();
  Bytes encoded = request.Encode();
  if (broadcast) {
    // Escalation: the leader repeatedly failed to commit this record —
    // give it to every replica so the backups forward it and arm their
    // request watchdogs (a stale or censoring leader then loses a view
    // change instead of wedging the stream forever).
    for (const net::NodeId& peer : replica_->config().nodes) {
      SendTo(peer, pbft::kRequest, Bytes(encoded));
    }
    return;
  }
  SendTo(replica_->leader(), pbft::kRequest, std::move(encoded));
}

void BlockplaneNode::StartCommDaemon(net::SiteId dest, bool reserve) {
  daemons_.push_back(std::make_unique<CommDaemon>(this, dest, reserve));
}

void BlockplaneNode::MuteDaemons() {
  for (auto& daemon : daemons_) daemon->Mute();
}

uint64_t BlockplaneNode::last_received_pos(net::SiteId src) const {
  auto it = last_received_pos_.find(src);
  return it == last_received_pos_.end() ? 0 : it->second;
}

uint64_t BlockplaneNode::comm_records_to(net::SiteId dest) const {
  auto it = comm_positions_.find(dest);
  return it == comm_positions_.end() ? 0 : it->second.size();
}

uint64_t BlockplaneNode::daemon_acked(net::SiteId dest) const {
  for (const auto& daemon : daemons_) {
    if (daemon->dest() == dest) return daemon->acked_watermark();
  }
  return 0;
}

// --- PBFT hooks ----------------------------------------------------------------

bool BlockplaneNode::VerifyValue(const Bytes& value,
                                 const crypto::Digest* value_digest) {
  LogRecord record;
  if (!LogRecord::Decode(value, &record).ok()) return false;

  if (is_mirror()) {
    // A mirror group only ever stores mirrored entries of its origin.
    if (record.type != RecordType::kMirrored) return false;
    return VerifyMirrored(record, value_digest);
  }
  switch (record.type) {
    case RecordType::kMirrored:
      return false;  // mirrored entries never enter a unit's own log
    case RecordType::kReceived:
      if (!VerifyReceived(record)) return false;
      break;
    case RecordType::kLogCommit:
    case RecordType::kCommunication:
      break;
  }
  // The user's verification routine (§III-C), if registered.
  if (record.routine_id != 0) {
    auto it = verifiers_.find(record.routine_id);
    if (it != verifiers_.end() && !it->second(record)) return false;
  }
  return true;
}

bool BlockplaneNode::AdmitValue(const Bytes& value,
                                const crypto::Digest* value_digest) {
  // Floor the projection at applied state: values can commit and execute
  // through paths the projection never saw (catch-up entries, terms under
  // other leaders), so the projection must never lag reality.
  adm_api_count_ = std::max(adm_api_count_, api_record_count_);
  adm_mirror_high_ = std::max(adm_mirror_high_, mirror_high_pos_);
  for (const auto& [site, pos] : last_received_pos_) {
    uint64_t& projected = adm_last_received_[site];
    projected = std::max(projected, pos);
  }

  LogRecord record;
  if (!LogRecord::Decode(value, &record).ok()) return false;

  if (is_mirror()) {
    if (record.type != RecordType::kMirrored) return false;
    if (record.geo_pos != adm_mirror_high_ + 1) return false;
    if (!VerifyMirroredProof(record, value_digest)) return false;
    adm_mirror_high_ = record.geo_pos;
    return true;
  }
  switch (record.type) {
    case RecordType::kMirrored:
      return false;  // mirrored entries never enter a unit's own log
    case RecordType::kReceived: {
      uint64_t& last = adm_last_received_[record.src_site];
      if (!VerifyReceivedAt(record, last)) return false;
      last = record.src_log_pos;
      break;
    }
    case RecordType::kLogCommit:
    case RecordType::kCommunication:
      // Geo-stream consistency: an API record's geo position must equal the
      // API-record count its execution will observe, or the unit's
      // attestations will never match the acting participant's canonicals.
      // Exact propose-time verification guaranteed this under stop-and-wait;
      // the projection restores it for window > 1.
      if (record.geo_pos != 0 && record.geo_pos != adm_api_count_ + 1) {
        return false;
      }
      break;
  }
  // The user's verification routine (§III-C), if registered. Note: routines
  // judge against this node's applied replica state, not the projection —
  // streams guarded by state-dependent routines should stay at window 1
  // (DESIGN.md §9).
  if (record.routine_id != 0) {
    auto it = verifiers_.find(record.routine_id);
    if (it != verifiers_.end() && !it->second(record)) return false;
  }
  if (record.type == RecordType::kLogCommit ||
      record.type == RecordType::kCommunication) {
    ++adm_api_count_;
  }
  return true;
}

void BlockplaneNode::ResetAdmission() {
  adm_api_count_ = api_record_count_;
  adm_mirror_high_ = mirror_high_pos_;
  adm_last_received_.clear();
  for (const auto& [site, pos] : last_received_pos_) {
    adm_last_received_[site] = pos;
  }
}

bool BlockplaneNode::VerifyReceived(const LogRecord& record) const {
  return VerifyReceivedAt(record, last_received_pos(record.src_site));
}

bool BlockplaneNode::VerifyReceivedAt(const LogRecord& record,
                                      uint64_t last) const {
  // The built-in receive verification routine (§IV-C). The verdict is the
  // conjunction of checks (1)-(4); the cheap position checks run first, so
  // a duplicate or out-of-order submission is rejected before any crypto.
  if (record.dest_site != origin_site_) return false;
  if (record.src_site == origin_site_ || record.src_site < 0) return false;

  // (2) Not received before, and (3) no earlier unreceived transmission:
  // the chain pointer must extend the reception watermark.
  if (record.src_log_pos <= last) return false;
  if (record.prev_src_log_pos != last) return false;

  // (1) f_i+1 signatures from the source participant's unit. With quorum
  // certificates (wire v2, DESIGN.md §14) the record carries one compact
  // cert instead of the signature vector; repeats of the same cert hit the
  // KeyStore's cert cache and elide the per-MAC re-verification entirely.
  if (options_.sign_messages) {
    Bytes canonical =
        AttestCanonical(AttestPurpose::kTransmission, record.src_site,
                        record.src_log_pos, record.ContentDigest());
    if (!record.proof_certs.empty()) {
      bool ok = false;
      for (const crypto::QuorumCert& cert : record.proof_certs) {
        if (cert.site != record.src_site) continue;
        ok = keys_->VerifyCert(canonical, cert, options_.fi + 1);
        break;
      }
      if (!ok) return false;
    } else if (!keys_->VerifyProof(canonical, record.proof, record.src_site,
                                   options_.fi + 1)) {
      return false;
    }
  }

  // (4) §V: with geo-correlated tolerance, the source must prove that fg
  // other participants hold the record.
  if (options_.fg > 0 && options_.sign_messages) {
    LogRecord original;
    original.type = RecordType::kCommunication;
    original.routine_id = record.routine_id;
    original.payload = record.payload;
    original.dest_site = record.dest_site;
    original.geo_pos = record.geo_pos;
    crypto::Digest geo_digest = crypto::Sha256Digest(original.Encode());

    std::set<net::SiteId> proven;
    if (!record.geo_certs.empty()) {
      // Wire v2: one cert per proving mirror site.
      for (const crypto::QuorumCert& cert : record.geo_certs) {
        if (cert.site == record.src_site || cert.site < 0) continue;
        if (cert.site >= network_->topology().num_sites()) continue;
        Bytes canonical = AttestCanonical(AttestPurpose::kGeoAck, cert.site,
                                          record.geo_pos, geo_digest);
        if (keys_->VerifyCert(canonical, cert, options_.fi + 1)) {
          proven.insert(cert.site);
        }
      }
    } else {
      for (int site = 0; site < network_->topology().num_sites(); ++site) {
        if (site == record.src_site) continue;
        Bytes canonical = AttestCanonical(AttestPurpose::kGeoAck, site,
                                          record.geo_pos, geo_digest);
        if (keys_->VerifyProof(canonical, record.geo_proof, site,
                               options_.fi + 1)) {
          proven.insert(site);
        }
      }
    }
    if (static_cast<int>(proven.size()) < options_.fg) return false;
  }
  return true;
}

bool BlockplaneNode::VerifyMirrored(const LogRecord& record,
                                    const crypto::Digest* value_digest) {
  if (record.geo_pos != mirror_high_pos_ + 1) return false;
  return VerifyMirroredProof(record, value_digest);
}

bool BlockplaneNode::VerifyMirroredProof(const LogRecord& record,
                                         const crypto::Digest* value_digest) {
  // The memo holds the payload digest of values whose payload already
  // decoded and hashed here (only when signing); keyed by the checked
  // digest of the whole value, a hit is for exactly these bytes.
  auto memo = value_digest != nullptr
                  ? mirror_payload_digests_.find(*value_digest)
                  : mirror_payload_digests_.end();
  crypto::Digest digest;
  if (memo != mirror_payload_digests_.end()) {
    digest = memo->second;
    hotpath_stats().digests_elided++;
  } else {
    LogRecord inner;
    if (!LogRecord::Decode(record.payload, &inner).ok()) return false;
    if (!options_.sign_messages) return true;
    digest = crypto::Sha256Digest(record.payload);
    if (value_digest != nullptr) {
      if (mirror_payload_digests_.size() >= kMirrorDigestMemoCap) {
        mirror_payload_digests_.clear();
      }
      mirror_payload_digests_.emplace(*value_digest, digest);
    }
  }

  Bytes canonical = AttestCanonical(AttestPurpose::kGeoSource,
                                    record.src_site, record.geo_pos, digest);
  if (record.src_site == self_.site) {
    // Locally-acting participant: the (trusted, user-space) participant
    // process signs its own submissions; local PBFT masks byzantine nodes.
    for (const crypto::Signature& sig : record.proof) {
      if (sig.signer == ParticipantNodeId(self_.site) &&
          keys_->Verify(canonical, sig)) {
        return true;
      }
    }
    return false;
  }
  // Remote acting site: f_i+1 of its nodes must attest the record. With
  // quorum certificates the attestations arrive as one compact cert, so
  // backfill replays and buffered re-verification hit the cert cache.
  if (!record.proof_certs.empty()) {
    for (const crypto::QuorumCert& cert : record.proof_certs) {
      if (cert.site != record.src_site) continue;
      return keys_->VerifyCert(canonical, cert, options_.fi + 1);
    }
    return false;
  }
  return keys_->VerifyProof(canonical, record.proof, record.src_site,
                            options_.fi + 1);
}

void BlockplaneNode::OnExecute(uint64_t seq, const Bytes& value,
                               const crypto::Digest& digest) {
  if (seq <= applied_high_) return;  // already applied via log sync
  ApplyValue(seq, value, digest);
}

void BlockplaneNode::ApplyValue(uint64_t seq, const Bytes& value,
                                const crypto::Digest& value_digest) {
  // Mirror the PBFT replica's state-digest chain so synced log contents
  // can be verified against a certified checkpoint.
  {
    Encoder chain;
    chain.PutRaw(chain_digest_.data(), chain_digest_.size());
    chain.PutRaw(value_digest.data(), value_digest.size());
    chain_digest_ = crypto::Sha256Digest(chain.buffer());
  }
  applied_high_ = seq;

  LogRecord record;
  if (!LogRecord::Decode(value, &record).ok()) {
    // Can only happen if f+1 replicas committed garbage — i.e. never.
    BP_LOG(kError) << self_.ToString() << " undecodable committed record";
    return;
  }
  log_[seq] = record;

  switch (record.type) {
    case RecordType::kLogCommit:
    case RecordType::kCommunication: {
      // Geo-source attestations sign `value_digest`. It is the digest the
      // participant's geo round expects: the participant submits
      // record.Encode() and hashes those same bytes.
      BP_DCHECK(value_digest == crypto::Sha256Digest(record.Encode()));
      // Commit-time contiguity gate (DESIGN.md §10): the record stays in
      // the log and the digest chain regardless; only its api-stream side
      // effects may be deferred (quarantined) until the geo gap fills.
      if (AdmitApiRecord(seq, record, value_digest)) {
        ApplyApiRecord(seq, record.type, record.dest_site, record.geo_pos,
                       value_digest);
        ReleaseQuarantineContiguous();
      }
      break;
    }
    case RecordType::kReceived: {
      // Monotonic: a synced or caught-up log can replay records whose
      // source positions are below an already-advanced watermark.
      uint64_t& watermark = last_received_pos_[record.src_site];
      watermark = std::max(watermark, record.src_log_pos);
      {
        Tracer& tr = tracer();
        if (tr.enabled()) {
          // A traced send whose transmission just committed in this
          // (destination) unit: record the WAN-crossing milestone.
          TraceId trace =
              tr.LookupCommRecord(record.src_site, record.src_log_pos);
          if (trace != kNoTrace) {
            sim::SimTime now = network_->simulator()->Now();
            tr.Mark(trace, "remote_committed", now);
            tr.Instant(trace, "remote_commit", "geo", now, self_.site,
                       self_.index, record.src_log_pos);
          }
        }
      }
      // Ack every node that asked us to commit this transmission.
      auto key = std::make_pair(record.src_site, record.src_log_pos);
      auto pending = pending_acks_.find(key);
      if (pending != pending_acks_.end()) {
        TransmissionAckMsg ack;
        ack.src_log_pos = record.src_log_pos;
        for (const net::NodeId& requester : pending->second) {
          SendTo(requester, kTransmissionAck, ack.Encode());
        }
        pending_acks_.erase(pending);
      }
      recv_submits_.erase(key);
      // Notify the participant process (f_i+1 matching notices convince it).
      DeliverNoticeMsg notice;
      notice.src_site = record.src_site;
      notice.src_log_pos = record.src_log_pos;
      notice.prev_src_log_pos = record.prev_src_log_pos;
      notice.payload = record.payload;
      SendTo(ParticipantNodeId(origin_site_), kDeliverNotice, notice.Encode());
      break;
    }
    case RecordType::kMirrored: {
      mirror_high_pos_ = record.geo_pos;
      // The payload digest this node computed when it verified the value,
      // if it did; hashed here only on a memo miss (e.g. catch-up).
      auto memo = mirror_payload_digests_.find(value_digest);
      if (memo != mirror_payload_digests_.end()) {
        mirror_digest_by_pos_[record.geo_pos] = memo->second;
        mirror_payload_digests_.erase(memo);
        hotpath_stats().digests_elided++;
      } else {
        mirror_digest_by_pos_[record.geo_pos] =
            crypto::Sha256Digest(record.payload);
      }
      // Geo-ack back to the acting participant (§V): our signature counts
      // toward its f_i+1-per-site proof.
      GeoAckMsg ack;
      ack.geo_pos = record.geo_pos;
      ack.sig = signer_->Sign(
          AttestCanonical(AttestPurpose::kGeoAck, self_.site, record.geo_pos,
                          mirror_digest_by_pos_[record.geo_pos]));
      SendTo(ParticipantNodeId(record.src_site), kGeoAck, ack.Encode());
      // Keep the backfill loop self-driving: drain what just became
      // contiguous, and if a known gap remains with nothing buffered to
      // extend it, fetch the next batch (each fetch serves a bounded run).
      if (!mirror_backfill_.empty()) DrainMirrorBackfill();
      if (mirror_gap_target_ > mirror_high_pos_ &&
          mirror_backfill_.count(mirror_high_pos_ + 1) == 0) {
        MaybeFetchMirrorGap(mirror_gap_target_);
      }
      break;
    }
  }
  if (apply_hook_) apply_hook_(seq, record);

  if (options_.prune_applied_log > 0 &&
      log_.size() > options_.prune_applied_log) {
    // Drop old non-communication entries; communication records must stay
    // until their transmissions are acknowledged.
    uint64_t keep_from = seq > options_.prune_applied_log
                             ? seq - options_.prune_applied_log
                             : 0;
    for (auto it = log_.begin();
         it != log_.end() && it->first < keep_from;) {
      if (it->second.type == RecordType::kCommunication) {
        ++it;
      } else {
        api_pos_by_log_pos_.erase(it->first);
        it = log_.erase(it);
      }
    }
  }
}

// --- geo-contiguity quarantine (DESIGN.md §10) -----------------------------------

bool BlockplaneNode::AdmitApiRecord(uint64_t seq, const LogRecord& record,
                                    const crypto::Digest& value_digest) {
  // The gate is only live when this node participates in a geo stream:
  // unit nodes of a participant running with fg > 0. Mirrors never apply
  // API records, and with fg == 0 geo positions are never stamped (seed
  // behaviour is preserved exactly).
  if (is_mirror() || options_.fg == 0) return true;
  RobustnessStats& rs = robustness_stats();
  if (record.geo_pos == 0) {
    // With fg > 0 the (trusted) participant stamps every API record; an
    // unstamped one can only come from a byzantine proposer. Letting it
    // advance the api count would desynchronize api positions from geo
    // positions for every later record, so it is excluded from the stream.
    rs.geo_quarantine_dropped++;
    return false;
  }
  const uint64_t expected = api_record_count_ + 1;
  if (record.geo_pos == expected) return true;
  if (record.geo_pos <= api_record_count_) {
    // Stale duplicate of an already-released geo position (byzantine
    // re-proposal); the first holder keeps the api position.
    rs.geo_quarantine_dropped++;
    return false;
  }
  if (record.geo_pos > expected + kGeoQuarantineSpan) {
    // Absurdly far-future position: quarantining it would let a byzantine
    // leader grow the quarantine without bound.
    rs.geo_quarantine_dropped++;
    return false;
  }
  // Quarantine-and-gap-fill: defer the api-stream side effects (the record
  // itself is already in the log and the digest chain), tell the
  // participant which position the stream is stuck on, and keep committing.
  // This neither re-serializes the pipeline nor rejects the prepared
  // certificate — the poisoned position simply waits for the gap to fill
  // (typically after a view change evicts the censoring leader and an
  // honest one proposes the missing record).
  geo_quarantine_[record.geo_pos] =
      QuarantinedApi{seq, record.type, record.dest_site, value_digest};
  rs.geo_quarantined++;
  GeoGapNoticeMsg notice;
  notice.missing_geo_pos = expected;
  notice.quarantined_high = geo_quarantine_.rbegin()->first;
  rs.geo_gap_notices++;
  SendTo(ParticipantNodeId(origin_site_), kGeoGapNotice, notice.Encode());
  return false;
}

void BlockplaneNode::ApplyApiRecord(uint64_t seq, RecordType type,
                                    net::SiteId dest_site, uint64_t geo_pos,
                                    const crypto::Digest& value_digest) {
  if (!is_mirror() && options_.fg > 0 && geo_pos > 0) {
    // The api position IS the geo position: under quarantine-and-gap-fill
    // records are released in geo order, so this stays contiguous (and in
    // honest executions it equals the old ++count exactly).
    api_record_count_ = geo_pos;
  } else {
    ++api_record_count_;
  }
  api_pos_by_log_pos_[seq] = ApiPosition{api_record_count_, value_digest};
  if (type == RecordType::kCommunication) {
    auto& positions = comm_positions_[dest_site];
    // Quarantine release can surface log positions out of ascending order;
    // PrevCommPos and the daemons assume a sorted stream.
    auto it = std::lower_bound(positions.begin(), positions.end(), seq);
    if (it == positions.end() || *it != seq) positions.insert(it, seq);
    for (auto& daemon : daemons_) daemon->NotifyLogAppend();
  }
}

void BlockplaneNode::ReleaseQuarantineContiguous() {
  while (true) {
    auto it = geo_quarantine_.find(api_record_count_ + 1);
    if (it == geo_quarantine_.end()) return;
    QuarantinedApi q = it->second;
    uint64_t geo_pos = it->first;
    geo_quarantine_.erase(it);
    robustness_stats().geo_quarantine_released++;
    ApplyApiRecord(q.seq, q.type, q.dest_site, geo_pos, q.value_digest);
  }
}

// --- recovery past the checkpoint window (§VI-B) --------------------------------

void BlockplaneNode::OnSnapshotCertificate(const pbft::SnapshotMsg& snapshot) {
  if (snapshot.seq <= applied_high_) return;
  // The PBFT layer already verified the 2f+1-signature certificate. Fetch
  // the committed values from peers; the digest chain makes one honest
  // copy sufficient (and any dishonest copy detectable).
  sync_target_seq_ = snapshot.seq;
  sync_target_digest_ = snapshot.state_digest;
  LogSyncRequestMsg request;
  request.from_pos = applied_high_ + 1;
  request.to_pos = snapshot.seq;
  Bytes encoded = request.Encode();
  for (const net::NodeId& peer : replica_->config().nodes) {
    if (peer == self_) continue;
    SendTo(peer, kLogSyncRequest, Bytes(encoded));
  }
}

void BlockplaneNode::OnLogSyncRequest(const net::Message& msg) {
  if (replica_->config().ReplicaIndex(msg.src) < 0) return;
  LogSyncRequestMsg request;
  if (!LogSyncRequestMsg::Decode(msg.body(), &request).ok()) return;
  constexpr uint64_t kMaxEntries = 256;
  uint64_t sent = 0;
  for (uint64_t pos = request.from_pos;
       pos <= request.to_pos && sent < kMaxEntries; ++pos) {
    auto it = log_.find(pos);
    if (it == log_.end()) return;  // pruned or not yet applied here
    LogSyncReplyMsg reply;
    reply.pos = pos;
    reply.value = it->second.Encode();
    SendTo(msg.src, kLogSyncReply, reply.Encode());
    ++sent;
  }
}

void BlockplaneNode::OnLogSyncReply(const net::Message& msg) {
  if (sync_target_seq_ == 0) return;
  if (replica_->config().ReplicaIndex(msg.src) < 0) return;
  LogSyncReplyMsg reply;
  if (!LogSyncReplyMsg::Decode(msg.body(), &reply).ok()) return;
  if (reply.pos <= applied_high_ || reply.pos > sync_target_seq_) return;
  sync_buffer_.emplace(reply.pos, std::move(reply.value));
  TryInstallSyncedLog();
}

void BlockplaneNode::TryInstallSyncedLog() {
  // Need a contiguous run from our applied high to the certified seq.
  for (uint64_t pos = applied_high_ + 1; pos <= sync_target_seq_; ++pos) {
    if (sync_buffer_.count(pos) == 0) return;
  }
  // Verify the digest chain against the certified checkpoint digest
  // before applying anything. Synced values come from a single peer and
  // are unverified until this check, so each is hashed here, once; the
  // digests are kept for ApplyValue.
  crypto::Digest chain = chain_digest_;
  std::vector<crypto::Digest> value_digests;
  for (uint64_t pos = applied_high_ + 1; pos <= sync_target_seq_; ++pos) {
    value_digests.push_back(pbft::ComputeDigest(sync_buffer_.at(pos)));
    Encoder enc;
    enc.PutRaw(chain.data(), chain.size());
    enc.PutRaw(value_digests.back().data(), value_digests.back().size());
    chain = crypto::Sha256Digest(enc.buffer());
  }
  if (options_.sign_messages && chain != sync_target_digest_) {
    // A lying peer fed us garbage; drop it all and re-request.
    BP_LOG(kWarning) << self_.ToString()
                     << " log sync failed digest verification; retrying";
    sync_buffer_.clear();
    pbft::SnapshotMsg snapshot;
    snapshot.seq = sync_target_seq_;
    snapshot.state_digest = sync_target_digest_;
    sync_target_seq_ = 0;
    OnSnapshotCertificate(snapshot);
    return;
  }

  uint64_t target = sync_target_seq_;
  crypto::Digest target_digest = sync_target_digest_;
  sync_target_seq_ = 0;
  const uint64_t first = applied_high_ + 1;
  for (uint64_t pos = first; pos <= target; ++pos) {
    ApplyValue(pos, sync_buffer_.at(pos), value_digests[pos - first]);
  }
  sync_buffer_.clear();
  replica_->InstallCheckpoint(target, target_digest);
  replica_->CatchUp();  // anything committed since the checkpoint
}

// --- transmissions ---------------------------------------------------------------

bool BlockplaneNode::OnTransmission(const net::Message& msg) {
  TransmissionRecord tr;
  if (!TransmissionRecord::Decode(msg.body(), &tr).ok()) return false;
  if (is_mirror() || tr.dest_site != origin_site_) return false;
  // The record's signatures or cert are checked once, at admission
  // (VerifyReceivedAt): a retransmission or duplicate costs a cache
  // probe there, or nothing when it is already in the Local Log.
  if (tr.src_log_pos <= last_received_pos(tr.src_site)) {
    // Already in the Local Log (duplicate daemons or retransmission): the
    // receiving end verifies validity and duplicates are dropped (§IV-C),
    // but we still ack so the sender stops retrying.
    TransmissionAckMsg ack;
    ack.src_log_pos = tr.src_log_pos;
    SendTo(msg.src, kTransmissionAck, ack.Encode());
    return true;
  }
  pending_acks_[{tr.src_site, tr.src_log_pos}].insert(msg.src);
  // Escalating re-submission (see RecvSubmit): leader-only at first; the
  // sender's retransmissions drive later attempts, and persistent failure
  // broadcasts to the unit so backup watchdogs can act.
  RecvSubmit& sub = recv_submits_[{tr.src_site, tr.src_log_pos}];
  if (sub.attempts == 0) sub.req_id = next_req_id_++;
  ++sub.attempts;
  SubmitRequest(tr.ToReceivedRecord(), sub.req_id,
                /*broadcast=*/sub.attempts >= 3);
  return true;
}

bool BlockplaneNode::OnAttestResponse(const net::Message& msg) {
  AttestResponseMsg response;
  if (!AttestResponseMsg::Decode(msg.body(), &response).ok()) return false;
  if (response.purpose != AttestPurpose::kTransmission) return false;
  if (response.sig.signer != msg.src) return false;
  for (auto& daemon : daemons_) daemon->OnAttestResponse(response);
  return true;
}

// --- attestation service ----------------------------------------------------------

void BlockplaneNode::OnAttestRequest(const net::Message& msg) {
  if (refuse_attestations_) return;
  AttestRequestMsg request;
  if (!AttestRequestMsg::Decode(msg.body(), &request).ok()) return;

  AttestResponseMsg response;
  response.purpose = request.purpose;
  response.pos = request.pos;

  switch (request.purpose) {
    case AttestPurpose::kTransmission: {
      // Sign "communication record at pos is committed and its transmission
      // form (including the chain pointer) is accurate" — from OUR log.
      auto it = log_.find(request.pos);
      if (it == log_.end() ||
          it->second.type != RecordType::kCommunication ||
          it->second.dest_site != request.dest_site) {
        return;
      }
      LogRecord as_received = it->second;
      as_received.type = RecordType::kReceived;
      as_received.src_site = origin_site_;
      as_received.src_log_pos = request.pos;
      as_received.prev_src_log_pos = PrevCommPos(request.dest_site,
                                                 request.pos);
      response.sig = signer_->Sign(
          AttestCanonical(AttestPurpose::kTransmission, origin_site_,
                          request.pos, as_received.ContentDigest()));
      break;
    }
    case AttestPurpose::kGeoSource: {
      if (is_mirror()) {
        // Acting-site flow: attest an entry of our mirror log by its
        // geo position.
        auto it = mirror_digest_by_pos_.find(request.pos);
        if (it == mirror_digest_by_pos_.end()) return;
        response.sig = signer_->Sign(AttestCanonical(
            AttestPurpose::kGeoSource, self_.site, request.pos, it->second));
        break;
      }
      // Only applied API records have an api position; the digest signed
      // is the one PBFT committed for the value (see ApplyValue).
      auto api = api_pos_by_log_pos_.find(request.pos);
      if (api == api_pos_by_log_pos_.end()) return;
      response.sig = signer_->Sign(
          AttestCanonical(AttestPurpose::kGeoSource, origin_site_,
                          api->second.api_pos, api->second.value_digest));
      hotpath_stats().digests_elided++;
      break;
    }
    case AttestPurpose::kGeoAck:
      return;  // geo-acks are pushed, never requested
  }
  SendTo(msg.src, kAttestResponse, response.Encode());
}

uint64_t BlockplaneNode::PrevCommPos(net::SiteId dest, uint64_t pos) const {
  auto it = comm_positions_.find(dest);
  if (it == comm_positions_.end()) return 0;
  uint64_t prev = 0;
  for (uint64_t p : it->second) {
    if (p >= pos) break;
    prev = p;
  }
  return prev;
}

// --- status queries ----------------------------------------------------------------

void BlockplaneNode::OnRecvStatusQuery(const net::Message& msg) {
  RecvStatusQueryMsg query;
  if (!RecvStatusQueryMsg::Decode(msg.body(), &query).ok()) return;
  RecvStatusReplyMsg reply;
  reply.src_site = query.src_site;
  if (is_mirror()) {
    if (query.src_site != origin_site_) return;
    reply.last_pos = mirror_high_pos_;
  } else {
    // "the returned log position is the one that was sent along with the
    // transmission record and not the one at the receiver's Local Log."
    reply.last_pos = last_received_pos(query.src_site);
  }
  if (lie_about_reception_) reply.last_pos += 1000000;
  SendTo(msg.src, kRecvStatusReply, reply.Encode());
}

// --- geo replication ----------------------------------------------------------------

void BlockplaneNode::OnGeoReplicate(const net::Message& msg) {
  if (!is_mirror()) return;
  GeoReplicateMsg replicate;
  if (!GeoReplicateMsg::Decode(msg.body(), &replicate).ok()) return;

  if (replicate.geo_pos <= mirror_high_pos_) {
    // Already mirrored: re-ack (the acting participant's first ack set may
    // have been lost, or a retry raced a slow quorum).
    auto it = mirror_digest_by_pos_.find(replicate.geo_pos);
    if (it == mirror_digest_by_pos_.end()) return;
    GeoAckMsg ack;
    ack.geo_pos = replicate.geo_pos;
    ack.sig = signer_->Sign(AttestCanonical(
        AttestPurpose::kGeoAck, self_.site, replicate.geo_pos, it->second));
    SendTo(ParticipantNodeId(replicate.acting_site), kGeoAck, ack.Encode());
    return;
  }

  LogRecord record;
  record.type = RecordType::kMirrored;
  record.payload = std::move(replicate.record);
  record.src_site = replicate.acting_site;
  record.geo_pos = replicate.geo_pos;
  record.proof = std::move(replicate.sigs);
  record.proof_certs = std::move(replicate.sig_certs);

  if (replicate.geo_pos > mirror_high_pos_ + 1) {
    // The geo stream moved past this mirror (e.g. the hosting site sat out
    // an outage while the other mirrors kept acking). Mirror logs commit
    // strictly in geo order, so this record cannot be admitted yet: buffer
    // it and backfill the hole from a peer mirror (§V, DESIGN.md §10).
    if (replicate.geo_pos <= mirror_high_pos_ + kMirrorBackfillCap &&
        (mirror_backfill_.size() < kMirrorBackfillCap ||
         mirror_backfill_.count(replicate.geo_pos) > 0) &&
        VerifyMirroredProof(record, nullptr)) {
      mirror_backfill_[replicate.geo_pos] = std::move(record);
    }
    MaybeFetchMirrorGap(replicate.geo_pos);
    return;
  }
  SubmitLocalCommit(record);
}

void BlockplaneNode::OnMirrorEntry(const net::Message& msg) {
  if (!is_mirror()) return;
  MirrorEntryMsg entry;
  if (!MirrorEntryMsg::Decode(msg.body(), &entry).ok()) return;
  if (entry.origin_site != origin_site_) return;
  LogRecord record;
  if (!LogRecord::Decode(entry.record, &record).ok()) return;
  if (record.type != RecordType::kMirrored) return;
  if (record.geo_pos <= mirror_high_pos_) return;
  if (record.geo_pos > mirror_high_pos_ + kMirrorBackfillCap) return;
  if (mirror_backfill_.size() >= kMirrorBackfillCap &&
      mirror_backfill_.count(record.geo_pos) == 0) {
    return;
  }
  // Proof-check before buffering so a lying peer cannot crowd out real
  // entries; admission re-runs the full verification on submit.
  if (!VerifyMirroredProof(record, nullptr)) return;
  mirror_backfill_[record.geo_pos] = std::move(record);
  DrainMirrorBackfill();
}

void BlockplaneNode::MaybeFetchMirrorGap(uint64_t target_geo_pos) {
  mirror_gap_target_ = std::max(mirror_gap_target_, target_geo_pos);
  if (mirror_peer_hosts_.empty()) return;
  // Single fetcher: the group's current leader. If the leader is down the
  // view change rotates it out and the next leader takes over.
  if (replica_->leader() != self_) return;
  sim::SimTime now = network_->simulator()->Now();
  constexpr sim::SimTime kMinFetchInterval = sim::Milliseconds(50);
  if (last_mirror_gap_fetch_ != 0 &&
      now - last_mirror_gap_fetch_ < kMinFetchInterval) {
    return;
  }
  last_mirror_gap_fetch_ = now;
  // Re-base the submission watermark on applied state: anything submitted
  // since the last fetch that has not applied was lost and goes again
  // (duplicate submissions are rejected by admission, harmlessly).
  mirror_backfill_submitted_ = mirror_high_pos_;
  MirrorFetchMsg fetch;
  fetch.origin_site = origin_site_;
  fetch.from_geo_pos = mirror_high_pos_;
  Bytes encoded = fetch.Encode();
  for (net::SiteId host : mirror_peer_hosts_) {
    for (int i = 0; i < options_.fi + 1; ++i) {
      SendTo(MirrorNodeId(host, origin_site_, i), kMirrorFetch,
             Bytes(encoded));
    }
  }
  robustness_stats().mirror_gap_fetches++;
  DrainMirrorBackfill();
}

void BlockplaneNode::DrainMirrorBackfill() {
  mirror_backfill_.erase(mirror_backfill_.begin(),
                         mirror_backfill_.upper_bound(mirror_high_pos_));
  if (replica_->leader() != self_) return;
  // Bound proposed-but-unapplied backfill so the rebased retry (one per
  // fetch) resubmits a bounded run, not the whole buffer.
  constexpr uint64_t kMaxInflight = 128;
  uint64_t next = std::max(mirror_high_pos_, mirror_backfill_submitted_) + 1;
  for (auto it = mirror_backfill_.find(next);
       it != mirror_backfill_.end() && next <= mirror_high_pos_ + kMaxInflight;
       it = mirror_backfill_.find(next)) {
    // The pipelined admission projection (DESIGN.md §9) accepts a
    // contiguous run back-to-back; each submission re-verifies the proof.
    SubmitLocalCommit(it->second);
    mirror_backfill_submitted_ = next;
    robustness_stats().mirror_gap_filled++;
    ++next;
  }
}

void BlockplaneNode::OnGeoProofBundle(const net::Message& msg) {
  GeoProofBundleMsg bundle;
  if (!GeoProofBundleMsg::Decode(msg.body(), &bundle).ok()) return;
  geo_proofs_[bundle.pos] = std::move(bundle.proof);
  geo_proof_certs_[bundle.pos] = std::move(bundle.proof_certs);
  for (auto& daemon : daemons_) daemon->NotifyLogAppend();
}

}  // namespace blockplane::core
