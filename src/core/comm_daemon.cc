#include "core/comm_daemon.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/congestion.h"
#include "core/node.h"
#include "core/wire.h"

namespace blockplane::core {

CommDaemon::CommDaemon(BlockplaneNode* host, net::SiteId dest, bool reserve)
    : host_(host), dest_(dest), active_(!reserve) {
  if (host_->options_.congestion.adaptive) {
    // Per-destination flight window (DESIGN.md §13). The RTT prior is the
    // topology round trip plus an intra-site allowance for the remote
    // commit the ack waits on; measured samples take over immediately.
    const CongestionOptions& c = host_->options_.congestion;
    uint64_t initial =
        c.initial_window != 0
            ? c.initial_window
            : std::max<uint64_t>(1, host_->options_.daemon_window);
    sim::SimTime prior =
        host_->network()->topology().Rtt(host_->self().site, dest_) +
        4 * host_->network()->options().intra_site_one_way;
    window_ctl_ = std::make_unique<WindowController>(
        c, initial, prior,
        "daemon_s" + std::to_string(host_->self().site) + "n" +
            std::to_string(host_->self().index) + "_to_s" +
            std::to_string(dest_));
  }
  if (reserve) PollReceiver();
}

CommDaemon::~CommDaemon() {
  sim::Simulator* simulator = host_->network()->simulator();
  for (auto& [pos, flight] : flights_) {
    simulator->Cancel(flight.retransmit_timer);
  }
  simulator->Cancel(poll_timer_);
}

void CommDaemon::NotifyLogAppend() { PumpPipeline(); }

void CommDaemon::OnMessage(const net::Message& msg) {
  switch (msg.type) {
    case kTransmissionAck:
      OnTransmissionAck(msg);
      break;
    case kRecvStatusReply:
      OnRecvStatusReply(msg);
      break;
    default:
      // kAttestResponse arrives decoded via OnAttestResponse.
      break;
  }
}

void CommDaemon::PumpPipeline() {
  if (!active_) return;
  // Algorithm 2's scan, resumed from the send cursor, windowed.
  auto comm_it = host_->comm_positions_.find(dest_);
  if (comm_it == host_->comm_positions_.end()) return;
  const std::vector<uint64_t>& positions = comm_it->second;

  // Flight admission: the adaptive controller's current window when one
  // is installed, the static knob otherwise.
  size_t window = window_ctl_ ? static_cast<size_t>(window_ctl_->window())
                              : host_->options_.daemon_window;

  // Phase 1: build the new flights and self-attest each one (digest,
  // canonical encode and MAC — the CPU-heavy part of the scan).
  std::vector<uint64_t> new_positions;
  auto pos_it = std::upper_bound(positions.begin(), positions.end(),
                                 std::max(next_send_pos_, acked_pos_));
  bool geo_certs_wait = false;
  for (; pos_it != positions.end() && flights_.size() < window; ++pos_it) {
    uint64_t pos = *pos_it;
    const LogRecord& record = host_->log_.at(pos);

    // With geo-correlated tolerance, transmissions must carry the mirror
    // proofs (one cert per mirror site); wait until the participant
    // bundles them (§V).
    std::vector<crypto::QuorumCert> certs;
    if (host_->options_.fg > 0) {
      auto proof_it = host_->geo_certs_.find(pos);
      if (proof_it == host_->geo_certs_.end()) {
        geo_certs_wait = true;  // blocked on proofs, not on the window
        break;                  // keep order
      }
      certs = proof_it->second;
    }

    Flight& flight = flights_[pos];
    flight.record.src_site = host_->origin_site();
    flight.record.dest_site = dest_;
    flight.record.src_log_pos = pos;
    flight.record.prev_src_log_pos =
        pos_it == positions.begin() ? 0 : *(pos_it - 1);
    flight.record.routine_id = record.routine_id;
    flight.record.payload = record.payload;
    flight.record.geo_pos = record.geo_pos;
    flight.record.certs = std::move(certs);
    next_send_pos_ = pos;

    crypto::Digest digest = flight.record.ContentDigest();
    new_positions.push_back(pos);
    flight.sigs.push_back(host_->signer_->Sign(AttestCanonical(
        AttestPurpose::kTransmission, flight.record.src_site, pos, digest)));
  }
  // Stall accounting: an *episode* opens when admission is blocked purely
  // by the flight window while sendable work remains, and closes on any
  // admission (partial drains count). Counting per pump invocation would
  // inflate the metric with poll ticks.
  if (!new_positions.empty()) window_stalled_ = false;
  if (!geo_certs_wait && pos_it != positions.end() &&
      flights_.size() >= window && !window_stalled_) {
    window_stalled_ = true;
    ++pipeline_stats().daemon_window_stalls;
  }

  // Phase 2: collect f_i+1 signatures for the validity of P from local
  // nodes (our own plus f_i others) and ship, in scan order.
  for (uint64_t pos : new_positions) {
    Flight& flight = flights_.at(pos);
    if (static_cast<int>(flight.sigs.size()) >= host_->options_.fi + 1) {
      flight.sigs_complete = true;
      FinalizeProof(&flight);
      if (window_ctl_) {
        TransmitReady();  // in-order shipping (see TransmitReady)
      } else {
        Transmit(flight, /*widen=*/false);
      }
    } else {
      RequestAttestations(pos);
    }
    ArmRetransmit(pos);
  }
}

void CommDaemon::RequestAttestations(uint64_t pos) {
  AttestRequestMsg request;
  request.purpose = AttestPurpose::kTransmission;
  request.pos = pos;
  request.dest_site = dest_;
  Bytes encoded = request.Encode();
  for (const net::NodeId& peer : host_->replica()->config().nodes) {
    if (peer == host_->self()) continue;
    host_->SendTo(peer, kAttestRequest, Bytes(encoded));
  }
}

void CommDaemon::OnAttestResponse(const AttestResponseMsg& response) {
  auto it = flights_.find(response.pos);
  if (it == flights_.end() || it->second.sigs_complete) return;
  Flight& flight = it->second;
  const crypto::Signature& sig = response.sig;
  if (host_->options_.sign_messages &&
      !host_->keys()->Verify(
          AttestCanonical(AttestPurpose::kTransmission,
                          flight.record.src_site, flight.record.src_log_pos,
                          flight.record.ContentDigest()),
          sig)) {
    robustness_stats().msgs_rejected++;
    return;
  }
  for (const crypto::Signature& existing : flight.sigs) {
    if (existing.signer == sig.signer) return;  // duplicate
  }
  flight.sigs.push_back(sig);
  if (static_cast<int>(flight.sigs.size()) < host_->options_.fi + 1) {
    return;
  }
  flight.sigs_complete = true;
  FinalizeProof(&flight);
  if (window_ctl_) {
    // In-order shipping: this flight may have been blocking later
    // sigs-complete flights, and it may itself be blocked behind an
    // earlier one still collecting signatures.
    TransmitReady();
    // The pending timer was armed with the attest-retry period while
    // signatures were outstanding; re-arm so the first wire retransmit
    // uses the measured, per-destination timeout.
    host_->network()->simulator()->Cancel(flight.retransmit_timer);
    flight.retransmit_timer = sim::kInvalidEventId;
    ArmRetransmit(response.pos);
    return;
  }
  Transmit(flight, /*widen=*/false);
}

void CommDaemon::FinalizeProof(Flight* flight) {
  // Compress the completed f_i+1 signature set into one compact cert
  // (DESIGN.md §14). The constituent MACs were either produced by this
  // node's own signer or verified on arrival (OnAttestResponse, when
  // signing), so the aggregation is over trusted material. Every Transmit
  // of this flight, widened retransmissions included, ships the cert.
  std::vector<crypto::QuorumCert>& certs = flight->record.certs;
  certs.insert(certs.begin(),
               crypto::BuildQuorumCert(flight->record.src_site, flight->sigs));
  flight->sigs.clear();
  qc_stats().certs_built++;
}

void CommDaemon::TransmitReady() {
  // First transmissions go on the wire strictly in log order (adaptive
  // mode): the receiver rejects any record that does not extend its chain
  // watermark, so shipping a later record while an earlier one is still
  // collecting signatures produces guaranteed rejections and an RTO-sized
  // recovery stall once the stragglers finally arrive. (The static path
  // keeps the seed's ship-on-completion behavior bit-identically.)
  for (auto& [pos, flight] : flights_) {
    if (!flight.sigs_complete) break;
    if (flight.first_transmit == 0) Transmit(flight, /*widen=*/false);
  }
}

void CommDaemon::Transmit(Flight& flight, bool widen) {
  if (muted_) return;  // byzantine: pretends to send
  flight.last_transmit = host_->network()->simulator()->Now();
  if (flight.first_transmit == 0) {
    flight.first_transmit = flight.last_transmit;
  }
  Tracer& tr = tracer();
  if (tr.enabled()) {
    TraceId trace = tr.LookupCommRecord(host_->origin_site(),
                                        flight.record.src_log_pos);
    if (trace != kNoTrace) {
      sim::SimTime now = host_->network()->simulator()->Now();
      // First-wins: retransmissions do not move the milestone.
      tr.Mark(trace, "transmitted", now);
      tr.Instant(trace, "transmit", "geo", now, host_->self().site,
                 host_->self().index, flight.record.src_log_pos);
    }
  }
  // Send P and the f_i+1 signatures to Blockplane nodes in the destination.
  // Initially f_i+1 receivers suffice; retransmissions widen to the whole
  // unit in case some of the first picks are faulty.
  int receivers = widen ? 3 * host_->options_.fi + 1 : host_->options_.fi + 1;
  Bytes encoded = flight.record.Encode();
  // Proof-byte accounting for the QC gate: the exact wire bytes the cert
  // list contributes, once per receiver.
  {
    Encoder proof_enc;
    crypto::EncodeCertList(&proof_enc, flight.record.certs);
    qc_stats().wan_proof_bytes +=
        static_cast<int64_t>(receivers * proof_enc.buffer().size());
  }
  for (int i = 0; i < receivers; ++i) {
    host_->SendTo(net::NodeId{dest_, i}, kTransmission, Bytes(encoded));
  }
}

void CommDaemon::ArmRetransmit(uint64_t pos) {
  sim::Simulator* simulator = host_->network()->simulator();
  auto it = flights_.find(pos);
  if (it == flights_.end()) return;
  // Signature collection is intra-site; only the wire retransmit (sigs
  // complete, record in flight to dest_) uses the measured RTO.
  sim::SimTime period = host_->options_.transmission_retry;
  if (window_ctl_) {
    if (it->second.sigs_complete) {
      period = window_ctl_->RetryTimeout(host_->options_.congestion.min_rto,
                                         host_->options_.transmission_retry);
    } else {
      // Attestation round trips are a couple of intra-site hops; retrying
      // a lost attest response on the WAN-scale static period would park
      // the flight (and everything chained behind it) for half a second.
      period = std::max(host_->options_.congestion.min_rto,
                        8 * host_->network()->options().intra_site_one_way);
    }
  }
  it->second.retransmit_timer =
      simulator->Schedule(period, [this, pos, period]() {
        auto flight_it = flights_.find(pos);
        if (flight_it == flights_.end()) return;
        flight_it->second.retransmit_timer = sim::kInvalidEventId;
        OnRetransmitTimer(pos, period);
      });
}

void CommDaemon::OnRetransmitTimer(uint64_t pos, sim::SimTime period) {
  auto it = flights_.find(pos);
  if (it == flights_.end()) return;
  Flight& flight = it->second;
  if (!flight.sigs_complete) {
    RequestAttestations(pos);
    ArmRetransmit(pos);
    return;
  }
  if (window_ctl_ && flight.first_transmit == 0) {
    // Never been on the wire: blocked behind an earlier flight still
    // collecting signatures (in-order shipping). TransmitReady ships it
    // the moment the chain ahead completes; keep the timer as a backstop.
    TransmitReady();
    ArmRetransmit(pos);
    return;
  }
  if (window_ctl_ && flight.first_transmit != 0) {
    sim::Simulator* simulator = host_->network()->simulator();
    sim::SimTime now = simulator->Now();
    // Progress-deferred timeout: the receiver commits in order, so flowing
    // acks prove the path (and the stream ahead of this flight) is alive.
    // A timeout only counts once nothing progressed for a full RTO since
    // the last transmission — otherwise the destination-side commit queue
    // under a deep window would make every flight's timer fire spuriously,
    // and Karn's rule would then starve the estimator of samples for good.
    sim::SimTime deadline =
        std::max(flight.last_transmit, last_progress_) + period;
    if (now < deadline) {
      flight.retransmit_timer =
          simulator->Schedule(deadline - now, [this, pos, period]() {
            auto again = flights_.find(pos);
            if (again == flights_.end()) return;
            again->second.retransmit_timer = sim::kInvalidEventId;
            OnRetransmitTimer(pos, period);
          });
      return;
    }
    // The receiver validates the chain pointer strictly (no out-of-order
    // buffering), so a dropped head means every trailing flight that
    // arrived meanwhile was rejected too: all of them must retransmit.
    // Only the head's timeout is a *loss signal*, though — the trailing
    // timeouts are a symptom of the same head-of-line event.
    flight.retransmitted = true;  // Karn: no RTT sample from this flight
    if (flights_.begin()->first == pos) {
      uint64_t before = window_ctl_->window();
      window_ctl_->OnLoss(now);
      if (window_ctl_->window() < before) {
        // A decrease is the congestion-control event worth seeing on a
        // timeline: anchor it to the head flight's trace.
        Tracer& tr = tracer();
        if (tr.enabled()) {
          TraceId trace = tr.LookupCommRecord(host_->origin_site(),
                                              flight.record.src_log_pos);
          if (trace != kNoTrace) {
            tr.Instant(trace, "congestion_decrease", "geo", now,
                       host_->self().site, host_->self().index,
                       window_ctl_->window());
          }
        }
      }
    }
    Transmit(flight, /*widen=*/true);
    ArmRetransmit(pos);
    return;
  }
  Transmit(flight, /*widen=*/true);
  ArmRetransmit(pos);
}

void CommDaemon::OnTransmissionAck(const net::Message& msg) {
  TransmissionAckMsg ack;
  if (!TransmissionAckMsg::Decode(msg.body(), &ack).ok()) return;
  if (msg.src.site != dest_) return;
  // Any ack from the destination is progress for the in-order stream; the
  // adaptive retransmit timers defer to it (see last_progress_).
  last_progress_ = host_->network()->simulator()->Now();
  if (window_ctl_) {
    // Cumulative ack interpretation (adaptive mode only — the static path
    // must stay bit-identical): the receiver commits the chain strictly
    // in order, so a node acknowledging position p has committed every
    // earlier position too. Crediting the ack to all flights <= p
    // unsticks a head flight whose own ack frame was dropped — the
    // stream is fine, only the ack was lost, yet exact-match acking
    // would pin the watermark and progress-defer its timer forever.
    bool completed = false;
    for (auto it = flights_.begin();
         it != flights_.end() && it->first <= ack.src_log_pos;) {
      Flight& flight = it->second;
      flight.ack_senders.insert(msg.src);
      if (static_cast<int>(flight.ack_senders.size()) <
          host_->options_.fi + 1) {
        ++it;
        continue;
      }
      // f_i+1 destination nodes confirmed the commit: one is honest.
      // Only the exactly-acked flight yields an RTT sample — a flight
      // completed by cumulative credit lost its own ack, so its round
      // trip measurement includes the dead time (Karn's rule in spirit).
      if (it->first == ack.src_log_pos && flight.first_transmit != 0 &&
          !flight.retransmitted) {
        window_ctl_->OnAck(last_progress_ - flight.first_transmit);
      } else {
        window_ctl_->OnAckNoSample();
      }
      host_->network()->simulator()->Cancel(flight.retransmit_timer);
      acked_out_of_order_.insert(it->first);
      it = flights_.erase(it);
      completed = true;
    }
    if (!completed) return;
    AdvanceAckedWatermark();
    PumpPipeline();
    return;
  }
  auto it = flights_.find(ack.src_log_pos);
  if (it == flights_.end()) return;
  Flight& flight = it->second;
  flight.ack_senders.insert(msg.src);
  if (static_cast<int>(flight.ack_senders.size()) < host_->options_.fi + 1) {
    return;
  }
  // f_i+1 destination nodes confirmed the commit: at least one is honest.
  host_->network()->simulator()->Cancel(flight.retransmit_timer);
  flights_.erase(it);
  acked_out_of_order_.insert(ack.src_log_pos);
  AdvanceAckedWatermark();
  PumpPipeline();
}

void CommDaemon::AdvanceAckedWatermark() {
  // The watermark moves through the (sorted) communication positions of
  // this destination as long as each next one is acknowledged.
  auto comm_it = host_->comm_positions_.find(dest_);
  if (comm_it == host_->comm_positions_.end()) return;
  const std::vector<uint64_t>& positions = comm_it->second;
  for (auto pos_it = std::upper_bound(positions.begin(), positions.end(),
                                      acked_pos_);
       pos_it != positions.end(); ++pos_it) {
    auto acked = acked_out_of_order_.find(*pos_it);
    if (acked == acked_out_of_order_.end()) break;
    acked_pos_ = *pos_it;
    acked_out_of_order_.erase(acked);
  }
}

// --- reserve ------------------------------------------------------------------

void CommDaemon::PollReceiver() {
  sim::Simulator* simulator = host_->network()->simulator();
  poll_timer_ = simulator->Schedule(
      host_->options_.reserve_poll_interval, [this]() {
        poll_timer_ = sim::kInvalidEventId;
        if (active_) return;  // promoted; no more polling
        status_replies_.clear();
        RecvStatusQueryMsg query;
        query.src_site = host_->origin_site();
        Bytes encoded = query.Encode();
        // Ask 2f_i+1 destination nodes so that some group of f_i+1 agrees.
        for (int i = 0; i < 2 * host_->options_.fi + 1; ++i) {
          host_->SendTo(net::NodeId{dest_, i}, kRecvStatusQuery,
                        Bytes(encoded));
        }
        PollReceiver();
      });
}

void CommDaemon::OnRecvStatusReply(const net::Message& msg) {
  if (active_) return;
  RecvStatusReplyMsg reply;
  if (!RecvStatusReplyMsg::Decode(msg.body(), &reply).ok()) return;
  if (msg.src.site != dest_ || reply.src_site != host_->origin_site()) return;
  status_replies_[msg.src] = reply.last_pos;
  int needed = host_->options_.fi + 1;
  if (static_cast<int>(status_replies_.size()) <
      2 * host_->options_.fi + 1) {
    return;
  }
  // The reserve chooses the f_i+1 group that maximizes the lowest reported
  // position: with sorted replies, that is the (f_i+1)-th largest value.
  std::vector<uint64_t> values;
  for (auto& [node, pos] : status_replies_) values.push_back(pos);
  std::sort(values.begin(), values.end(), std::greater<>());
  uint64_t attested = values[needed - 1];
  status_replies_.clear();

  uint64_t expected = 0;
  auto comm_it = host_->comm_positions_.find(dest_);
  if (comm_it != host_->comm_positions_.end() && !comm_it->second.empty()) {
    expected = comm_it->second.back();
  }
  // A substantial gap that persists across polls means the active daemon
  // is failing to deliver (maliciously or otherwise): take over.
  if (expected >= attested + host_->options_.reserve_gap_threshold &&
      attested <= last_attested_) {
    if (++stalled_polls_ >= 2) {
      BP_LOG(kInfo) << host_->self().ToString()
                    << " reserve daemon activating for dest " << dest_;
      active_ = true;
      acked_pos_ = attested;
      next_send_pos_ = attested;
      PumpPipeline();
      return;
    }
  } else {
    stalled_polls_ = 0;
  }
  last_attested_ = attested;
}

}  // namespace blockplane::core
