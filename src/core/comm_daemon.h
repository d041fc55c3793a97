// The communication daemon (§IV-C, Algorithm 2) and the daemon reserve.
//
// A daemon serves one destination participant. It scans its host node's
// copy of the Local Log for communication records to that destination,
// builds transmission records (message + pointer to the previous
// communication record to the same destination), collects f_i+1 signatures
// from local Blockplane nodes into one quorum certificate, pushes the
// record to nodes at the destination, and retransmits until f_i+1 of them
// acknowledge the commit.
//
// Transmissions are pipelined up to a window: the receiver's chain-pointer
// verification guarantees in-order commitment regardless, so the daemon
// never needs to stall on an ack before shipping the next record.
//
// A *reserve* daemon stays passive: it periodically asks >= f_i+1 nodes at
// the destination for the most recent transmission they received from this
// participant (taking the value attested by some group of f_i+1 responders)
// and activates itself when the gap to the local send watermark suggests
// the active daemon is faulty or malicious.
#ifndef BLOCKPLANE_CORE_COMM_DAEMON_H_
#define BLOCKPLANE_CORE_COMM_DAEMON_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/record.h"
#include "net/network.h"

namespace blockplane::core {

class BlockplaneNode;
class WindowController;
struct AttestResponseMsg;

class CommDaemon {
 public:
  CommDaemon(BlockplaneNode* host, net::SiteId dest, bool reserve);
  ~CommDaemon();
  BP_DISALLOW_COPY_AND_ASSIGN(CommDaemon);

  /// Called by the host node when its log (or geo-proof store) grows.
  void NotifyLogAppend();

  /// Routes kTransmissionAck / kRecvStatusReply traffic.
  void OnMessage(const net::Message& msg);

  /// A decoded attestation response (the host node already checked
  /// signer==src): verifies the signature against the flight it attests,
  /// dedups signers, and transmits on the f_i+1-th signature.
  void OnAttestResponse(const AttestResponseMsg& response);

  /// Byzantine test hook: the daemon keeps claiming to work but sends
  /// nothing (the reserve should take over).
  void Mute() { muted_ = true; }

  net::SiteId dest() const { return dest_; }
  bool active() const { return active_; }
  /// Highest contiguously acknowledged source-log position.
  uint64_t acked_watermark() const { return acked_pos_; }

 private:
  /// One pipelined transmission.
  struct Flight {
    TransmissionRecord record;
    /// Attestations collected so far; certified into record.certs once
    /// f_i+1 distinct signers are in (FinalizeProof).
    std::vector<crypto::Signature> sigs;
    bool sigs_complete = false;
    std::set<net::NodeId> ack_senders;
    sim::EventId retransmit_timer = sim::kInvalidEventId;
    /// Time of the first actual wire transmission (0 = not yet sent).
    sim::SimTime first_transmit = 0;
    /// Time of the most recent wire transmission (adaptive timer deadline
    /// base).
    sim::SimTime last_transmit = 0;
    /// The flight was actually retransmitted on the wire: Karn's rule
    /// excludes it from RTT sampling.
    bool retransmitted = false;
  };

  void PumpPipeline();
  /// Called once when a flight's f_i+1 signature set completes: certifies
  /// it into one quorum cert (DESIGN.md §14) that every subsequent
  /// Transmit, widened retransmissions included, ships.
  void FinalizeProof(Flight* flight);
  void OnTransmissionAck(const net::Message& msg);
  void OnRecvStatusReply(const net::Message& msg);
  void Transmit(Flight& flight, bool widen);
  /// Ships every sigs-complete flight that has never been transmitted, in
  /// log order, stopping at the first flight still collecting signatures
  /// (adaptive mode only — static mode ships each flight on completion).
  void TransmitReady();
  void RequestAttestations(uint64_t pos);
  void ArmRetransmit(uint64_t pos);
  /// Retransmit-timer fire: static mode retransmits unconditionally (seed
  /// behavior); adaptive mode defers while acks are flowing and lets only
  /// the head-of-line flight retransmit and report loss (DESIGN.md §13).
  void OnRetransmitTimer(uint64_t pos, sim::SimTime period);
  void AdvanceAckedWatermark();
  void PollReceiver();

  BlockplaneNode* host_;
  net::SiteId dest_;
  bool active_;
  bool muted_ = false;

  uint64_t acked_pos_ = 0;     // contiguous ack watermark
  uint64_t next_send_pos_ = 0;  // highest source-log pos already shipped
  std::map<uint64_t, Flight> flights_;   // by source-log pos
  std::set<uint64_t> acked_out_of_order_;

  /// Adaptive flight window + retransmit timing toward dest_ (DESIGN.md
  /// §13); non-null only when options.congestion.adaptive. Null keeps the
  /// static daemon_window and transmission_retry behavior bit-identical.
  std::unique_ptr<WindowController> window_ctl_;
  /// Open window-stall episode flag: pipeline.daemon_window_stalls counts
  /// episodes (any admission closes one), not pump invocations.
  bool window_stalled_ = false;
  /// Last time any transmission ack arrived from dest_ (adaptive mode).
  /// The receiver commits in order, so flowing acks prove the path and
  /// stream are alive; the adaptive retransmit timer defers to
  /// max(last_transmit, last_progress_) + RTO instead of firing blindly —
  /// destination-side queueing under a deep window would otherwise make
  /// every flight's timer fire spuriously and Karn-freeze the estimator.
  sim::SimTime last_progress_ = 0;

  /// Reserve state.
  sim::EventId poll_timer_ = sim::kInvalidEventId;
  std::map<net::NodeId, uint64_t> status_replies_;
  uint64_t last_attested_ = 0;
  int stalled_polls_ = 0;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_COMM_DAEMON_H_
