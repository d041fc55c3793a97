// The user-space handle of one participant (§III): the programming model's
// log-commit / read / send / receive interface, plus the geo-correlated
// commit orchestration of §V.
//
// A Participant is the trusted user-space process of its organization; it
// drives the protocol P. Durability and byzantine masking come from the
// participant's 3f_i+1 Blockplane nodes, which the Participant talks to
// through a PBFT client (local commits), attestation requests, and delivery
// notices (of which it requires f_i+1 matching copies before believing a
// received message).
#ifndef BLOCKPLANE_CORE_PARTICIPANT_H_
#define BLOCKPLANE_CORE_PARTICIPANT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/trace.h"
#include "core/node.h"
#include "core/options.h"
#include "core/wire.h"
#include "pbft/client.h"

namespace blockplane::core {

class WindowController;

/// How a Local Log entry is read back (§VI-A).
enum class ReadStrategy {
  /// Served by the closest node with the entry's validity proof.
  kReadOne,
  /// Waits for 2f_i+1 identical responses.
  kReadQuorum,
  /// Commits the read to the log like any entry (strongest).
  kLinearizable,
};

class Participant : public net::Host {
 public:
  /// Called with the Local Log position once the operation is durable (and,
  /// when fg > 0, geo-replicated to fg other participants).
  using CommitCallback = std::function<void(uint64_t pos)>;
  using ReceiveHandler =
      std::function<void(net::SiteId src, const Bytes& payload)>;
  using ReadCallback = std::function<void(Status, LogRecord)>;

  /// `mirror_sites`: the 2*fg participants mirroring this site (empty when
  /// fg == 0).
  Participant(net::Network* network, crypto::KeyStore* keys,
              BlockplaneOptions options, pbft::PbftConfig unit_group,
              net::SiteId site, std::vector<net::SiteId> mirror_sites);
  ~Participant() override;
  BP_DISALLOW_COPY_AND_ASSIGN(Participant);

  // --- the paper's user-level interface -------------------------------------

  /// log-commit: appends an arbitrary value to the Local Log, surviving the
  /// configured fault-tolerance level and ordered after all previous
  /// commits.
  void LogCommit(Bytes payload, uint64_t routine_id, CommitCallback done);

  /// send: commits a communication record; the communication daemons take
  /// it from there. `done` fires at local (plus geo, if fg>0) commitment —
  /// not at remote delivery.
  void Send(net::SiteId dest, Bytes payload, uint64_t routine_id,
            CommitCallback done);

  /// receive: next unconsumed message from `src`, in source-log order.
  bool TryReceive(net::SiteId src, Bytes* payload);
  /// Push-style receive (drains the same queues as TryReceive).
  void SetReceiveHandler(ReceiveHandler handler);

  /// read: fetches Local Log entry `pos` under the given strategy.
  void Read(uint64_t pos, ReadStrategy strategy, ReadCallback done);

  // --- geo failover (§V) ------------------------------------------------------

  /// Acts as the primary for `origin` (a participant this site mirrors):
  /// commits into the local mirror log and geo-replicates to the other
  /// mirror sites. Used after `origin`'s datacenter fails.
  void MirrorCommit(net::SiteId origin, Bytes payload, uint64_t routine_id,
                    CommitCallback done);

  /// Must be told the mirror topology before MirrorCommit: the sites
  /// mirroring `origin` (including this one).
  void SetMirrorPeers(net::SiteId origin, std::vector<net::SiteId> peers);

  void HandleMessage(const net::Message& msg) override;

  net::SiteId site() const { return site_; }
  uint64_t commits_completed() const { return commits_completed_; }
  const BlockplaneOptions& options() const { return options_; }

 private:
  struct GeoRound {
    uint64_t unit_pos = 0;  // 0 for MirrorCommit rounds
    uint64_t geo_pos = 0;
    net::SiteId origin;     // whose log stream
    Bytes record_encoded;   // the replicated record R
    crypto::Digest digest;  // Sha256(R)
    std::vector<crypto::Signature> source_sigs;  // f_i+1 attestations
    /// `source_sigs` certified once when the f_i+1-th attestation lands
    /// (DESIGN.md §14), so timer-driven replicate retries re-ship the same
    /// certificate.
    std::vector<crypto::QuorumCert> source_certs;
    std::map<net::SiteId, std::set<net::NodeId>> ack_nodes;
    /// Signatures accumulating toward a site's f_i+1 threshold.
    std::map<net::SiteId, std::vector<crypto::Signature>> ack_sigs_partial;
    /// Sites whose f_i+1-signature proof is complete.
    std::map<net::SiteId, std::vector<crypto::Signature>> ack_sigs;
    std::vector<net::SiteId> targets;  // mirror sites to replicate to
    bool is_communication = false;
    CommitCallback done;
    sim::EventId retry_timer = sim::kInvalidEventId;
    /// Time the replicate fan-out first hit the wire (0 = not yet); the
    /// geo-ack round trip is sampled from it under Karn's rule.
    sim::SimTime replicate_sent = 0;
    /// Time of the most recent fan-out (adaptive timer deadline base).
    sim::SimTime last_sent = 0;
    /// The replicate fan-out was retried at least once: Karn's rule
    /// excludes this round from RTT sampling.
    bool retried = false;
    /// Causal trace of the API operation driving this round (0 = untraced)
    /// plus the phase timestamps the "attest" / "geo_mirror" spans cover.
    TraceId trace = kNoTrace;
    sim::SimTime ts_local = 0;
    sim::SimTime ts_attested = 0;
  };

  struct ApiOp {
    LogRecord record;
    CommitCallback done;
    net::SiteId mirror_origin = -1;  // >= 0 for MirrorCommit ops
    /// Trace spanning the whole operation: submit -> local commit ->
    /// attestation -> geo mirror -> done (see common/trace.h).
    TraceId trace = kNoTrace;
    /// When the op entered the queue (for queue-wait trace spans).
    sim::SimTime enqueued = 0;
  };

  /// A submitted op waiting for its geo round (window slot). Completion
  /// callbacks fire strictly in submission order: a finished op waits in
  /// this deque until every earlier op finished too (DESIGN.md §9).
  struct InflightOp {
    ApiOp op;
    uint64_t result_pos = 0;
    bool finished = false;
  };

  void EnqueueOp(ApiOp op);
  /// Starts queued ops while the in-flight window has room (mirror ops run
  /// exclusively: they wait for the window to drain and block it while
  /// active).
  void PumpOps();
  /// Fires completion callbacks for the maximal finished prefix of
  /// `inflight_`, preserving submission order.
  void DrainFinished();
  void OnLocalCommitted(uint64_t geo_pos, uint64_t unit_pos);
  void StartGeoRound(const ApiOp& op, uint64_t unit_pos);
  void ReplicateRound(uint64_t geo_pos);
  void OnAttestResponse(const net::Message& msg);
  void OnGeoAck(const net::Message& msg);
  void FinishGeoRound(uint64_t geo_pos);
  void OnDeliverNotice(const net::Message& msg);
  /// Byzantine-leader geo-reorder defense (DESIGN.md §10): a unit node
  /// reports that the contiguous geo stream is stuck; nudge the pending
  /// PBFT submissions so the backups' watchdogs evict the censoring leader.
  void OnGeoGapNotice(const net::Message& msg);
  void OnRecvStatusReply(const net::Message& msg);
  void OnReadReply(const net::Message& msg);
  void StartMirrorOp();
  void ProceedMirrorOp();
  void CommitMirrorRecord(net::SiteId origin, uint64_t geo_pos);
  void OnMirrorEntry(const net::Message& msg);
  pbft::PbftClient* MirrorClient(net::SiteId origin);
  void SendTo(net::NodeId dst, net::MessageType type, Bytes payload);

  net::Network* network_;
  sim::Simulator* sim_;
  crypto::KeyStore* keys_;
  std::unique_ptr<crypto::Signer> signer_;
  BlockplaneOptions options_;
  pbft::PbftConfig unit_group_;
  net::SiteId site_;
  net::NodeId self_;
  std::vector<net::SiteId> mirror_sites_;
  std::unique_ptr<pbft::PbftClient> client_;
  std::map<net::SiteId, std::unique_ptr<pbft::PbftClient>> mirror_clients_;
  std::map<net::SiteId, std::vector<net::SiteId>> mirror_peers_;

  /// Queued API operations not yet submitted (the window was full).
  std::deque<ApiOp> ops_;
  /// Submitted ops in submission order, up to `participant_window` of them
  /// (1 = the paper's group-commit rule; batching happens in the payload).
  std::deque<InflightOp> inflight_;
  /// A MirrorCommit reconciliation/commit is active; it runs exclusively.
  bool mirror_op_active_ = false;
  /// Adaptive geo-round windows, one per mirror site (DESIGN.md §13);
  /// empty unless options.congestion.adaptive and fg > 0. The effective
  /// window is the minimum across mirrors: a geo round only completes when
  /// fg sites prove it, so the slowest mirror gates the pipeline.
  std::map<net::SiteId, std::unique_ptr<WindowController>> geo_ctl_;
  /// Open window-stall episode flag (pipeline.participant_window_stalls
  /// counts episodes, closed by any admission — not pump invocations).
  bool geo_window_stalled_ = false;
  /// Last time any geo ack arrived (adaptive mode): flowing acks prove
  /// the mirror paths are alive, so adaptive retries defer to
  /// max(round.last_sent, last_geo_progress_) + RTO — mirror-side commit
  /// queueing would otherwise trigger spurious re-sends that Karn-freeze
  /// the RTT estimators.
  sim::SimTime last_geo_progress_ = 0;
  /// Highest geo position whose round completed (own stream).
  uint64_t geo_seq_ = 0;
  /// Highest geo position assigned to a submitted op (own stream); rounds
  /// for positions (geo_seq_, geo_assign_] are in flight.
  uint64_t geo_assign_ = 0;
  uint64_t commits_completed_ = 0;
  /// Last time a geo gap notice triggered a NudgePending (rate limiting).
  sim::SimTime last_gap_nudge_ = 0;
  /// Concurrent geo rounds keyed by geo position. Mirror-acting rounds use
  /// the origin's stream positions, but run exclusively (no own-stream
  /// round coexists), so the key space never collides.
  std::map<uint64_t, std::unique_ptr<GeoRound>> geo_rounds_;

  /// Mirror status collection for MirrorCommit: per site, per node, the
  /// reported mirror-log high position. Before acting as primary, the
  /// participant reconciles its local mirror with the most advanced peer
  /// (§V: entries are on fg+1 participants, so some reachable mirror has
  /// everything that ever committed).
  std::map<net::SiteId, std::map<net::NodeId, uint64_t>> mirror_status_;
  net::SiteId mirror_status_origin_ = -1;
  sim::EventId mirror_op_timer_ = sim::kInvalidEventId;
  bool mirror_op_proceeded_ = false;
  /// Once acting as primary for an origin, the next stream position —
  /// the reconciliation round only runs at takeover.
  std::map<net::SiteId, uint64_t> acting_high_;

  // --- receive machinery -------------------------------------------------------
  struct NoticeKey {
    net::SiteId src;
    uint64_t pos;
    crypto::Digest digest;
    bool operator<(const NoticeKey& other) const {
      if (src != other.src) return src < other.src;
      if (pos != other.pos) return pos < other.pos;
      return digest < other.digest;
    }
  };
  std::map<NoticeKey, std::set<net::NodeId>> notice_votes_;
  /// Confirmed but not yet in-order messages: src -> (pos -> (prev, data)).
  std::map<net::SiteId, std::map<uint64_t, std::pair<uint64_t, Bytes>>>
      ready_;
  std::map<net::SiteId, uint64_t> delivered_pos_;
  std::map<net::SiteId, std::deque<Bytes>> receive_queues_;
  ReceiveHandler receive_handler_;

  // --- read machinery ------------------------------------------------------------
  /// One distinct answer to a quorum read: "not found", or a record whose
  /// content (SameContent) the voting nodes agree on. The record is the
  /// first matching reply's, proofs included.
  struct ReadAnswer {
    bool found = false;
    LogRecord record;
    int votes = 0;
  };
  struct PendingRead {
    uint64_t pos = 0;
    ReadStrategy strategy;
    ReadCallback done;
    /// Quorum reads: each unit node's first reply votes once, so there are
    /// at most n distinct answers.
    std::set<net::NodeId> replied;
    std::vector<ReadAnswer> answers;
    /// read-1 fallback: if the closest node is down, widen to the unit.
    sim::EventId retry_timer = sim::kInvalidEventId;
  };
  std::map<uint64_t, PendingRead> reads_;  // by read id
  uint64_t next_read_id_ = 1;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_PARTICIPANT_H_
