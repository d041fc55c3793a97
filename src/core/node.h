// A Blockplane node: one of the 3f_i+1 machines a participant runs
// (§III-B). Each node hosts
//
//   * a PBFT replica of the participant's Local Log (the local-commit
//     engine of §IV-B), with the verification-routine hook wired in,
//   * a full copy of the Local Log plus the reception bookkeeping used by
//     the built-in receive verification routine (§IV-C),
//   * the attestation service that signs transmission records and
//     geo-replication requests on behalf of the unit,
//   * the delivery path that turns committed received-records into
//     reception-buffer entries and notifies the participant process.
//
// The same class also hosts *mirror* logs (§V): a node whose `origin_site`
// differs from its own site replicates another participant's Local Log for
// geo-correlated fault tolerance and answers geo-replication requests with
// geo-acks instead of delivery notices.
#ifndef BLOCKPLANE_CORE_NODE_H_
#define BLOCKPLANE_CORE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "core/record.h"
#include "crypto/signer.h"
#include "net/network.h"
#include "pbft/replica.h"

namespace blockplane::core {

class CommDaemon;
class WindowController;

/// The network address of a site's participant (user-space) process.
net::NodeId ParticipantNodeId(net::SiteId site);

/// The address of node `index` in the mirror group replicating
/// `origin_site`'s log at `host_site` (§V).
net::NodeId MirrorNodeId(net::SiteId host_site, net::SiteId origin_site,
                         int index);

/// Per-node user verification routine (§III-C): attests that a record is a
/// valid state transition given this node's replica of the protocol state.
using VerifyRoutine = std::function<bool(const LogRecord&)>;

/// Per-node apply hook: lets a protocol replica (or test) observe every
/// Local Log append in order.
using ApplyHook = std::function<void(uint64_t pos, const LogRecord&)>;

class BlockplaneNode : public net::Host {
 public:
  /// `group` is the PBFT group replicating this log; `origin_site` is the
  /// participant whose Local Log this is (== self.site for a unit node,
  /// different for a mirror).
  BlockplaneNode(net::Network* network, crypto::KeyStore* keys,
                 const BlockplaneOptions& options, pbft::PbftConfig group,
                 net::NodeId self, net::SiteId origin_site);
  ~BlockplaneNode() override;
  BP_DISALLOW_COPY_AND_ASSIGN(BlockplaneNode);

  void HandleMessage(const net::Message& msg) override;

  /// Registers the user verification routine for `routine_id`. Routine 0 is
  /// reserved (accept-all default).
  void RegisterVerifier(uint64_t routine_id, VerifyRoutine routine);
  void SetApplyHook(ApplyHook hook) { apply_hook_ = std::move(hook); }

  /// Submits a record for local commit with this node acting as the client
  /// (used by receive and geo-replication paths).
  void SubmitLocalCommit(const LogRecord& record);
  /// SubmitLocalCommit with an explicit request id and optional broadcast
  /// to every unit replica (escalation path for censored/stuck requests).
  void SubmitRequest(const LogRecord& record, uint64_t req_id,
                     bool broadcast);

  /// Starts the communication daemon for `dest` on this node. `reserve`
  /// daemons stay passive until they detect a delivery gap (§IV-C).
  void StartCommDaemon(net::SiteId dest, bool reserve);

  /// Mirror role only: the other host sites mirroring the same origin.
  /// Peer mirrors are the fetch targets for gap backfill (§V, DESIGN.md
  /// §10): after an outage, the geo stream has moved past this group, and
  /// the missing positions can only come from a mirror that has them.
  void SetMirrorPeerHosts(std::vector<net::SiteId> hosts) {
    mirror_peer_hosts_ = std::move(hosts);
  }

  /// §VI-B: after an outage, "the replica reads the state of the Local Log
  /// from other nodes to catch up with the current state". Call once the
  /// network declares this node recovered.
  void Recover() {
    replica_->CatchUp();
    // If the outage outlived the checkpoint window, plain catch-up cannot
    // find the entries anymore; a certified snapshot can.
    replica_->RequestSnapshot();
  }

  /// Makes this node's daemons stop transmitting (byzantine test hook: a
  /// malicious daemon that pretends to send).
  void MuteDaemons();

  net::NodeId self() const { return self_; }
  net::SiteId origin_site() const { return origin_site_; }
  bool is_mirror() const { return origin_site_ != self_.site; }
  pbft::PbftReplica* replica() { return replica_.get(); }
  const BlockplaneOptions& options() const { return options_; }
  crypto::KeyStore* keys() const { return keys_; }
  net::Network* network() const { return network_; }

  /// The node's copy of the Local Log, 1-based by position.
  const std::map<uint64_t, LogRecord>& log() const { return log_; }
  uint64_t log_size() const { return log_.empty() ? 0 : log_.rbegin()->first; }
  /// Rolling digest chain over applied values (invariant checking).
  const crypto::Digest& chain_digest() const { return chain_digest_; }
  /// Highest log position applied to this node's derived state.
  uint64_t applied_high() const { return applied_high_; }
  /// Number of API records released into the geo stream (== the geo
  /// position of the latest contiguously-applied API record when fg > 0).
  uint64_t api_record_count() const { return api_record_count_; }
  /// API records currently quarantined awaiting gap fill (DESIGN.md §10).
  size_t quarantined_api_records() const { return geo_quarantine_.size(); }
  /// Highest source-log position received (and committed) from `src`.
  uint64_t last_received_pos(net::SiteId src) const;
  /// Number of communication records to `dest` in the log.
  uint64_t comm_records_to(net::SiteId dest) const;
  /// Highest source-log position this node's daemon for `dest` has seen
  /// acknowledged by f_i+1 destination nodes (0 if no daemon here).
  uint64_t daemon_acked(net::SiteId dest) const;

  /// Byzantine test hooks.
  void SetByzantineMode(pbft::ByzantineMode mode) {
    replica_->SetByzantineMode(mode);
  }
  void RefuseAttestations() { refuse_attestations_ = true; }
  /// Makes this node inflate its reception watermark in status replies
  /// (an attack on the daemon-reserve gap detection, §IV-C).
  void LieAboutReception() { lie_about_reception_ = true; }
  /// Makes this node answer read requests with corrupted records (shows
  /// why read-1 trusts a single node while quorum reads do not, §VI-A).
  void LieOnReads() { lie_on_reads_ = true; }

  /// Bound on the mirror payload-digest memo (see mirror_payload_digests_).
  static constexpr size_t kMirrorDigestMemoCap = 1024;
  size_t mirror_digest_memo_size() const {
    return mirror_payload_digests_.size();
  }

 private:
  friend class CommDaemon;

  // -- PBFT hooks --
  /// `value_digest` is the replica's checked digest of `value`, or null
  /// (see PbftReplica::Verifier).
  bool VerifyValue(const Bytes& value, const crypto::Digest* value_digest);
  /// Leader-side admission check for the pipelined proposal window
  /// (DESIGN.md §9): judges a candidate value against a *projected* state
  /// that assumes every earlier admitted value commits, and advances the
  /// projection on success. At window 1 this degenerates to VerifyValue.
  bool AdmitValue(const Bytes& value, const crypto::Digest* value_digest);
  /// Re-bases the admission projection on applied state (called by the
  /// replica on view entry / checkpoint install before replaying the
  /// in-flight values through AdmitValue).
  void ResetAdmission();
  void OnExecute(uint64_t seq, const Bytes& value,
                 const crypto::Digest& digest);
  /// Applies a committed value, whose payload digest the caller has already
  /// computed or checked, to this node's Local Log copy and derived state
  /// (used by both normal execution and log sync).
  void ApplyValue(uint64_t seq, const Bytes& value,
                  const crypto::Digest& value_digest);

  // -- recovery past the checkpoint window (§VI-B) --
  void OnSnapshotCertificate(const pbft::SnapshotMsg& snapshot);
  void OnLogSyncRequest(const net::Message& msg);
  void OnLogSyncReply(const net::Message& msg);
  void TryInstallSyncedLog();

  /// Commit-time geo-contiguity gate for API records (DESIGN.md §10,
  /// quarantine-and-gap-fill). Returns true when the record may enter the
  /// api stream now; false when it was quarantined (side effects deferred
  /// until the gap fills) or dropped (stale duplicate / absurd position).
  bool AdmitApiRecord(uint64_t seq, const LogRecord& record,
                      const crypto::Digest& value_digest);
  /// Api-stream side effects of an applied API record: api position
  /// assignment, communication-stream bookkeeping, daemon notification.
  /// `value_digest` is the committed value's digest, kept for geo-source
  /// attestations.
  void ApplyApiRecord(uint64_t seq, RecordType type, net::SiteId dest_site,
                      uint64_t geo_pos, const crypto::Digest& value_digest);
  /// Releases quarantined records whose geo positions became contiguous.
  void ReleaseQuarantineContiguous();

  /// The built-in receive verification routine (§IV-C).
  bool VerifyReceived(const LogRecord& record) const;
  /// VerifyReceived with an explicit reception watermark, so the admission
  /// projection can run the same checks against projected state.
  bool VerifyReceivedAt(const LogRecord& record, uint64_t last) const;
  /// Verification for mirror-log entries (§V).
  bool VerifyMirrored(const LogRecord& record,
                      const crypto::Digest* value_digest);
  /// The proof-only part of VerifyMirrored, shared with the admission
  /// projection and the backfill buffer. With a `value_digest` it reads and
  /// fills the payload-digest memo; the signature or cert is checked on
  /// every call.
  bool VerifyMirroredProof(const LogRecord& record,
                           const crypto::Digest* value_digest);
  /// True when `certs` holds a cert of `site` carrying f_i+1 valid MACs
  /// over `canonical`; only the first cert naming `site` is tried.
  bool VerifySiteCert(const Bytes& canonical,
                      const std::vector<crypto::QuorumCert>& certs,
                      net::SiteId site) const;
  /// Position of the last communication record to `dest` before `pos`.
  uint64_t PrevCommPos(net::SiteId dest, uint64_t pos) const;

  // -- message handlers --
  /// The two hot receive paths: decode onto the stack, check, apply.
  /// False when the message is rejected at decode or by a sender check.
  bool OnTransmission(const net::Message& msg);
  bool OnAttestResponse(const net::Message& msg);
  void OnAttestRequest(const net::Message& msg);
  void OnRecvStatusQuery(const net::Message& msg);
  void OnGeoReplicate(const net::Message& msg);
  void OnGeoProofBundle(const net::Message& msg);

  // -- mirror gap backfill (§V, DESIGN.md §10) --
  /// A fetched (or ahead-of-stream replicated) mirror entry arrived:
  /// buffer it and drain whatever became contiguous.
  void OnMirrorEntry(const net::Message& msg);
  /// Rate-limited, leader-only kMirrorFetch fan-out to the peer mirror
  /// hosts for the positions between `mirror_high_pos_` and
  /// `target_geo_pos`.
  void MaybeFetchMirrorGap(uint64_t target_geo_pos);
  /// Submits buffered backfill entries that extend the mirror log
  /// contiguously; admission re-verifies every proof.
  void DrainMirrorBackfill();

  void SendTo(net::NodeId dst, net::MessageType type, Bytes payload);

  net::Network* network_;
  sim::Simulator* sim_;
  crypto::KeyStore* keys_;
  std::unique_ptr<crypto::Signer> signer_;
  BlockplaneOptions options_;
  net::NodeId self_;
  net::SiteId origin_site_;

  /// Adaptive PBFT proposal-window controller (DESIGN.md §13); non-null
  /// only when options_.congestion.adaptive. Declared before replica_ so
  /// it outlives the replica whose config hooks call into it.
  std::unique_ptr<WindowController> pbft_window_ctl_;
  std::unique_ptr<pbft::PbftReplica> replica_;
  std::map<uint64_t, LogRecord> log_;
  std::unordered_map<uint64_t, VerifyRoutine> verifiers_;
  ApplyHook apply_hook_;

  /// Reception bookkeeping per source site.
  std::unordered_map<net::SiteId, uint64_t> last_received_pos_;
  /// Communication records per destination (positions, in order).
  std::unordered_map<net::SiteId, std::vector<uint64_t>> comm_positions_;
  /// Geo proofs bundled by the participant, by log position: one
  /// certificate per mirror site (DESIGN.md §14).
  std::unordered_map<uint64_t, std::vector<crypto::QuorumCert>> geo_certs_;

  /// Count of API records (log-commit + communication) executed so far —
  /// the geo-replication stream position of the latest API record.
  uint64_t api_record_count_ = 0;
  /// Per applied API record, by log position: its api (geo) position and
  /// the committed value's digest, which geo-source attestations sign
  /// (it equals Sha256 of the participant's encoding of the record).
  struct ApiPosition {
    uint64_t api_pos = 0;
    crypto::Digest value_digest{};
  };
  std::unordered_map<uint64_t, ApiPosition> api_pos_by_log_pos_;

  /// Quarantined API records (geo_pos -> where/what), waiting for the geo
  /// stream to become contiguous again (DESIGN.md §10). Only populated on
  /// non-mirror nodes with fg > 0 under a byzantine geo-reordering leader;
  /// empty in every honest execution.
  struct QuarantinedApi {
    uint64_t seq = 0;
    RecordType type = RecordType::kLogCommit;
    net::SiteId dest_site = -1;
    crypto::Digest value_digest{};
  };
  std::map<uint64_t, QuarantinedApi> geo_quarantine_;
  /// Maximum distance past the contiguous head a quarantined geo position
  /// may sit; anything further is byzantine garbage and is dropped from the
  /// api stream (its log entry and digest chain are unaffected).
  static constexpr uint64_t kGeoQuarantineSpan = 4096;

  /// Leader-side admission projection (DESIGN.md §9): what the applied
  /// state will look like once every admitted-but-unexecuted value commits.
  /// Floored at applied state on every admission (values can commit through
  /// paths the projection never saw, e.g. catch-up or other leaders' terms)
  /// and re-based by ResetAdmission on view entry / checkpoint install.
  uint64_t adm_api_count_ = 0;
  uint64_t adm_mirror_high_ = 0;
  std::unordered_map<net::SiteId, uint64_t> adm_last_received_;

  /// Mirror role: high watermark of the mirror log and the digest of each
  /// mirrored entry (for re-acks and attestations).
  uint64_t mirror_high_pos_ = 0;
  std::map<uint64_t, crypto::Digest> mirror_digest_by_pos_;
  /// Mirror role: value digest -> payload digest of each kMirrored value
  /// whose payload VerifyMirroredProof decoded and hashed, so the later
  /// checks and the apply of the same value hash nothing (DESIGN.md §7.5).
  /// A pure function of the value bytes, so an entry can never be stale;
  /// apply consumes its entry, and the map is cleared when it reaches
  /// kMirrorDigestMemoCap (values verified but never applied).
  std::map<crypto::Digest, crypto::Digest> mirror_payload_digests_;

  /// Mirror gap backfill (§V, DESIGN.md §10). After an outage the geo
  /// stream has moved on; replicates for positions ahead of
  /// `mirror_high_pos_ + 1` cannot be admitted (mirror logs commit
  /// strictly in geo order), so they are buffered here while the group
  /// leader fetches the hole from a peer mirror. Proof-checked on entry;
  /// re-verified in full at admission.
  std::vector<net::SiteId> mirror_peer_hosts_;
  std::map<uint64_t, LogRecord> mirror_backfill_;
  /// Highest backfill position already submitted for commit (re-based on
  /// the applied watermark at each fetch, so lost submissions are retried).
  uint64_t mirror_backfill_submitted_ = 0;
  /// Highest geo position observed in a replicate — the backfill target.
  uint64_t mirror_gap_target_ = 0;
  sim::SimTime last_mirror_gap_fetch_ = 0;
  static constexpr size_t kMirrorBackfillCap = 4096;

  /// Nodes awaiting an ack for a transmission: (src, src_pos) -> requesters.
  std::map<std::pair<net::SiteId, uint64_t>, std::set<net::NodeId>>
      pending_acks_;

  /// Re-submission bookkeeping for received transmissions. The sender's
  /// retransmissions re-enter OnTransmission; each pass re-submits
  /// the record, and after repeated attempts without a commit the request
  /// escalates from the leader alone to the whole unit, so the backups'
  /// request watchdogs can evict a leader whose lagging execution makes it
  /// reject the (valid) chain pointer forever. The req_id is reused across
  /// attempts so replicas dedup the watch instead of stacking watchdogs.
  struct RecvSubmit {
    uint64_t req_id = 0;
    int attempts = 0;
  };
  std::map<std::pair<net::SiteId, uint64_t>, RecvSubmit> recv_submits_;

  /// Running digest chain over applied values — mirrors the PBFT replica's
  /// state digest, so synced log contents can be verified against a
  /// certified checkpoint digest.
  crypto::Digest chain_digest_{};
  uint64_t applied_high_ = 0;

  /// Pending snapshot-driven log sync.
  uint64_t sync_target_seq_ = 0;
  crypto::Digest sync_target_digest_{};
  std::map<uint64_t, Bytes> sync_buffer_;  // pos -> committed value bytes

  uint64_t next_req_id_ = 1;
  bool refuse_attestations_ = false;
  bool lie_about_reception_ = false;
  bool lie_on_reads_ = false;

  std::vector<std::unique_ptr<CommDaemon>> daemons_;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_NODE_H_
