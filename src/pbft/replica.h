// A PBFT replica (Castro & Liskov OSDI'99) with the two Blockplane
// modifications from §IV-B of the paper:
//
//   1. Every committed value carries a record-type annotation (opaque to
//      this module; Blockplane encodes it inside the value).
//   2. When a replica becomes *prepared* it calls a registered verification
//      routine and withholds its commit-phase vote if verification fails.
//
// The replica implements the normal three-phase case, view changes with
// verifiable prepared-certificates, stable checkpoints with log truncation,
// and one-outstanding-batch proposal (the paper's group-commit rule:
// "a leader only attempts to commit a single batch and does not start the
// next one until the current one is committed").
//
// The replica deliberately does not register itself with the Network: a
// Blockplane node multiplexes several protocol stacks behind one NodeId and
// forwards PBFT traffic here via HandleMessage.
#ifndef BLOCKPLANE_PBFT_REPLICA_H_
#define BLOCKPLANE_PBFT_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "crypto/signer.h"
#include "net/network.h"
#include "pbft/config.h"
#include "pbft/message.h"

namespace blockplane::pbft {

/// Byzantine behaviours injectable for testing (§VII lemmas).
enum class ByzantineMode {
  kNone = 0,
  /// Drops all input and produces no output (a crashed or mute node).
  kSilent,
  /// As leader, sends conflicting pre-prepares to different replicas.
  kEquivocate,
  /// Sends prepare/commit votes with corrupted digests.
  kBogusVotes,
  /// Never passes the verification routine (withholds commit votes).
  kRejectVerification,
  /// As a Blockplane unit leader: censors the first client request it sees
  /// (never proposing it) while continuing to propose later ones, and
  /// bypasses the honest admission projection. Downstream this yields
  /// non-contiguous geo positions in the unit log — the byzantine-leader
  /// geo-reorder attack the quarantine-and-gap-fill defense exists for
  /// (DESIGN.md §10).
  kReorderGeo,
};

class PbftReplica : public net::Host {
 public:
  /// Called for every committed value, in sequence order, with its
  /// payload digest (already checked against the value, so callers need
  /// not hash it again).
  using ExecuteCallback = std::function<void(
      uint64_t seq, const Bytes& value, const Digest& digest)>;
  /// The Blockplane verification-routine hook. Returning false withholds
  /// this replica's commit vote for the value. `digest` is the value's
  /// payload digest, already checked against it, or null where the value
  /// has no instance yet (a request a backup forwards).
  using Verifier =
      std::function<bool(const Bytes& value, const Digest* digest)>;

  PbftReplica(net::Network* network, crypto::KeyStore* keys,
              PbftConfig config, net::NodeId self, ExecuteCallback execute);

  BP_DISALLOW_COPY_AND_ASSIGN(PbftReplica);

  /// Registers this replica as the network host for its NodeId (standalone
  /// deployments only; embedded deployments forward messages instead).
  void RegisterWithNetwork();

  /// Feeds one PBFT message (types kRequest..kNewView).
  void HandleMessage(const net::Message& msg) override;

  void SetVerifier(Verifier verifier) { verifier_ = std::move(verifier); }

  /// Leader-side admission check for the sliding proposal window. The
  /// final-mode verifier (SetVerifier) judges values against *applied*
  /// state, which only matches propose time under stop-and-wait; with
  /// `config.window > 1` the leader must instead judge new values against a
  /// *projected* state that assumes every earlier admitted value commits.
  /// `admit` is called once per admitted value in proposal order (and must
  /// advance its projection on success); `reset` re-bases the projection on
  /// applied state. The replica calls `reset` on view entry and checkpoint
  /// install, then replays all decided-or-carried-but-unexecuted values
  /// through `admit` in sequence order to rebuild the projection. When no
  /// admission hook is set the plain verifier is used (seed behaviour,
  /// sufficient at window 1). `digest` is as for Verifier: null for
  /// carried-over values replayed without an instance.
  using AdmissionCheck =
      std::function<bool(const Bytes& value, const Digest* digest)>;
  void SetAdmission(AdmissionCheck admit, std::function<void()> reset) {
    admission_ = std::move(admit);
    admission_reset_ = std::move(reset);
  }
  void SetByzantineMode(ByzantineMode mode) { byzantine_ = mode; }

  net::NodeId self() const { return self_; }
  uint64_t view() const { return view_; }
  net::NodeId leader() const { return config_.LeaderOf(view_); }
  bool IsLeader() const { return leader() == self_; }
  uint64_t last_executed() const { return last_executed_; }
  uint64_t last_stable_checkpoint() const { return last_stable_; }
  const PbftConfig& config() const { return config_; }

  /// Committed values by sequence number (test/diagnostic access).
  const std::map<uint64_t, Bytes>& executed_log() const {
    return executed_log_;
  }

  /// Asks peers for committed entries this replica is missing (used after
  /// recovery, and automatically when a replica falls behind). §VI-B.
  void CatchUp();

  /// Asks peers for their latest stable-checkpoint certificate — the
  /// recovery path when this replica is behind the garbage-collection
  /// window and plain CatchUp cannot find the entries anymore.
  void RequestSnapshot();

  /// Invoked with a verified snapshot certificate when this replica lags
  /// behind it. The application fetches and verifies the log contents,
  /// then calls InstallCheckpoint. Without a callback the checkpoint is
  /// installed directly (the executed values themselves are skipped).
  using SnapshotCallback = std::function<void(const SnapshotMsg&)>;
  void SetSnapshotCallback(SnapshotCallback callback) {
    snapshot_callback_ = std::move(callback);
  }

  /// Fast-forwards this replica to a certified checkpoint.
  void InstallCheckpoint(uint64_t seq, const Digest& state_digest);

 private:
  struct Instance {
    uint64_t view = 0;
    Digest digest{};
    bool has_preprepare = false;
    Signature preprepare_sig;
    Bytes value;
    uint64_t client_token = 0;
    uint64_t req_id = 0;
    /// A vote carries the digest it endorsed; votes that arrived before the
    /// pre-prepare are only counted if their digest matches it.
    struct Vote {
      Digest digest{};
      Signature sig;
    };
    /// Prepare votes by replica index (backups only), kept as signatures so
    /// prepared-certificates can be carried into view changes.
    std::map<int32_t, Vote> prepares;
    std::map<int32_t, Vote> commits;
    uint64_t commit_view = 0;  // view whose commit votes were collected
    bool sent_prepare = false;
    bool sent_commit = false;
    bool prepared = false;
    bool committed = false;
    /// Prepared but the verification routine rejected; re-tried as local
    /// state advances (the routine may depend on earlier executions).
    /// Indexed by PbftReplica::verify_pending_.
    bool verify_pending = false;
    sim::EventId progress_timer = sim::kInvalidEventId;
    /// Causal trace of the request driving this instance (0 = untraced).
    /// Set from the pre-prepare (or the leader's pending request) and
    /// backfilled from the first traced vote that arrives before it.
    uint64_t trace_id = 0;
    /// Phase timestamps for the latency breakdown: when this replica first
    /// saw the instance, when it prepared, and when it committed. Spans are
    /// emitted at execution time (ExecuteReady).
    sim::SimTime ts_started = 0;
    sim::SimTime ts_prepared = 0;
    sim::SimTime ts_committed = 0;
  };

  /// A client request queued at the leader, with its causal trace and the
  /// time it entered the proposal queue (for queue-wait trace spans).
  struct PendingRequest {
    RequestMsg request;
    uint64_t trace_id = 0;
    sim::SimTime enqueued = 0;
  };

  // -- message handlers --
  void OnRequest(const net::Message& msg);
  void OnFetchCommitted(const net::Message& msg);
  void OnCommittedEntry(const net::Message& msg);
  void OnFetchSnapshot(const net::Message& msg);
  void OnSnapshot(const net::Message& msg);
  void OnCheckpoint(const net::Message& msg);
  void OnViewChange(const net::Message& msg);
  void OnNewView(const net::Message& msg);

  // -- three-phase receive path --
  /// kPrePrepare: decode + leader/signer/digest/signature checks, then
  /// OnPrePrepareVerified. False when the message is rejected.
  bool OnPrePrepare(const net::Message& msg);
  /// kPrepare/kCommit: decode + membership + signature check, then
  /// OnVoteVerified. False when the message is rejected.
  bool OnVote(const net::Message& msg);
  /// The state-touching remainder of each handler.
  void OnPrePrepareVerified(PrePrepareMsg pp, uint64_t trace_id);
  void OnVoteVerified(const VoteMsg& vote, int sender, uint64_t trace_id);

  // -- leader logic --
  void MaybeProposeNext();
  /// The proposal window in force right now: the adaptive provider when
  /// installed (clamped to >= 1), else the static config window.
  uint64_t EffectiveWindow() const;
  /// `digest` is ComputeDigest(value), computed once before admission.
  void Propose(uint64_t client_token, uint64_t req_id, Bytes value,
               const Digest& digest, uint64_t trace_id,
               sim::SimTime enqueued);
  /// Highest sequence number a leader may assign: the low watermark
  /// (last stable checkpoint) plus a span that keeps the un-truncated log
  /// bounded even when checkpoints lag the window.
  uint64_t HighWatermark() const;
  /// Propose-time admission: kRejectVerification parity, empty-value
  /// passthrough, then the projected-state admission hook (falling back to
  /// the final-mode verifier when no hook is installed).
  bool AdmitValue(const Bytes& value, const Digest* digest);
  /// Re-bases the admission projection on applied state, then replays every
  /// decided-or-carried-but-unexecuted value (`extra`, keyed by seq, wins
  /// over committed instances) through the admission hook in seq order.
  void RebuildAdmissionProjection(
      const std::map<uint64_t, const Bytes*>& extra);

  // -- phase transitions --
  /// `instance` is instances_[seq]. Both may run ExecuteReady (MaybePrepared
  /// through SendCommitVote), which can erase instances: no caller touches
  /// `instance` after either returns.
  void MaybePrepared(uint64_t seq, Instance& instance);
  void MaybeCommitted(uint64_t seq, Instance& instance);
  void SendCommitVote(uint64_t seq);
  void RetryPendingVerifications();
  /// Number of votes in `votes` matching the instance digest.
  template <typename Map>
  static int CountMatching(const Map& votes, const Digest& digest);
  void ExecuteReady();
  void SendReply(const Instance& instance, uint64_t seq);
  void TakeCheckpoint(uint64_t seq);

  // -- view changes --
  /// `instance` is instances_[seq].
  void ArmProgressTimer(uint64_t seq, Instance& instance);
  void CancelProgressTimer(Instance* instance);
  /// (Re-)arms the censorship watchdog for a watched client request; when
  /// it fires without the request executing, the leader is suspect.
  void ArmRequestWatchdog(const std::pair<uint64_t, uint64_t>& key);
  void StartViewChange(uint64_t new_view);
  void MaybeAbandonViewChange();
  /// Installs view `v` from a validated set of view-change messages,
  /// recomputing the carried-over proposals deterministically.
  void EnterView(uint64_t v, const std::vector<ViewChangeMsg>& vcs);
  bool ValidatePreparedProof(const PreparedProof& proof) const;
  void MaybeSendNewView(uint64_t v);

  // -- plumbing --
  /// Encodes the payload once and fans it out by refcount bump: every
  /// recipient's Message shares one allocation (encode-once broadcast).
  /// `trace_id` (if non-zero) tags every outgoing Message for causal
  /// tracing; it rides the simulator Message out-of-band, not the wire.
  void Broadcast(net::MessageType type, Bytes payload, uint64_t trace_id = 0);
  void SendTo(net::NodeId dst, net::MessageType type, Bytes payload,
              uint64_t trace_id = 0);
  /// Sends an already-shared payload without copying (broadcast fan-out,
  /// verbatim request forwarding).
  void SendShared(net::NodeId dst, net::MessageType type,
                  net::PayloadPtr payload, uint64_t trace_id = 0);
  Signature Sign(const Bytes& canonical) const;
  /// Signs the vote's canonical body, hashed in place.
  Signature SignVote(const VoteMsg& vote) const;
  bool VerifySig(const Bytes& canonical, const Signature& sig) const;
  /// Distinct group members other than `excluded` with a valid signature
  /// over `body` in `sigs` (a certificate's weight).
  int ValidSigners(const Bytes& body, const std::vector<Signature>& sigs,
                   net::NodeId excluded = {}) const;
  bool RunVerifier(const Bytes& value, const Digest* digest) const;

  net::Network* network_;
  sim::Simulator* sim_;
  crypto::KeyStore* keys_;
  std::unique_ptr<crypto::Signer> signer_;
  PbftConfig config_;
  net::NodeId self_;
  int index_;
  ExecuteCallback execute_;
  Verifier verifier_;
  AdmissionCheck admission_;
  std::function<void()> admission_reset_;
  ByzantineMode byzantine_ = ByzantineMode::kNone;

  uint64_t view_ = 0;
  bool in_view_change_ = false;
  uint64_t target_view_ = 0;
  sim::EventId view_change_timer_ = sim::kInvalidEventId;
  /// Consecutive view-change escalations without entering a view. Drives
  /// the capped exponential backoff of the escalation timer; reset on view
  /// entry and when a lone view change is abandoned.
  uint64_t viewchange_attempts_ = 0;
  /// Per-replica jitter stream for the view-change backoff. Seeded
  /// deterministically from this replica's identity (NOT forked from the
  /// simulator's root RNG — forking there would perturb every downstream
  /// fork and break golden traces).
  sim::Rng backoff_rng_;
  /// kReorderGeo: set once the byzantine leader has censored its first
  /// request.
  bool reorder_stashed_ = false;

  uint64_t next_seq_ = 1;  // leader: next sequence number to assign
  /// True while the current window-stall episode is open: the leader had
  /// queued requests it could not propose. pbft_window_stalls counts
  /// episode openings, not pump invocations; any successful proposal
  /// (partial drain included) closes the episode.
  bool window_stalled_ = false;
  std::deque<PendingRequest> pending_requests_;
  /// Requests already assigned a sequence number (leader-side dedup).
  std::set<std::pair<uint64_t, uint64_t>> assigned_requests_;

  std::map<uint64_t, Instance> instances_;  // by seq
  /// Seqs whose instance was marked verify_pending, in ascending order, so
  /// RetryPendingVerifications need not walk every instance. May hold seqs
  /// whose instance has since been dropped or re-created; those are pruned
  /// on the next retry.
  std::set<uint64_t> verify_pending_;
  uint64_t last_executed_ = 0;
  uint64_t last_stable_ = 0;
  std::map<uint64_t, Bytes> executed_log_;
  Digest state_digest_{};  // rolling digest chained over executed values

  /// Per-client dedup of executed requests and cached replies. Request ids
  /// are tracked as sets: concurrent submissions may execute out of id
  /// order under network jitter.
  std::unordered_map<uint64_t, std::set<uint64_t>> executed_reqs_;
  std::unordered_map<uint64_t, std::map<uint64_t, Bytes>> cached_replies_;

  /// Checkpoint votes: seq -> digest -> signatures by replica index.
  std::map<uint64_t, std::map<Digest, std::map<int32_t, Signature>>>
      checkpoint_votes_;
  /// The latest stable checkpoint's certificate (2f+1 signatures), served
  /// to recovering peers.
  SnapshotMsg stable_snapshot_;
  SnapshotCallback snapshot_callback_;

  /// View-change messages per target view, by replica index.
  std::map<uint64_t, std::map<int32_t, ViewChangeMsg>> view_changes_;

  /// Requests observed via forwarding, awaiting leader progress. The
  /// request payload is kept so that, on view entry, every backup can
  /// re-forward it to the new leader immediately and restart the watchdog
  /// with a full timeout — otherwise watchdogs armed before the view
  /// change depose each new leader before a client retransmission can
  /// reach it, and the request starves through a view-change storm.
  struct WatchedRequest {
    sim::EventId timer = sim::kInvalidEventId;
    net::PayloadPtr payload;  // the encoded kRequest body, shared
    uint64_t trace_id = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, WatchedRequest> watched_requests_;

  /// After a view change: the digest each carried-over seq must have in the
  /// current view. Pre-prepares for these seqs are accepted only on match.
  std::map<uint64_t, Digest> expected_digests_;
};

}  // namespace blockplane::pbft

#endif  // BLOCKPLANE_PBFT_REPLICA_H_
