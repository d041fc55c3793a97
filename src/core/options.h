// Deployment-wide Blockplane options.
#ifndef BLOCKPLANE_CORE_OPTIONS_H_
#define BLOCKPLANE_CORE_OPTIONS_H_

#include "sim/sim_time.h"

namespace blockplane::core {

/// Adaptive per-destination window control (DESIGN.md §13). Off by
/// default: no controllers are constructed and every window/retry knob in
/// BlockplaneOptions behaves exactly as its static value, keeping the
/// paper figures and golden traces bit-identical.
struct CongestionOptions {
  /// Master switch: AIMD WindowControllers replace the static
  /// pbft/participant/daemon window knobs (which become initial values)
  /// and retransmission timers derive from smoothed per-destination RTT.
  bool adaptive = false;
  /// Window clamp bounds for every controller.
  uint64_t min_window = 1;
  uint64_t max_window = 64;
  /// Starting window; 0 inherits the static knob the controller replaces
  /// (daemon_window / participant_window / pbft_window), which is what
  /// keeps a lossless adaptive run on the static schedule.
  uint64_t initial_window = 0;
  /// Floor for RTT-derived retransmission timeouts: a too-optimistic
  /// estimate must not cause a spurious-retransmission storm.
  sim::SimTime min_rto = sim::Milliseconds(5);
};

/// Quorum-certificate aggregation (DESIGN.md §14). Off by default: records
/// carry plain f_i+1 signature vectors and every hop runs VerifyProof, so
/// fig4–fig8, golden traces, and same-seed JSON exports stay bit-identical.
struct QuorumCertOptions {
  /// Master switch: completed proofs are compressed into one compact
  /// crypto::QuorumCert per (decision, site), carried on the wire in place
  /// of the signature vector, and verified once per receiver through the
  /// KeyStore's digest-keyed cert cache.
  bool enabled = false;
};

struct BlockplaneOptions {
  /// Tolerated independent byzantine failures per unit (f_i). Each
  /// participant runs 3*fi + 1 Blockplane nodes.
  int fi = 1;
  /// Tolerated benign geo-correlated (datacenter) failures (f_g). When
  /// positive, each participant mirrors its Local Log on its 2*fg closest
  /// participants and commits require proofs from fg of them.
  int fg = 0;

  /// PBFT view-change timeout inside a unit (intra-datacenter).
  sim::SimTime local_view_timeout = sim::Milliseconds(60);
  /// Client retry for local commits.
  sim::SimTime local_client_retry = sim::Milliseconds(120);
  /// Checkpoint interval for unit logs.
  uint64_t checkpoint_interval = 128;

  /// Retransmission period for unacked transmission records.
  sim::SimTime transmission_retry = sim::Milliseconds(500);
  /// Transmissions a communication daemon keeps in flight per destination.
  /// 1 disables pipelining (each record waits for the previous record's
  /// f_i+1 acks — one extra RTT per message under load).
  size_t daemon_window = 32;
  /// How often reserve nodes poll remote units for reception progress.
  sim::SimTime reserve_poll_interval = sim::Milliseconds(800);
  /// Send/receive watermark gap (in records) that makes a reserve suspect
  /// the active communication daemon; the gap must persist across two
  /// consecutive polls before the reserve takes over.
  uint64_t reserve_gap_threshold = 1;

  /// Time a geo-replicated commit waits for mirror proofs before retrying
  /// the replicate round.
  sim::SimTime geo_retry = sim::Milliseconds(400);

  /// Sliding-window pipelining knobs (DESIGN.md §9). The defaults (all 1)
  /// reproduce the paper's stop-and-wait behaviour exactly; larger values
  /// pipeline the corresponding layer while keeping application-visible
  /// semantics (in-order execution, in-order completion callbacks).
  ///
  /// Concurrently outstanding PBFT proposals per unit/mirror leader.
  uint64_t pbft_window = 1;
  /// Concurrently in-flight geo ops per participant (local commits, geo
  /// rounds, and mirror acks proceed concurrently keyed by geo position;
  /// completion callbacks still fire in submission order).
  uint64_t participant_window = 1;
  /// Concurrently in-flight group-commit batches per Batcher. 1 preserves
  /// the paper's §VI-C group-commit rule.
  size_t batcher_in_flight = 1;

  /// Adaptive per-destination congestion control over the three windows
  /// above (DESIGN.md §13). congestion.adaptive defaults to false.
  CongestionOptions congestion;

  /// Quorum-certificate aggregation (DESIGN.md §14). qc.enabled defaults
  /// to false.
  QuorumCertOptions qc;

  /// Bench-mode switch mirroring the paper's prototype, which "does not
  /// implement creating and checking signatures and digests". Payload
  /// digests are always SHA-256 (DESIGN.md §7).
  bool sign_messages = true;

  /// When positive, each node keeps only this many recent non-communication
  /// Local Log entries in memory (communication records stay until their
  /// transmissions are acknowledged). Benches with multi-megabyte batches
  /// use this to bound memory; 0 keeps everything (tests).
  uint64_t prune_applied_log = 0;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_OPTIONS_H_
