// Configuration of one PBFT replication group.
//
// Blockplane instantiates a group per participant (all nodes in one site,
// the "unit" of §III-B); the flat-PBFT baseline instantiates a single group
// with one node per site.
#ifndef BLOCKPLANE_PBFT_CONFIG_H_
#define BLOCKPLANE_PBFT_CONFIG_H_

#include <functional>
#include <vector>

#include "common/macros.h"
#include "net/node_id.h"
#include "sim/sim_time.h"

namespace blockplane::pbft {

struct PbftConfig {
  /// The 3f+1 replicas; nodes[i] has replica index i.
  std::vector<net::NodeId> nodes;
  /// Number of tolerated independent byzantine failures (f_i in the paper).
  int f = 1;

  /// A replica that knows of a pending request but sees no progress for
  /// this long initiates a view change. Wide-area groups need larger values.
  sim::SimTime view_timeout = sim::Milliseconds(60);
  /// Client retry period before broadcasting its request to all replicas.
  sim::SimTime client_retry = sim::Milliseconds(120);
  /// Cap for the view-change escalation timer's exponential backoff. Each
  /// failed view-change attempt doubles the escalation delay starting from
  /// 2 * view_timeout, up to this cap, with uniform jitter on top so that
  /// replicas whose timers fired together under a partition do not
  /// re-synchronize into a retry storm (DESIGN.md §10).
  sim::SimTime view_backoff_cap = sim::Seconds(2);
  /// Uniform jitter added to each escalation delay, in permille of the
  /// backed-off delay (200 = up to +20%). Integer so that replicas compute
  /// bit-identical schedules regardless of libm/optimization level (BP005).
  uint32_t view_backoff_jitter_permille = 200;
  /// A stable checkpoint is taken (and the log truncated) every this many
  /// executed sequence numbers.
  uint64_t checkpoint_interval = 128;

  /// Maximum number of concurrently outstanding (proposed-but-unexecuted)
  /// instances at the leader — the sliding proposal window. 1 reproduces the
  /// paper's group-commit rule ("a leader only attempts to commit a single
  /// batch and does not start the next one until the current one is
  /// committed"); larger values pipeline consensus instances while execution
  /// and replies stay strictly in sequence order (DESIGN.md §9).
  uint64_t window = 1;

  /// Adaptive proposal-window hooks (DESIGN.md §13), installed by the
  /// layer above (core::BlockplaneNode) when adaptive congestion control
  /// is on. PBFT stays independent of core: it only consumes these
  /// callbacks. All default-null, which means the static `window` knob
  /// governs — bit-identical to the seed behavior.
  ///
  /// Effective proposal window consulted at admission time; the replica
  /// clamps the returned value to >= 1. Null = use `window`.
  std::function<uint64_t()> window_provider;
  /// Propose-to-execute latency of each instance this leader proposed in
  /// the current view (the controller's clean "RTT" sample).
  std::function<void(sim::SimTime)> on_commit_latency;
  /// Fired when this replica initiates a view change (churn signal).
  std::function<void()> on_view_change;

  /// When false, message signing/verification is skipped (bench mode).
  bool sign_messages = true;

  int n() const { return static_cast<int>(nodes.size()); }
  /// 2f+1: prepares needed beyond the pre-prepare, commits needed, and the
  /// view-change quorum.
  int quorum() const { return 2 * f + 1; }

  net::NodeId LeaderOf(uint64_t view) const {
    return nodes[view % nodes.size()];
  }

  /// Replica index of `id`, or -1 if not a member.
  int ReplicaIndex(net::NodeId id) const {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == id) return static_cast<int>(i);
    }
    return -1;
  }

  void Validate() const {
    BP_CHECK_MSG(n() >= 3 * f + 1, "PBFT needs n >= 3f+1 nodes");
    BP_CHECK(f >= 1);
  }
};

/// Builds the canonical unit config for a site: nodes (site, 0..3f).
PbftConfig UnitConfig(net::SiteId site, int f);

}  // namespace blockplane::pbft

#endif  // BLOCKPLANE_PBFT_CONFIG_H_
