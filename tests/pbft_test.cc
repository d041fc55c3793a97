// PBFT tests: normal case, crash faults, leader failure / view change,
// byzantine behaviours (equivocation, bogus votes, censorship), the
// Blockplane verification-routine hook, checkpoint garbage collection, and
// agreement invariants under parameter sweeps.
#include "pbft/replica.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "pbft/client.h"
#include "sim/simulator.h"

namespace blockplane::pbft {
namespace {

using net::NodeId;
using net::Topology;
using sim::Milliseconds;
using sim::Seconds;

/// A single-site PBFT group with one client, all wired to one simulator.
class PbftHarness {
 public:
  explicit PbftHarness(int f, uint64_t seed = 1,
                       Topology topology = Topology::SingleSite(),
                       uint64_t window = 1)
      : simulator_(seed),
        network_(&simulator_, std::move(topology)) {
    config_ = UnitConfig(/*site=*/0, f);
    config_.window = window;
    if (network_.topology().num_sites() > 1) {
      // Spread replicas across sites for wide-area tests.
      config_.nodes.clear();
      for (int i = 0; i < 3 * f + 1; ++i) {
        config_.nodes.push_back(
            NodeId{i % network_.topology().num_sites(), i / 4});
      }
      config_.view_timeout = Milliseconds(400);
      config_.client_retry = Milliseconds(800);
    }
    for (const NodeId& node : config_.nodes) {
      auto replica = std::make_unique<PbftReplica>(
          &network_, &keys_, config_, node,
          [this, node](uint64_t seq, const Bytes& value,
                       const Digest& digest) {
            // The callback's digest replaces a re-hash downstream, so it
            // must be the value's own digest in every scenario below.
            EXPECT_EQ(digest, ComputeDigest(value)) << "seq " << seq;
            executions_.push_back({node, seq, value});
          });
      replica->RegisterWithNetwork();
      replicas_.push_back(std::move(replica));
    }
    client_ = std::make_unique<PbftClient>(&network_, config_,
                                           NodeId{0, 1000});
  }

  /// Submits a value and runs until the client accepts it (or deadline).
  bool CommitAndWait(const std::string& value,
                     sim::SimTime deadline = Seconds(30)) {
    uint64_t before = client_->completed();
    client_->Submit(ToBytes(value), nullptr);
    return simulator_.RunUntilCondition(
        [&] { return client_->completed() > before; },
        simulator_.Now() + deadline);
  }

  /// The executed log of replica `index` as strings.
  std::vector<std::string> LogOf(int index) const {
    std::vector<std::string> result;
    for (auto& [seq, value] : replicas_[index]->executed_log()) {
      result.push_back(ToString(value));
    }
    return result;
  }

  /// Asserts all non-silent replicas executed identical logs.
  void ExpectAgreement(const std::vector<int>& skip = {}) {
    std::vector<std::string> reference;
    bool have_reference = false;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (std::find(skip.begin(), skip.end(), static_cast<int>(i)) !=
          skip.end()) {
        continue;
      }
      auto log = LogOf(static_cast<int>(i));
      if (!have_reference) {
        reference = log;
        have_reference = true;
      } else {
        EXPECT_EQ(log, reference) << "replica " << i << " diverged";
      }
    }
  }

  struct Execution {
    NodeId node;
    uint64_t seq;
    Bytes value;
  };

  sim::Simulator simulator_;
  net::Network network_;
  crypto::KeyStore keys_;
  PbftConfig config_;
  std::vector<std::unique_ptr<PbftReplica>> replicas_;
  std::unique_ptr<PbftClient> client_;
  std::vector<Execution> executions_;
};

TEST(PbftTest, CommitsSingleValue) {
  PbftHarness harness(/*f=*/1);
  ASSERT_TRUE(harness.CommitAndWait("hello"));
  // All 4 replicas execute it at seq 1.
  EXPECT_EQ(harness.executions_.size(), 4u);
  for (const auto& execution : harness.executions_) {
    EXPECT_EQ(execution.seq, 1u);
    EXPECT_EQ(ToString(execution.value), "hello");
  }
}

TEST(PbftTest, CommitsManyValuesInOrder) {
  PbftHarness harness(1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(harness.CommitAndWait("v" + std::to_string(i)));
  }
  harness.simulator_.RunFor(Seconds(1));
  for (int r = 0; r < 4; ++r) {
    auto log = harness.LogOf(r);
    ASSERT_EQ(log.size(), 20u) << "replica " << r;
    for (int i = 0; i < 20; ++i) EXPECT_EQ(log[i], "v" + std::to_string(i));
  }
}

TEST(PbftTest, PipelinedSubmissionsAllCommit) {
  PbftHarness harness(1);
  // Submit 10 at once; leader proposes one batch at a time (group commit).
  for (int i = 0; i < 10; ++i) {
    harness.client_->Submit(ToBytes("c" + std::to_string(i)), nullptr);
  }
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.client_->completed() == 10; }, Seconds(30)));
  harness.simulator_.RunFor(Seconds(1));
  harness.ExpectAgreement();
  EXPECT_EQ(harness.LogOf(0).size(), 10u);
}

TEST(PbftTest, ToleratesCrashedBackup) {
  PbftHarness harness(1);
  harness.network_.Crash(NodeId{0, 2});  // a backup
  ASSERT_TRUE(harness.CommitAndWait("survives"));
  harness.ExpectAgreement({2});
}

TEST(PbftTest, ToleratesFCrashedBackups) {
  PbftHarness harness(/*f=*/2);  // 7 replicas
  harness.network_.Crash(NodeId{0, 3});
  harness.network_.Crash(NodeId{0, 5});
  ASSERT_TRUE(harness.CommitAndWait("two down"));
  harness.ExpectAgreement({3, 5});
}

TEST(PbftTest, StallsBeyondFCrashes) {
  PbftHarness harness(1);
  harness.network_.Crash(NodeId{0, 1});
  harness.network_.Crash(NodeId{0, 2});  // f+1 = 2 crashed backups
  EXPECT_FALSE(harness.CommitAndWait("cannot commit", Seconds(5)));
}

TEST(PbftTest, LeaderCrashTriggersViewChange) {
  PbftHarness harness(1);
  ASSERT_TRUE(harness.CommitAndWait("before"));
  harness.network_.Crash(NodeId{0, 0});  // view-0 leader
  ASSERT_TRUE(harness.CommitAndWait("after", Seconds(60)));
  // The surviving replicas agree and the view advanced past 0.
  harness.ExpectAgreement({0});
  EXPECT_GT(harness.replicas_[1]->view(), 0u);
  EXPECT_EQ(harness.LogOf(1).back(), "after");
}

TEST(PbftTest, RepeatedLeaderCrashes) {
  PbftHarness harness(/*f=*/2);  // 7 replicas: can lose 2
  ASSERT_TRUE(harness.CommitAndWait("a"));
  harness.network_.Crash(NodeId{0, 0});
  ASSERT_TRUE(harness.CommitAndWait("b", Seconds(60)));
  // Crash whoever leads now.
  NodeId leader = harness.replicas_[1]->leader();
  harness.network_.Crash(leader);
  ASSERT_TRUE(harness.CommitAndWait("c", Seconds(120)));
  std::vector<int> skip = {0, harness.config_.ReplicaIndex(leader)};
  harness.ExpectAgreement(skip);
}

TEST(PbftTest, SilentLeaderIsReplaced) {
  PbftHarness harness(1);
  harness.replicas_[0]->SetByzantineMode(ByzantineMode::kSilent);
  ASSERT_TRUE(harness.CommitAndWait("despite mute leader", Seconds(60)));
  harness.ExpectAgreement({0});
}

TEST(PbftTest, EquivocatingLeaderCannotCauseDivergence) {
  PbftHarness harness(1);
  harness.replicas_[0]->SetByzantineMode(ByzantineMode::kEquivocate);
  // The value may commit (after a view change re-proposes it) or the
  // client may keep retrying; either way honest replicas never diverge.
  harness.CommitAndWait("split brain?", Seconds(60));
  harness.simulator_.RunFor(Seconds(2));
  harness.ExpectAgreement({0});
}

TEST(PbftTest, BogusVoterIsHarmless) {
  PbftHarness harness(1);
  harness.replicas_[3]->SetByzantineMode(ByzantineMode::kBogusVotes);
  ASSERT_TRUE(harness.CommitAndWait("bogus votes ignored"));
  harness.ExpectAgreement({3});
}

TEST(PbftTest, RejectedVerificationIsRetriedAfterEachExecution) {
  // A verification routine may be ahead of local state. With a window of 2
  // the replicas prepare "second" before "first" has executed there, and
  // their routine, which wants "first" executed, rejects it. The commit
  // vote must follow once "first" executes, inside view 0: a view change
  // re-proposing the value must not be what rescues it.
  PbftHarness harness(1, /*seed=*/1, Topology::SingleSite(), /*window=*/2);
  int rejections = 0;
  for (auto& replica : harness.replicas_) {
    const PbftReplica* self = replica.get();
    replica->SetVerifier([self, &rejections](const Bytes& value,
                                             const Digest*) {
      if (ToString(value) != "second") return true;
      for (const auto& [seq, executed] : self->executed_log()) {
        if (ToString(executed) == "first") return true;
      }
      ++rejections;
      return false;
    });
    // The leader admits both at once; only the prepared-time routine
    // orders them.
    replica->SetAdmission([](const Bytes&, const Digest*) { return true; },
                          [] {});
  }
  harness.client_->Submit(ToBytes("first"), nullptr);
  harness.client_->Submit(ToBytes("second"), nullptr);
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.client_->completed() == 2; },
      harness.config_.view_timeout - Milliseconds(10)));
  EXPECT_GT(rejections, 0);
  for (const auto& replica : harness.replicas_) {
    EXPECT_EQ(replica->view(), 0u);
  }
  harness.ExpectAgreement();
  EXPECT_EQ(harness.LogOf(0), (std::vector<std::string>{"first", "second"}));
}

TEST(PbftTest, VerificationRoutineBlocksInvalidValues) {
  PbftHarness harness(1);
  // The Blockplane hook: replicas refuse values containing "bad".
  for (auto& replica : harness.replicas_) {
    replica->SetVerifier([](const Bytes& value, const Digest*) {
      return ToString(value).find("bad") == std::string::npos;
    });
  }
  EXPECT_FALSE(harness.CommitAndWait("bad transition", Seconds(5)));
  ASSERT_TRUE(harness.CommitAndWait("good transition", Seconds(60)));
  for (int r = 0; r < 4; ++r) {
    for (const std::string& entry : harness.LogOf(r)) {
      EXPECT_EQ(entry.find("bad"), std::string::npos);
    }
  }
}

TEST(PbftTest, SingleRejectingVerifierDoesNotBlockCommit) {
  PbftHarness harness(1);
  harness.replicas_[2]->SetByzantineMode(ByzantineMode::kRejectVerification);
  ASSERT_TRUE(harness.CommitAndWait("2f+1 others vote"));
  harness.ExpectAgreement({2});
}

TEST(PbftTest, CheckpointTruncatesLog) {
  PbftHarness harness(1);
  // Small interval so GC kicks in quickly.
  for (auto& replica : harness.replicas_) {
    const_cast<PbftConfig&>(replica->config()).checkpoint_interval = 4;
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(harness.CommitAndWait("x" + std::to_string(i)));
  }
  harness.simulator_.RunFor(Seconds(1));
  EXPECT_GE(harness.replicas_[0]->last_stable_checkpoint(), 4u);
  // Entries at or below the stable checkpoint were truncated.
  EXPECT_LT(harness.LogOf(0).size(), 10u);
  EXPECT_EQ(harness.replicas_[0]->last_executed(), 10u);
}

TEST(PbftTest, WideAreaDeployment) {
  // Flat PBFT across 4 datacenters (the paper's baseline topology).
  PbftHarness harness(1, /*seed=*/7, Topology::Aws4());
  ASSERT_TRUE(harness.CommitAndWait("global"));
  // The client needs only f+1 replies; give the slower replicas a moment.
  harness.simulator_.RunFor(Seconds(1));
  harness.ExpectAgreement();
  // End-to-end latency must be on the order of wide-area RTTs.
  EXPECT_GT(harness.simulator_.Now(), Milliseconds(30));
}

// --- vote path --------------------------------------------------------------

TEST(PbftVoteTest, TamperedCopyOfAnAcceptedPrepareIsDropped) {
  PbftHarness harness(/*f=*/1);
  PbftReplica* receiver = harness.replicas_[2].get();
  const NodeId voter = harness.config_.nodes[1];
  const NodeId other = harness.config_.nodes[3];
  auto voter_key = harness.keys_.RegisterNode(voter);

  VoteMsg vote;
  vote.type = kPrepare;
  vote.view = 0;
  vote.seq = 1;
  vote.digest = ComputeDigest(ToBytes("value"));
  const VoteMsg::CanonicalBytes body = vote.CanonicalBody();
  vote.sig = voter_key->Sign(body.data(), body.size());

  auto deliver = [&](const VoteMsg& v, NodeId src) {
    net::Message msg;
    msg.src = src;
    msg.dst = harness.config_.nodes[2];
    msg.type = kPrepare;
    msg.set_body(v.Encode());
    receiver->HandleMessage(msg);
  };

  robustness_stats().Reset();
  hotpath_stats().Reset();
  deliver(vote, voter);  // genuine: accepted
  EXPECT_EQ(robustness_stats().msgs_rejected, 0);
  EXPECT_EQ(hotpath_stats().hmac_precomputed_ops, 1);

  VoteMsg bad_mac = vote;
  bad_mac.sig.mac[31] ^= 0x01;
  deliver(bad_mac, voter);
  EXPECT_EQ(robustness_stats().msgs_rejected, 1);

  VoteMsg other_signer = vote;  // the voter's MAC, claimed by another node
  other_signer.sig.signer = other;
  deliver(other_signer, other);
  EXPECT_EQ(robustness_stats().msgs_rejected, 2);
  deliver(other_signer, voter);  // signer disagrees with the sender
  EXPECT_EQ(robustness_stats().msgs_rejected, 3);

  deliver(vote, voter);  // the genuine vote still passes
  EXPECT_EQ(robustness_stats().msgs_rejected, 3);
  EXPECT_EQ(hotpath_stats().hmac_precomputed_ops, 2);
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 0);  // votes never probe it
}

// --- property sweeps ---------------------------------------------------------

class PbftSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PbftSweepTest, AgreementAndTotalOrderHold) {
  auto [f, seed] = GetParam();
  PbftHarness harness(f, static_cast<uint64_t>(seed));
  const int kCommits = 8;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(harness.CommitAndWait("op" + std::to_string(i)))
        << "f=" << f << " seed=" << seed << " i=" << i;
  }
  harness.simulator_.RunFor(Seconds(1));
  harness.ExpectAgreement();
  auto log = harness.LogOf(0);
  ASSERT_EQ(log.size(), static_cast<size_t>(kCommits));
  for (int i = 0; i < kCommits; ++i) {
    EXPECT_EQ(log[i], "op" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultLevelsAndSeeds, PbftSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pinfo) {
      return "f" + std::to_string(std::get<0>(pinfo.param)) + "_seed" +
             std::to_string(std::get<1>(pinfo.param));
    });

class PbftByzantineSweepTest
    : public ::testing::TestWithParam<std::tuple<ByzantineMode, int>> {};

TEST_P(PbftByzantineSweepTest, OneByzantineReplicaNeverBreaksAgreement) {
  auto [mode, victim] = GetParam();
  PbftHarness harness(1, /*seed=*/11);
  harness.replicas_[victim]->SetByzantineMode(mode);
  for (int i = 0; i < 5; ++i) {
    // Commits may stall temporarily during view changes; allow a generous
    // deadline but do not require success when the byzantine node is the
    // leader mid-election.
    harness.CommitAndWait("op" + std::to_string(i), Seconds(30));
  }
  harness.simulator_.RunFor(Seconds(2));
  harness.ExpectAgreement({victim});
  // Liveness: despite one byzantine replica, progress happened.
  EXPECT_GE(harness.client_->completed(), 4u);
}

std::string ByzantineSweepName(
    const ::testing::TestParamInfo<std::tuple<ByzantineMode, int>>& pinfo) {
  const char* name = "Unknown";
  switch (std::get<0>(pinfo.param)) {
    case ByzantineMode::kNone:
      name = "None";
      break;
    case ByzantineMode::kSilent:
      name = "Silent";
      break;
    case ByzantineMode::kEquivocate:
      name = "Equivocate";
      break;
    case ByzantineMode::kBogusVotes:
      name = "BogusVotes";
      break;
    case ByzantineMode::kRejectVerification:
      name = "RejectVerification";
      break;
    case ByzantineMode::kReorderGeo:
      name = "ReorderGeo";
      break;
  }
  return std::string(name) + "_victim" +
         std::to_string(std::get<1>(pinfo.param));
}

INSTANTIATE_TEST_SUITE_P(
    Behaviours, PbftByzantineSweepTest,
    ::testing::Combine(::testing::Values(ByzantineMode::kSilent,
                                         ByzantineMode::kBogusVotes,
                                         ByzantineMode::kRejectVerification),
                       ::testing::Values(0, 1, 3)),
    ByzantineSweepName);

}  // namespace
}  // namespace blockplane::pbft
