// Blockplane core tests: the log-commit / send / receive / read interface,
// communication daemons and reserves, verification routines, byzantine
// behaviours, and geo-correlated fault tolerance (§III–§VI).
#include "core/deployment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/record.h"
#include "core/wire.h"
#include "crypto/signer.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::kIreland;
using net::kOregon;
using net::kVirginia;
using net::Topology;
using sim::Milliseconds;
using sim::Seconds;

class CoreHarness {
 public:
  explicit CoreHarness(BlockplaneOptions options = {}, uint64_t seed = 1,
                       Topology topology = Topology::Aws4())
      : simulator_(seed),
        deployment_(&simulator_, std::move(topology), options) {}

  /// Commits and waits for the done callback.
  uint64_t CommitAndWait(net::SiteId site, const std::string& payload,
                         uint64_t routine = 0,
                         sim::SimTime deadline = Seconds(60)) {
    uint64_t committed_pos = 0;
    bool done = false;
    deployment_.participant(site)->LogCommit(ToBytes(payload), routine,
                                             [&](uint64_t pos) {
                                               committed_pos = pos;
                                               done = true;
                                             });
    EXPECT_TRUE(simulator_.RunUntilCondition([&] { return done; },
                                             simulator_.Now() + deadline))
        << "commit timed out";
    return committed_pos;
  }

  /// Sends and waits until the destination participant can receive it.
  bool SendAndDeliver(net::SiteId src, net::SiteId dest,
                      const std::string& payload, Bytes* out,
                      sim::SimTime deadline = Seconds(60)) {
    deployment_.participant(src)->Send(dest, ToBytes(payload), 0, nullptr);
    Participant* receiver = deployment_.participant(dest);
    if (!simulator_.RunUntilCondition(
            [&] {
              Bytes received;
              if (receiver->TryReceive(src, &received)) {
                *out = std::move(received);
                return true;
              }
              return false;
            },
            simulator_.Now() + deadline)) {
      return false;
    }
    return true;
  }

  sim::Simulator simulator_;
  Deployment deployment_;
};

TEST(BlockplaneCoreTest, LogCommitReplicatesAcrossUnit) {
  CoreHarness harness;
  uint64_t pos = harness.CommitAndWait(kCalifornia, "state change");
  EXPECT_EQ(pos, 1u);
  harness.simulator_.RunFor(Seconds(1));
  for (int i = 0; i < 4; ++i) {
    const auto& log = harness.deployment_.node(kCalifornia, i)->log();
    ASSERT_EQ(log.size(), 1u) << "node " << i;
    EXPECT_EQ(ToString(log.at(1).payload), "state change");
    EXPECT_EQ(log.at(1).type, RecordType::kLogCommit);
  }
}

TEST(BlockplaneCoreTest, LocalCommitIsFast) {
  CoreHarness harness;
  sim::SimTime start = harness.simulator_.Now();
  harness.CommitAndWait(kVirginia, "quick");
  double ms = sim::ToMillis(harness.simulator_.Now() - start);
  // A local commit is a three-phase intra-datacenter protocol: ~1-2 ms,
  // never wide-area scale (Fig. 4a).
  EXPECT_LT(ms, 5.0);
}

TEST(BlockplaneCoreTest, SendDeliversToDestination) {
  CoreHarness harness;
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "hello oregon",
                                     &received));
  EXPECT_EQ(ToString(received), "hello oregon");
  // The receive was committed into Oregon's Local Log as a received record.
  harness.simulator_.RunFor(Seconds(1));
  const auto& log = harness.deployment_.node(kOregon, 0)->log();
  ASSERT_GE(log.size(), 1u);
  EXPECT_EQ(log.at(1).type, RecordType::kReceived);
  EXPECT_EQ(log.at(1).src_site, kCalifornia);
}

TEST(BlockplaneCoreTest, MessagesDeliverInSourceOrder) {
  CoreHarness harness;
  Participant* sender = harness.deployment_.participant(kCalifornia);
  for (int i = 0; i < 10; ++i) {
    sender->Send(kIreland, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = harness.deployment_.participant(kIreland);
  std::vector<std::string> got;
  receiver->SetReceiveHandler([&](net::SiteId src, const Bytes& payload) {
    got.push_back(ToString(payload));
  });
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return got.size() == 10; }, Seconds(120)));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], "m" + std::to_string(i));
}

TEST(BlockplaneCoreTest, BidirectionalTraffic) {
  CoreHarness harness;
  Participant* a = harness.deployment_.participant(kCalifornia);
  Participant* b = harness.deployment_.participant(kVirginia);
  for (int i = 0; i < 5; ++i) {
    a->Send(kVirginia, ToBytes("c" + std::to_string(i)), 0, nullptr);
    b->Send(kCalifornia, ToBytes("v" + std::to_string(i)), 0, nullptr);
  }
  std::vector<std::string> at_b;
  std::vector<std::string> at_a;
  b->SetReceiveHandler(
      [&](net::SiteId, const Bytes& m) { at_b.push_back(ToString(m)); });
  a->SetReceiveHandler(
      [&](net::SiteId, const Bytes& m) { at_a.push_back(ToString(m)); });
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return at_a.size() == 5 && at_b.size() == 5; }, Seconds(120)));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(at_b[i], "c" + std::to_string(i));
    EXPECT_EQ(at_a[i], "v" + std::to_string(i));
  }
}

TEST(BlockplaneCoreTest, CommunicationLatencyTracksRtt) {
  // Fig. 6: one send + receive + ack is roughly the pair RTT plus small
  // local-commit overheads (23.4 ms measured for C-O against a 19 ms RTT).
  CoreHarness harness;
  Bytes received;
  sim::SimTime start = harness.simulator_.Now();
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "ping",
                                     &received));
  double one_way_ms = sim::ToMillis(harness.simulator_.Now() - start);
  // Receipt at the destination takes one-way latency (9.5) + commit
  // overheads; well under a full RTT + overhead budget.
  EXPECT_GT(one_way_ms, 9.5);
  EXPECT_LT(one_way_ms, 19.0);
}

TEST(BlockplaneCoreTest, TryReceiveEmptyReturnsFalse) {
  CoreHarness harness;
  Bytes payload;
  EXPECT_FALSE(
      harness.deployment_.participant(kOregon)->TryReceive(kCalifornia,
                                                           &payload));
}

TEST(BlockplaneCoreTest, UserVerificationRoutineBlocksBadCommits) {
  CoreHarness harness;
  constexpr uint64_t kRoutine = 7;
  harness.deployment_.RegisterVerifier(
      kCalifornia, kRoutine, [](BlockplaneNode*) {
        return [](const LogRecord& record) {
          return ToString(record.payload).find("forbidden") ==
                 std::string::npos;
        };
      });
  bool done = false;
  harness.deployment_.participant(kCalifornia)
      ->LogCommit(ToBytes("forbidden value"), kRoutine,
                  [&](uint64_t) { done = true; });
  EXPECT_FALSE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(3)));
  // A good value still goes through afterwards.
  harness.CommitAndWait(kCalifornia, "allowed value", kRoutine);
}

TEST(BlockplaneCoreTest, ForgedTransmissionIsRejected) {
  CoreHarness harness;
  // A malicious node fabricates a transmission record with a bogus
  // certificate and pushes it at Oregon's unit.
  TransmissionRecord forged;
  forged.src_site = kCalifornia;
  forged.dest_site = kOregon;
  forged.src_log_pos = 1;
  forged.prev_src_log_pos = 0;
  forged.payload = ToBytes("increment your counter, trust me");
  crypto::QuorumCert bogus;
  bogus.site = kCalifornia;
  bogus.signer_bits = 0b11;  // claims nodes 0 and 1; the aggregate is zero
  forged.certs = {bogus};

  // Register the claimed signers so verification runs (and fails on MAC).
  harness.deployment_.keys()->RegisterNode({kCalifornia, 0});
  harness.deployment_.keys()->RegisterNode({kCalifornia, 1});
  net::Message msg;
  msg.src = {kCalifornia, 3};
  msg.dst = {kOregon, 0};
  msg.type = kTransmission;
  msg.set_body(forged.Encode());
  harness.deployment_.network()->Send(msg);

  harness.simulator_.RunFor(Seconds(5));
  Bytes payload;
  EXPECT_FALSE(
      harness.deployment_.participant(kOregon)->TryReceive(kCalifornia,
                                                           &payload));
  // Nothing entered Oregon's Local Log.
  EXPECT_EQ(harness.deployment_.node(kOregon, 1)->log_size(), 0u);
}

TEST(BlockplaneCoreTest, DuplicateTransmissionCommitsOnce) {
  CoreHarness harness;
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "once",
                                     &received));
  harness.simulator_.RunFor(Seconds(2));
  uint64_t log_size = harness.deployment_.node(kOregon, 0)->log_size();

  // Replay the committed transmission verbatim at every Oregon node.
  const auto& log = harness.deployment_.node(kCalifornia, 0)->log();
  ASSERT_FALSE(log.empty());
  TransmissionRecord replay;
  replay.src_site = kCalifornia;
  replay.dest_site = kOregon;
  replay.src_log_pos = 1;
  replay.prev_src_log_pos = 0;
  replay.payload = ToBytes("once");
  // (Signatures don't matter: the dedup check fires first.)
  net::Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  msg.type = kTransmission;
  msg.set_body(replay.Encode());
  harness.deployment_.network()->Send(msg);
  harness.simulator_.RunFor(Seconds(2));

  EXPECT_EQ(harness.deployment_.node(kOregon, 0)->log_size(), log_size);
  Bytes payload;
  EXPECT_FALSE(
      harness.deployment_.participant(kOregon)->TryReceive(kCalifornia,
                                                           &payload));
}

TEST(BlockplaneCoreTest, ReceiveVerdictTableChecksPositionsFirst) {
  // {position fresh, duplicate, gap} x {cert valid, forged}: only a fresh
  // position with a valid f_i+1 cert enters Oregon's Local Log, and a
  // duplicate or a gap is refused before a single cert MAC is checked.
  // Certs under the f_i+1 threshold or naming another site are refused
  // too.
  CoreHarness harness;
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "genuine",
                                     &received));
  harness.simulator_.RunFor(Seconds(2));
  uint64_t last = 0;
  uint64_t prev = 0;
  for (const auto& [pos, record] : harness.deployment_.node(kOregon, 0)->log()) {
    if (record.type == RecordType::kReceived) {
      last = record.src_log_pos;
      prev = record.prev_src_log_pos;
    }
  }
  ASSERT_GT(last, 0u);

  enum Cert { kValid, kForged, kOneSigner, kOtherSite };
  auto craft = [&](uint64_t pos, uint64_t chained_after, Cert kind) {
    TransmissionRecord tr;
    tr.src_site = kCalifornia;
    tr.dest_site = kOregon;
    tr.src_log_pos = pos;
    tr.prev_src_log_pos = chained_after;
    tr.payload = ToBytes("crafted " + std::to_string(pos));
    Bytes canonical =
        AttestCanonical(AttestPurpose::kTransmission, kCalifornia, pos,
                        tr.ToReceivedRecord().ContentDigest());
    // f_i + 1 = 2 signers with the default f_i = 1; one for kOneSigner.
    // kOtherSite's signers are Virginia's nodes, so its cert is genuine
    // but names a site that did not send the record.
    const net::SiteId signing_site =
        kind == kOtherSite ? kVirginia : kCalifornia;
    std::vector<crypto::Signature> sigs;
    for (int i = 0; i < (kind == kOneSigner ? 1 : 2); ++i) {
      sigs.push_back(harness.deployment_.keys()
                         ->RegisterNode({signing_site, i})
                         ->Sign(canonical));
    }
    if (kind == kForged) sigs[0].mac[0] ^= 0x01;
    tr.certs = {crypto::BuildQuorumCert(signing_site, sigs)};
    return tr;
  };
  struct Row {
    const char* name;
    TransmissionRecord tr;
    bool accepted;
    bool proof_checked;
  };
  // Every row claims its own position, so no row's submission state at the
  // destination carries over into another; the accepted row runs last, as
  // it moves the reception watermark.
  // The under-threshold rows are refused before any MAC: VerifyCert
  // counts signers first, and a cert of another site is never tried.
  const std::vector<Row> rows = {
      {"duplicate+valid", craft(last, prev, kValid), false, false},
      {"duplicate+forged", craft(last, prev, kForged), false, false},
      {"gap+valid", craft(last + 3, last + 2, kValid), false, false},
      {"gap+forged", craft(last + 5, last + 4, kForged), false, false},
      {"fresh+one-signer", craft(last + 8, last, kOneSigner), false, false},
      {"fresh+other-site", craft(last + 9, last, kOtherSite), false, false},
      {"fresh+forged", craft(last + 6, last, kForged), false, true},
      {"fresh+valid", craft(last + 7, last, kValid), true, true},
  };
  for (const Row& row : rows) {
    const size_t log_size = harness.deployment_.node(kOregon, 0)->log_size();
    qc_stats().Reset();
    for (int i = 0; i < 4; ++i) {
      net::Message msg;
      msg.src = {kCalifornia, 3};
      msg.dst = {kOregon, i};
      msg.type = kTransmission;
      msg.set_body(row.tr.Encode());
      harness.deployment_.network()->Send(msg);
    }
    harness.simulator_.RunFor(Seconds(5));
    Bytes payload;
    EXPECT_EQ(harness.deployment_.participant(kOregon)->TryReceive(kCalifornia,
                                                                   &payload),
              row.accepted)
        << row.name;
    EXPECT_EQ(harness.deployment_.node(kOregon, 0)->log_size(),
              log_size + (row.accepted ? 1 : 0))
        << row.name;
    EXPECT_EQ(qc_stats().proof_sig_verifies > 0, row.proof_checked)
        << row.name;
  }
  qc_stats().Reset();
}

TEST(BlockplaneCoreTest, MutedDaemonReserveTakesOver) {
  // §IV-C: a malicious daemon "may pretend maliciously to send messages";
  // the reserve detects the reception gap and becomes a daemon.
  CoreHarness harness;
  harness.deployment_.node(kCalifornia, 0)->MuteDaemons();
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kVirginia,
                                     "despite malicious daemon", &received,
                                     Seconds(60)));
  EXPECT_EQ(ToString(received), "despite malicious daemon");
}

TEST(BlockplaneCoreTest, CrashedUnitNodeDoesNotBlockAnything) {
  CoreHarness harness;
  harness.deployment_.network()->Crash({kCalifornia, 2});
  harness.CommitAndWait(kCalifornia, "commit with crash");
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "send with crash",
                                     &received));
}

TEST(BlockplaneCoreTest, ByzantineUnitNodeDoesNotBlockAnything) {
  CoreHarness harness;
  harness.deployment_.node(kCalifornia, 3)
      ->SetByzantineMode(pbft::ByzantineMode::kBogusVotes);
  harness.deployment_.node(kCalifornia, 3)->RefuseAttestations();
  harness.CommitAndWait(kCalifornia, "commit");
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "send",
                                     &received));
}

// --- reads (§VI-A) -----------------------------------------------------------

TEST(BlockplaneCoreTest, ReadStrategies) {
  CoreHarness harness;
  uint64_t pos = harness.CommitAndWait(kCalifornia, "readable");
  harness.simulator_.RunFor(Seconds(1));

  for (ReadStrategy strategy :
       {ReadStrategy::kReadOne, ReadStrategy::kReadQuorum,
        ReadStrategy::kLinearizable}) {
    bool done = false;
    LogRecord result;
    harness.deployment_.participant(kCalifornia)
        ->Read(pos, strategy, [&](Status status, LogRecord record) {
          ASSERT_TRUE(status.ok()) << status;
          result = std::move(record);
          done = true;
        });
    ASSERT_TRUE(harness.simulator_.RunUntilCondition([&] { return done; },
                                                     Seconds(30)));
    EXPECT_EQ(ToString(result.payload), "readable");
  }
}

TEST(BlockplaneCoreTest, ReadOneFallsBackWhenClosestNodeIsDown) {
  CoreHarness harness;
  uint64_t pos = harness.CommitAndWait(kCalifornia, "still readable");
  harness.simulator_.RunFor(Seconds(1));
  // The node read-1 consults first is crashed; the read must widen to the
  // rest of the unit instead of hanging.
  harness.deployment_.network()->Crash({kCalifornia, 0});
  bool done = false;
  LogRecord result;
  harness.deployment_.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kReadOne, [&](Status s, LogRecord record) {
        ASSERT_TRUE(s.ok());
        result = std::move(record);
        done = true;
      });
  ASSERT_TRUE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(30)));
  EXPECT_EQ(ToString(result.payload), "still readable");
}

TEST(BlockplaneCoreTest, ReadMissingPositionIsNotFound) {
  CoreHarness harness;
  harness.CommitAndWait(kCalifornia, "only one");
  harness.simulator_.RunFor(Seconds(1));
  bool done = false;
  harness.deployment_.participant(kCalifornia)
      ->Read(99, ReadStrategy::kReadQuorum,
             [&](Status status, LogRecord) {
               EXPECT_TRUE(status.IsNotFound());
               done = true;
             });
  ASSERT_TRUE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(30)));
}

// --- geo-correlated fault tolerance (§V) ----------------------------------------

TEST(BlockplaneGeoTest, CommitWaitsForMirrorProofs) {
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  sim::SimTime start = harness.simulator_.Now();
  harness.CommitAndWait(kCalifornia, "geo commit");
  double ms = sim::ToMillis(harness.simulator_.Now() - start);
  // Needs a round trip to the closest mirror (Oregon, 19 ms RTT) plus
  // local commits — Fig. 5's C(1) is ~23 ms.
  EXPECT_GT(ms, 19.0);
  EXPECT_LT(ms, 40.0);
}

TEST(BlockplaneGeoTest, MirrorLogsHoldTheRecord) {
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "mirrored");
  harness.simulator_.RunFor(Seconds(2));
  // California's mirrors are Oregon and Virginia (closest two).
  int holding = 0;
  for (net::SiteId host : harness.deployment_.mirror_sites_of(kCalifornia)) {
    BlockplaneNode* node =
        harness.deployment_.mirror_node(host, kCalifornia, 0);
    if (node->log_size() >= 1) {
      LogRecord inner;
      ASSERT_TRUE(
          LogRecord::Decode(node->log().at(1).payload, &inner).ok());
      EXPECT_EQ(ToString(inner.payload), "mirrored");
      ++holding;
    }
  }
  EXPECT_GE(holding, 1);  // fg = 1 mirror must hold it
}

TEST(BlockplaneGeoTest, BackupFailureRaisesLatencyToNextMirror) {
  // Fig. 8(a): with the closest mirror down, commits wait for the
  // second-closest mirror.
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "warm");
  harness.deployment_.network()->CrashSite(kOregon);
  sim::SimTime start = harness.simulator_.Now();
  harness.CommitAndWait(kCalifornia, "after backup failure");
  double ms = sim::ToMillis(harness.simulator_.Now() - start);
  // Now bounded below by the C-V RTT (61 ms).
  EXPECT_GT(ms, 61.0);
  EXPECT_LT(ms, 120.0);
}

TEST(BlockplaneGeoTest, SecondaryActsAfterPrimaryFailure) {
  // Fig. 8(b): the primary site fails; a mirror site continues the log.
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "by primary");
  harness.simulator_.RunFor(Seconds(2));
  harness.deployment_.network()->CrashSite(kCalifornia);

  // Virginia mirrors California; it takes over.
  Participant* secondary = harness.deployment_.participant(kVirginia);
  std::vector<net::SiteId> peers =
      harness.deployment_.mirror_sites_of(kCalifornia);
  peers.push_back(kCalifornia);
  secondary->SetMirrorPeers(kCalifornia, peers);

  bool done = false;
  uint64_t pos = 0;
  secondary->MirrorCommit(kCalifornia, ToBytes("by secondary"), 0,
                          [&](uint64_t p) {
                            pos = p;
                            done = true;
                          });
  ASSERT_TRUE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(60)));
  // The new entry extends the mirrored stream (position 2 after the
  // primary's one commit).
  EXPECT_EQ(pos, 2u);
  harness.simulator_.RunFor(Seconds(2));
  // Virginia's mirror group of California holds both entries.
  BlockplaneNode* mirror =
      harness.deployment_.mirror_node(kVirginia, kCalifornia, 0);
  EXPECT_GE(mirror->log_size(), 2u);
}

TEST(BlockplaneGeoTest, LaggingSecondaryReconcilesBeforeActing) {
  // The primary needs proofs from only fg mirrors, so a secondary's mirror
  // can lag. Before acting as primary it must fetch the missing entries
  // from an up-to-date peer (§V's fg+1-intersection argument), or it would
  // fork the stream.
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "first");
  harness.simulator_.RunFor(Seconds(2));

  // Virginia's datacenter goes dark while the primary keeps committing
  // (Oregon supplies the fg=1 proofs).
  harness.deployment_.network()->CrashSite(kVirginia);
  harness.CommitAndWait(kCalifornia, "second");
  harness.CommitAndWait(kCalifornia, "third");

  // Virginia comes back; California fails; Virginia takes over.
  harness.deployment_.network()->RecoverSite(kVirginia);
  harness.deployment_.network()->CrashSite(kCalifornia);
  Participant* secondary = harness.deployment_.participant(kVirginia);
  std::vector<net::SiteId> peers =
      harness.deployment_.mirror_sites_of(kCalifornia);
  peers.push_back(kCalifornia);
  secondary->SetMirrorPeers(kCalifornia, peers);

  bool done = false;
  uint64_t pos = 0;
  secondary->MirrorCommit(kCalifornia, ToBytes("fourth"), 0,
                          [&](uint64_t p) {
                            pos = p;
                            done = true;
                          });
  ASSERT_TRUE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(120)));
  // The new entry continues after the three the old primary committed —
  // Virginia reconciled entries 2 and 3 from Oregon before acting.
  EXPECT_EQ(pos, 4u);
  harness.simulator_.RunFor(Seconds(2));
  BlockplaneNode* mirror =
      harness.deployment_.mirror_node(kVirginia, kCalifornia, 0);
  ASSERT_EQ(mirror->log_size(), 4u);
  std::vector<std::string> contents;
  for (const auto& [mirror_pos, record] : mirror->log()) {
    LogRecord inner;
    ASSERT_TRUE(LogRecord::Decode(record.payload, &inner).ok());
    contents.push_back(ToString(inner.payload));
  }
  EXPECT_EQ(contents, (std::vector<std::string>{"first", "second", "third",
                                                "fourth"}));
}

TEST(BlockplaneGeoTest, SendCarriesGeoProofs) {
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kVirginia, "geo send",
                                     &received, Seconds(120)));
  EXPECT_EQ(ToString(received), "geo send");
  harness.simulator_.RunFor(Seconds(1));
  // The received record embeds the source unit's cert first, then one
  // geo cert per proving mirror site (fg = 1), each of f_i+1 signers.
  const auto& log = harness.deployment_.node(kVirginia, 0)->log();
  ASSERT_GE(log.size(), 1u);
  const LogRecord& record = log.at(1);
  EXPECT_EQ(record.type, RecordType::kReceived);
  ASSERT_GE(record.certs.size(), 2u);
  EXPECT_EQ(record.certs[0].site, kCalifornia);
  std::set<net::SiteId> geo_sites;
  for (size_t i = 1; i < record.certs.size(); ++i) {
    EXPECT_NE(record.certs[i].site, kCalifornia);
    EXPECT_GE(record.certs[i].signer_count(), options.fi + 1);
    geo_sites.insert(record.certs[i].site);
  }
  const std::vector<net::SiteId>& mirrors =
      harness.deployment_.mirror_sites_of(kCalifornia);
  for (net::SiteId site : geo_sites) {
    EXPECT_NE(std::find(mirrors.begin(), mirrors.end(), site), mirrors.end());
  }
}

// --- property sweeps ----------------------------------------------------------

class CorePairSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CorePairSweepTest, AllPairsDeliverInOrder) {
  auto [src, dest] = GetParam();
  if (src == dest) GTEST_SKIP();
  CoreHarness harness({}, /*seed=*/17);
  Participant* sender = harness.deployment_.participant(src);
  constexpr int kCount = 5;
  for (int i = 0; i < kCount; ++i) {
    sender->Send(dest, ToBytes("p" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = harness.deployment_.participant(dest);
  std::vector<std::string> got;
  receiver->SetReceiveHandler([&](net::SiteId s, const Bytes& payload) {
    EXPECT_EQ(s, src);
    got.push_back(ToString(payload));
  });
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return got.size() == kCount; }, Seconds(120)));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[i], "p" + std::to_string(i));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CorePairSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0, 1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pinfo) {
      return "from" + std::to_string(std::get<0>(pinfo.param)) + "_to" +
             std::to_string(std::get<1>(pinfo.param));
    });

class CoreFiSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CoreFiSweepTest, CommitAndSendWorkAcrossFaultLevels) {
  BlockplaneOptions options;
  options.fi = GetParam();
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "commit");
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "send",
                                     &received, Seconds(120)));
}

INSTANTIATE_TEST_SUITE_P(FaultLevels, CoreFiSweepTest,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "fi" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane::core
