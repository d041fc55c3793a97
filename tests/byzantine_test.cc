// Adversarial end-to-end tests: the byzantine behaviours of §VII's lemmas
// driven against the full Blockplane stack, plus a randomized crash/recover
// soak over the counter protocol.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/deployment.h"
#include "pbft/client.h"
#include "pbft/message.h"
#include "protocols/bank.h"
#include "protocols/counter.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::kIreland;
using net::kOregon;
using net::kVirginia;
using net::Topology;
using sim::Seconds;

TEST(ByzantineEndToEndTest, EquivocatingUnitLeaderIsDethroned) {
  // Lemma 1: honest nodes of a participant agree on every Local Log entry
  // even when the unit's PBFT leader equivocates.
  sim::Simulator simulator(31);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kCalifornia, 0)
      ->SetByzantineMode(pbft::ByzantineMode::kEquivocate);

  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes("v" + std::to_string(i)), 0,
                    [&](uint64_t) { ++completed; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return completed == 5; },
                                          Seconds(120)));
  simulator.RunFor(Seconds(2));
  // All honest nodes hold identical logs.
  const auto& reference = deployment.node(kCalifornia, 1)->log();
  for (int i = 2; i < 4; ++i) {
    const auto& log = deployment.node(kCalifornia, i)->log();
    ASSERT_EQ(log.size(), reference.size()) << "node " << i;
    for (const auto& [pos, record] : reference) {
      EXPECT_EQ(log.at(pos).payload, record.payload);
    }
  }
  // Note: with a 3-vs-1 split the majority value still commits and the
  // odd node catches up via state transfer, so the equivocator may keep
  // the lead — what matters (and is asserted above) is that no two honest
  // nodes ever diverge.
}

TEST(ByzantineEndToEndTest, LyingStatusRepliesCannotSuppressReserve) {
  // §IV-C: a faulty destination node reporting a huge reception watermark
  // must not convince the reserve that everything was delivered. The
  // reserve takes the (f_i+1)-th largest reply: one liar is outvoted.
  sim::Simulator simulator(33);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kCalifornia, 0)->MuteDaemons();      // malicious daemon
  deployment.node(kVirginia, 0)->LieAboutReception();  // accomplice

  deployment.participant(kCalifornia)
      ->Send(kVirginia, ToBytes("must arrive"), 0, nullptr);
  Participant* receiver = deployment.participant(kVirginia);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));
  EXPECT_EQ(ToString(payload), "must arrive");
}

TEST(ByzantineEndToEndTest, DoubleDaemonFailureStillDelivers) {
  // Both the active daemon and the first reserve go mute; the second
  // reserve (nodes 1..f_i+1 hold reserves) must still take over.
  sim::Simulator simulator(43);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kCalifornia, 0)->MuteDaemons();
  deployment.node(kCalifornia, 1)->MuteDaemons();

  deployment.participant(kCalifornia)
      ->Send(kVirginia, ToBytes("twice unlucky"), 0, nullptr);
  Participant* receiver = deployment.participant(kVirginia);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(120)));
  EXPECT_EQ(ToString(payload), "twice unlucky");
}

TEST(ByzantineEndToEndTest, TwoMixedByzantineNodesUnderF2) {
  // f_i = 2: one silent node AND one bogus-voter in the same unit, plus a
  // read liar — the 7-node unit absorbs all of it.
  sim::Simulator simulator(45);
  BlockplaneOptions options;
  options.fi = 2;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  deployment.node(kCalifornia, 5)
      ->SetByzantineMode(pbft::ByzantineMode::kSilent);
  deployment.node(kCalifornia, 6)
      ->SetByzantineMode(pbft::ByzantineMode::kBogusVotes);
  deployment.node(kCalifornia, 6)->RefuseAttestations();
  deployment.node(kCalifornia, 6)->LieOnReads();

  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes("v" + std::to_string(i)), 0,
                    [&](uint64_t) { ++completed; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return completed == 5; },
                                          Seconds(120)));
  // Cross-site traffic also survives (attestations need f_i+1 = 3 of 7).
  deployment.participant(kCalifornia)
      ->Send(kOregon, ToBytes("from the f2 unit"), 0, nullptr);
  Participant* receiver = deployment.participant(kOregon);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(120)));
  // Honest nodes agree.
  simulator.RunFor(Seconds(2));
  const auto& reference = deployment.node(kCalifornia, 0)->log();
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(deployment.node(kCalifornia, i)->log().size(),
              reference.size());
  }
}

TEST(ByzantineEndToEndTest, OutOfOrderTransmissionIsRejected) {
  // Lemma 2's ordering half: a transmission whose chain pointer skips an
  // earlier message is refused, so messages cannot be maliciously dropped
  // or reordered by a daemon.
  sim::Simulator simulator(35);
  BlockplaneOptions options;
  options.sign_messages = false;  // isolates the ordering check
  Deployment deployment(&simulator, Topology::Aws4(), options);

  TransmissionRecord skipping;
  skipping.src_site = kCalifornia;
  skipping.dest_site = kOregon;
  skipping.src_log_pos = 7;       // claims to be the 7th record...
  skipping.prev_src_log_pos = 5;  // ...chained after an undelivered 5th
  skipping.payload = ToBytes("out of order");
  net::Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  msg.type = kTransmission;
  msg.set_body(skipping.Encode());
  deployment.network()->Send(msg);

  simulator.RunFor(Seconds(5));
  Bytes payload;
  EXPECT_FALSE(
      deployment.participant(kOregon)->TryReceive(kCalifornia, &payload));
  EXPECT_EQ(deployment.node(kOregon, 0)->log_size(), 0u);
}

TEST(ByzantineEndToEndTest, ForgedGeoAcksCannotFakeGlobalCommit) {
  // §V: with both mirrors down, a commit cannot complete — injected fake
  // geo-acks (wrong signatures) must not count as mirror proofs.
  sim::Simulator simulator(37);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  deployment.network()->CrashSite(kOregon);
  deployment.network()->CrashSite(kVirginia);  // both of California's mirrors

  bool committed = false;
  deployment.participant(kCalifornia)
      ->LogCommit(ToBytes("doomed"), 0, [&](uint64_t) { committed = true; });

  // An attacker sprays forged acks at the participant.
  simulator.Schedule(sim::Milliseconds(50), [&] {
    for (int i = 0; i < 4; ++i) {
      GeoAckMsg forged;
      forged.geo_pos = 1;
      forged.sig.signer = MirrorNodeId(kOregon, kCalifornia, i);
      net::Message msg;
      msg.src = forged.sig.signer;
      msg.dst = ParticipantNodeId(kCalifornia);
      msg.type = kGeoAck;
      msg.set_body(forged.Encode());
      // Bypass the site crash by sending from a live node id.
      msg.src = net::NodeId{kIreland, 0};
      deployment.network()->Send(msg);
    }
  });
  EXPECT_FALSE(
      simulator.RunUntilCondition([&] { return committed; }, Seconds(5)));
}

TEST(ByzantineEndToEndTest, ReplayedWireCannotDoubleCredit) {
  // A byzantine daemon replaying a committed wire must not mint money.
  sim::Simulator simulator(39);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::BankLedger bank(&deployment);

  bool funded = false;
  bank.Deposit(kCalifornia, "alice", 100, [&](Status) { funded = true; });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return funded; }, Seconds(30)));
  bank.Wire(kCalifornia, "alice", kIreland, "seamus", 60, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return bank.Balance(kIreland, "seamus") == 60; }, Seconds(120)));

  // Replay the wire's committed received-record content as a fresh
  // transmission at every Ireland node.
  const auto& log = deployment.node(kIreland, 0)->log();
  const LogRecord* wire = nullptr;
  for (const auto& [pos, record] : log) {
    if (record.type == RecordType::kReceived) wire = &record;
  }
  ASSERT_NE(wire, nullptr);
  TransmissionRecord replay;
  replay.src_site = wire->src_site;
  replay.dest_site = kIreland;
  replay.src_log_pos = wire->src_log_pos;
  replay.prev_src_log_pos = wire->prev_src_log_pos;
  replay.routine_id = wire->routine_id;
  replay.payload = wire->payload;
  replay.certs = wire->certs;  // the genuine cert, replayed
  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 3};
    msg.dst = {kIreland, i};
    msg.type = kTransmission;
    msg.set_body(replay.Encode());
    deployment.network()->Send(msg);
  }
  simulator.RunFor(Seconds(5));
  EXPECT_EQ(bank.Balance(kIreland, "seamus"), 60);  // not 120
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bank.NodeBalance(kIreland, i, "seamus"), 60);
  }
}

TEST(ByzantineEndToEndTest, ForgedTransmissionRejectedAfterCachesArePrimed) {
  // The verify-once cache memoizes *successful* (signer, mac, message)
  // triples only. After genuine traffic has filled it hot, a forged
  // transmission that reuses genuine signatures over DIFFERENT content
  // must still take — and fail — the full HMAC check: no cache entry can
  // vouch for bytes it never verified.
  sim::Simulator simulator(43);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::BankLedger bank(&deployment);

  hotpath_stats().Reset();
  bool funded = false;
  bank.Deposit(kCalifornia, "alice", 100, [&](Status) { funded = true; });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return funded; }, Seconds(30)));
  bank.Wire(kCalifornia, "alice", kIreland, "seamus", 40, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return bank.Balance(kIreland, "seamus") == 40; }, Seconds(120)));
  // The deployment's verify-once cache is demonstrably hot.
  ASSERT_GT(hotpath_stats().sig_cache_hits, 0);

  // Forge the "next" transmission in the chain: correct chain pointers,
  // genuine (cached-as-valid) signatures — but content they never signed.
  const auto& log = deployment.node(kIreland, 0)->log();
  const LogRecord* wire = nullptr;
  for (const auto& [pos, record] : log) {
    if (record.type == RecordType::kReceived) wire = &record;
  }
  ASSERT_NE(wire, nullptr);
  TransmissionRecord forged;
  forged.src_site = kCalifornia;
  forged.dest_site = kIreland;
  forged.src_log_pos = wire->src_log_pos + 1;
  forged.prev_src_log_pos = wire->src_log_pos;
  forged.routine_id = wire->routine_id;
  forged.payload = ToBytes("forged credit of 1000 coins");
  forged.certs = wire->certs;  // genuine cert over other bytes
  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 3};
    msg.dst = {kIreland, i};
    msg.type = kTransmission;
    msg.set_body(forged.Encode());
    deployment.network()->Send(msg);
  }
  simulator.RunFor(Seconds(5));
  EXPECT_EQ(bank.Balance(kIreland, "seamus"), 40);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bank.NodeBalance(kIreland, i, "seamus"), 40);
  }
  hotpath_stats().Reset();
}

TEST(ByzantineEndToEndTest, ForgedCertCannotVouchForNewContent) {
  // The quorum-cert form of the primed-cache forgery (DESIGN.md §14):
  // transmissions carry one compact certificate, and the KeyStore
  // memoizes *successfully verified* (cert, message) pairs. A byzantine
  // daemon that replays a genuine certificate under different content must
  // take — and fail — the full aggregate recomputation: the cache key
  // binds the canonical bytes, so no cached entry can vouch for bytes it
  // never certified.
  sim::Simulator simulator(47);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::BankLedger bank(&deployment);

  qc_stats().Reset();
  bool funded = false;
  bank.Deposit(kCalifornia, "alice", 100, [&](Status) { funded = true; });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return funded; }, Seconds(30)));
  bank.Wire(kCalifornia, "alice", kIreland, "seamus", 40, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return bank.Balance(kIreland, "seamus") == 40; }, Seconds(120)));
  // The wire rode the cert path and the cert cache is demonstrably hot.
  ASSERT_GT(qc_stats().certs_built, 0);
  ASSERT_GT(qc_stats().cache_hits, 0);

  // Forge the "next" transmission: correct chain pointers, the genuine
  // (cached-as-valid) certificate — but content its signers never saw.
  const auto& log = deployment.node(kIreland, 0)->log();
  const LogRecord* wire = nullptr;
  for (const auto& [pos, record] : log) {
    if (record.type == RecordType::kReceived) wire = &record;
  }
  ASSERT_NE(wire, nullptr);
  ASSERT_FALSE(wire->certs.empty());
  TransmissionRecord forged;
  forged.src_site = kCalifornia;
  forged.dest_site = kIreland;
  forged.src_log_pos = wire->src_log_pos + 1;
  forged.prev_src_log_pos = wire->src_log_pos;
  forged.routine_id = wire->routine_id;
  forged.payload = ToBytes("forged credit of 1000 coins");
  forged.certs = wire->certs;  // genuine cert over other bytes
  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 3};
    msg.dst = {kIreland, i};
    msg.type = kTransmission;
    msg.set_body(forged.Encode());
    deployment.network()->Send(msg);
  }
  simulator.RunFor(Seconds(5));
  EXPECT_EQ(bank.Balance(kIreland, "seamus"), 40);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bank.NodeBalance(kIreland, i, "seamus"), 40);
  }
  qc_stats().Reset();
}

TEST(ByzantineEndToEndTest, QuorumReadSurvivesALyingReplica) {
  // §VI-A: read-1 trusts the answering node; the 2f+1-identical-responses
  // strategy "overcomes the scenario where a malicious node returns"
  // wrong data.
  sim::Simulator simulator(41);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  bool committed = false;
  uint64_t pos = 0;
  deployment.participant(kCalifornia)
      ->LogCommit(ToBytes("the truth"), 0, [&](uint64_t p) {
        pos = p;
        committed = true;
      });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return committed; }, Seconds(30)));
  simulator.RunFor(Seconds(1));

  // Node 0 — the one read-1 happens to consult — starts lying.
  deployment.node(kCalifornia, 0)->LieOnReads();

  bool read_done = false;
  LogRecord result;
  deployment.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kReadOne, [&](Status s, LogRecord record) {
        result = std::move(record);
        read_done = true;
      });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return read_done; }, Seconds(30)));
  // read-1 is fooled (this is its documented trust model)...
  EXPECT_EQ(ToString(result.payload), "forged read result");

  // ...while the quorum strategy returns the real entry: the liar can
  // never assemble 2f+1 identical forged answers.
  read_done = false;
  deployment.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kReadQuorum,
             [&](Status s, LogRecord record) {
               ASSERT_TRUE(s.ok());
               result = std::move(record);
               read_done = true;
             });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return read_done; }, Seconds(30)));
  EXPECT_EQ(ToString(result.payload), "the truth");
}

// Delivers a read reply to `participant` as if unit node `index` of its site
// had sent it; a null `record` answers "not found".
void InjectReadReply(Participant* participant, int index, uint64_t read_id,
                     const LogRecord* record) {
  ReadReplyMsg reply;
  reply.read_id = read_id;
  reply.found = record != nullptr;
  if (record != nullptr) reply.record = record->Encode();
  net::Message msg;
  msg.src = net::NodeId{participant->site(), index};
  msg.dst = ParticipantNodeId(participant->site());
  msg.type = kReadReply;
  msg.set_body(reply.Encode());
  participant->HandleMessage(msg);
}

LogRecord ReadTarget() {
  LogRecord record;
  record.type = RecordType::kReceived;
  record.payload = ToBytes("entry under read");
  record.dest_site = kCalifornia;
  record.src_site = kOregon;
  record.src_log_pos = 7;
  record.prev_src_log_pos = 5;
  record.geo_pos = 3;
  return record;
}

TEST(ByzantineEndToEndTest, QuorumReadMatchesContentNotProofs) {
  // Honest nodes can hold one entry with different certs (which f_i+1
  // source nodes signed is a race), so a quorum read matches content only,
  // and hands back the first matching reply's record as received.
  sim::Simulator simulator(43);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  Participant* participant = deployment.participant(kCalifornia);
  bool done = false;
  LogRecord result;
  participant->Read(1, ReadStrategy::kReadQuorum,
                    [&](Status s, LogRecord record) {
                      EXPECT_TRUE(s.ok());
                      result = std::move(record);
                      done = true;
                    });
  // The replies are injected before any real one can arrive; a fresh
  // participant's first read has id 1.
  LogRecord first;
  for (int i = 0; i < 3; ++i) {
    LogRecord reply = ReadTarget();
    crypto::QuorumCert cert;
    cert.site = kOregon;
    cert.signer_bits = uint64_t{0b11} << i;
    cert.agg.fill(static_cast<uint8_t>(i));
    reply.certs.push_back(cert);
    if (i == 0) first = reply;
    EXPECT_FALSE(done) << "completed after " << i << " replies";
    InjectReadReply(participant, i, 1, &reply);
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(result.Encode(), first.Encode());
}

TEST(ByzantineEndToEndTest, QuorumReadNeverCountsAReplyThatDiffersInOneField) {
  // A liar's reply that differs from the honest entry in one payload byte
  // or one position field is a different answer: it never counts toward
  // the honest one, so 2f_i+1 = 3 honest replies are still needed.
  sim::Simulator simulator(44);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  Participant* participant = deployment.participant(kCalifornia);
  const std::vector<std::pair<const char*, void (*)(LogRecord*)>> lies = {
      {"payload byte", [](LogRecord* r) { r->payload[3] ^= 0x01; }},
      {"src_log_pos", [](LogRecord* r) { r->src_log_pos += 1; }},
      {"prev_src_log_pos", [](LogRecord* r) { r->prev_src_log_pos += 1; }},
      {"geo_pos", [](LogRecord* r) { r->geo_pos += 1; }},
  };
  uint64_t read_id = 0;
  for (const auto& [what, lie] : lies) {
    bool done = false;
    LogRecord result;
    participant->Read(1, ReadStrategy::kReadQuorum,
                      [&](Status s, LogRecord record) {
                        EXPECT_TRUE(s.ok());
                        result = std::move(record);
                        done = true;
                      });
    ++read_id;
    const LogRecord honest = ReadTarget();
    LogRecord forged = honest;
    lie(&forged);
    InjectReadReply(participant, 0, read_id, &honest);
    InjectReadReply(participant, 1, read_id, &forged);
    InjectReadReply(participant, 2, read_id, &honest);
    EXPECT_FALSE(done) << what << ": the lie counted toward the truth";
    InjectReadReply(participant, 3, read_id, &honest);
    ASSERT_TRUE(done) << what;
    EXPECT_EQ(result.Encode(), honest.Encode()) << what;
  }
}

TEST(ByzantineEndToEndTest, MirrorDigestMemoCannotVouchForATamperedPayload) {
  // A mirror node remembers the payload digest of each value it verified,
  // keyed by the value's own digest. A byzantine mirror leader that
  // proposes the honest value V at geo position 1 and then V' — same
  // position, same proof, one payload byte changed — must not get V' past
  // the backups on V's verdict.
  sim::Simulator simulator(46);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  const net::SiteId host = deployment.mirror_sites_of(kCalifornia).at(0);
  auto mirror = [&](int i) {
    return deployment.mirror_node(host, kCalifornia, i);
  };
  const net::NodeId leader = mirror(0)->replica()->leader();
  ASSERT_EQ(leader, mirror(0)->self());

  // V, attested by f_i+1 = 2 California unit nodes as the origin's record
  // at geo position 1.
  LogRecord inner;
  inner.payload = ToBytes("mirrored entry");
  inner.geo_pos = 1;
  LogRecord honest;
  honest.type = RecordType::kMirrored;
  honest.payload = inner.Encode();
  honest.src_site = kCalifornia;
  honest.geo_pos = 1;
  Bytes canonical =
      AttestCanonical(AttestPurpose::kGeoSource, kCalifornia, 1,
                      crypto::Sha256Digest(honest.payload));
  std::vector<crypto::Signature> sigs;
  for (int i = 0; i < 2; ++i) {
    sigs.push_back(deployment.keys()
                       ->RegisterNode(net::NodeId{kCalifornia, i})
                       ->Sign(canonical));
  }
  honest.certs = {crypto::BuildQuorumCert(kCalifornia, sigs)};
  LogRecord tampered = honest;
  inner.payload[0] ^= 0x01;
  tampered.payload = inner.Encode();

  auto leader_key = deployment.keys()->RegisterNode(leader);
  auto propose = [&](uint64_t seq, const LogRecord& record,
                     std::vector<int> backups) {
    pbft::PrePrepareMsg pp;
    pp.view = 0;
    pp.seq = seq;
    pp.value = record.Encode();
    pp.digest = pbft::ComputeDigest(pp.value);
    pp.client_token = pbft::ClientToken(leader);
    pp.req_id = seq;
    pp.sig = leader_key->Sign(pp.CanonicalHeader());
    for (int i : backups) {
      net::Message msg;
      msg.src = leader;
      msg.dst = mirror(i)->self();
      msg.type = pbft::kPrePrepare;
      msg.set_body(pp.Encode());
      deployment.network()->Send(msg);
    }
  };

  // Backups 1 and 2 prepare and verify V (2 commit votes: not a quorum).
  propose(1, honest, {1, 2});
  simulator.RunFor(sim::Milliseconds(5));
  for (int i : {1, 2}) {
    EXPECT_EQ(mirror(i)->mirror_digest_memo_size(), 1u) << "backup " << i;
    EXPECT_EQ(mirror(i)->replica()->last_executed(), 0u) << "backup " << i;
  }
  // V' prepares at every backup while position 1 is still open.
  propose(2, tampered, {1, 2, 3});
  simulator.RunFor(sim::Milliseconds(5));
  // Backup 3 completes V's commit quorum; V executes, V' must not.
  propose(1, honest, {3});
  simulator.RunFor(sim::Milliseconds(10));
  for (int i : {1, 2, 3}) {
    BlockplaneNode* node = mirror(i);
    EXPECT_EQ(node->replica()->last_executed(), 1u) << "backup " << i;
    ASSERT_EQ(node->log().size(), 1u) << "backup " << i;
    EXPECT_EQ(node->log().at(1).payload, honest.payload) << "backup " << i;
  }
}

TEST(ByzantineEndToEndTest, MirrorDigestMemoStaysWithinItsCap) {
  // Values that verify their payload but fail their proof are never
  // applied, so their memo entries are never consumed: the memo must stay
  // bounded however many of them a byzantine acting site submits.
  sim::Simulator simulator(47);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  const net::SiteId host = deployment.mirror_sites_of(kCalifornia).at(0);
  BlockplaneNode* leader = deployment.mirror_node(host, kCalifornia, 0);
  ASSERT_EQ(leader->replica()->leader(), leader->self());
  const size_t total = BlockplaneNode::kMirrorDigestMemoCap + 16;
  const int64_t rejects_before = pipeline_stats().pbft_admission_rejects;
  size_t peak = 0;
  for (size_t i = 0; i < total; ++i) {
    LogRecord inner;
    inner.payload = ToBytes("unproven " + std::to_string(i));
    inner.geo_pos = 1;
    LogRecord record;
    record.type = RecordType::kMirrored;
    record.payload = inner.Encode();
    record.src_site = kCalifornia;
    record.geo_pos = 1;  // the next position, so admission reaches the proof
    leader->SubmitLocalCommit(record);  // admitted synchronously: leader
    peak = std::max(peak, leader->mirror_digest_memo_size());
  }
  EXPECT_EQ(pipeline_stats().pbft_admission_rejects - rejects_before,
            static_cast<int64_t>(total));
  EXPECT_EQ(peak, BlockplaneNode::kMirrorDigestMemoCap);
  EXPECT_LE(leader->mirror_digest_memo_size(),
            BlockplaneNode::kMirrorDigestMemoCap);
}

// Regression: the client used to count f+1 replies as "matching" when they
// merely agreed on the sequence number. f byzantine replicas plus one
// honest straggler could then complete a request whose outcome the honest
// quorum never produced. Replies now vote on (seq, result_digest) — the
// replica's post-execution state digest — so divergent states never reach
// f+1 together.
TEST(ByzantineEndToEndTest, DivergentRepliesDoNotComplete) {
  sim::Simulator simulator(7);
  net::Network network(&simulator, Topology::Aws4(), {});
  pbft::PbftConfig config;
  config.f = 1;
  for (int i = 0; i < 4; ++i) config.nodes.push_back(net::NodeId{0, i});
  pbft::PbftClient client(&network, config, net::NodeId{0, 1001});

  int completions = 0;
  uint64_t completed_seq = 0;
  client.Submit(ToBytes("op"), [&](uint64_t seq) {
    completed_seq = seq;
    ++completions;
  });

  auto reply_from = [&](int replica, const crypto::Digest& digest) {
    pbft::ReplyMsg reply;
    reply.view = 0;
    reply.req_id = 1;
    reply.seq = 1;
    reply.replica = replica;
    reply.result_digest = digest;
    net::Message msg;
    msg.src = config.nodes[replica];
    msg.dst = client.self();
    msg.type = pbft::kReply;
    msg.set_body(reply.Encode());
    client.HandleMessage(msg);
  };

  crypto::Digest honest{};
  honest.fill(0xaa);
  crypto::Digest lying{};
  lying.fill(0xbb);

  // f+1 = 2 replies that agree on seq but diverge on post-execution state:
  // the pre-fix client accepted here.
  reply_from(0, honest);
  reply_from(1, lying);
  EXPECT_EQ(completions, 0) << "divergent replies must not complete";
  EXPECT_EQ(client.completed(), 0u);

  // A second reply matching the honest digest is a genuine f+1 match.
  reply_from(2, honest);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(completed_seq, 1u);
  EXPECT_EQ(client.completed(), 1u);
}

// --- randomized crash/recover soak ---------------------------------------------

class FaultSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultSoakTest, CountersConvergeUnderChurn) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  sim::Simulator simulator(seed);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::CounterProtocol counter(&deployment);
  sim::Rng rng(seed * 7919);

  // Background churn: every 150 ms, crash or recover a random node, never
  // exceeding f_i = 1 down per site.
  std::map<net::SiteId, int> down;
  std::set<net::NodeId> crashed;
  std::function<void()> churn = [&]() {
    net::SiteId site = static_cast<net::SiteId>(rng.NextBelow(4));
    int index = static_cast<int>(rng.NextBelow(4));
    net::NodeId node{site, index};
    if (crashed.count(node) > 0) {
      deployment.network()->Recover(node);
      deployment.node(site, index)->Recover();
      crashed.erase(node);
      --down[site];
    } else if (down[site] < 1) {
      deployment.network()->Crash(node);
      crashed.insert(node);
      ++down[site];
    }
    simulator.Schedule(sim::Milliseconds(150), churn);
  };
  simulator.Schedule(sim::Milliseconds(100), churn);

  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    counter.UserRequest(kCalifornia, kOregon, "trusted-soak");
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return counter.counter(kOregon) == kRequests; }, Seconds(300)))
      << "only " << counter.counter(kOregon) << " arrived";
  simulator.RunFor(Seconds(5));
  EXPECT_EQ(counter.counter(kOregon), kRequests);  // exactly once each
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoakTest, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane::core
