// Quorum-certificate tests (DESIGN.md §14): the compact-cert codec and
// builder, KeyStore::VerifyCert semantics and its two-generation cert
// cache, duplicate-signer forgeries, the cert-carrying wire encodings, the
// signer-bitmap width bound, and end-to-end deployments where
// retransmissions, go-back-N replays, and mirror gap backfill all hit the
// verify-once cert cache.
#include "crypto/quorum_cert.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "core/deployment.h"
#include "core/wire.h"
#include "crypto/signer.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::crypto {
namespace {

// --- Codec and builder ------------------------------------------------------

TEST(QuorumCertTest, CodecRoundTripsEveryField) {
  QuorumCert cert;
  cert.site = 2;
  cert.index_base = 201;  // a mirror group's dense range
  cert.signer_bits = 0b1011;
  for (size_t i = 0; i < cert.agg.size(); ++i) {
    cert.agg[i] = static_cast<uint8_t>(i * 7 + 1);
  }

  Encoder enc;
  cert.EncodeTo(&enc);
  // The whole certificate is 48 wire bytes: 4 (site) + 4 (base) + 8
  // (bitmap) + 32 (aggregate) — versus 40 bytes per individual signature.
  EXPECT_EQ(enc.buffer().size(), 48u);

  Decoder dec(enc.buffer());
  QuorumCert back;
  ASSERT_TRUE(back.DecodeFrom(&dec).ok());
  EXPECT_EQ(back, cert);
  EXPECT_EQ(back.signer_count(), 3);
}

TEST(QuorumCertTest, CertAndSignatureTruncatedAtEveryOffsetAreCorruption) {
  QuorumCert cert;
  cert.site = 1;
  cert.index_base = 4;
  cert.signer_bits = 0b111;
  cert.agg.fill(0x3c);
  Signature sig;
  sig.signer = {2, 3};
  sig.mac.fill(0xc3);

  Encoder cert_enc;
  cert.EncodeTo(&cert_enc);
  const Bytes cert_bytes = cert_enc.Take();
  Encoder sig_enc;
  EncodeSignature(&sig_enc, sig);
  const Bytes sig_bytes = sig_enc.Take();
  ASSERT_EQ(sig_bytes.size(), 40u);
  for (size_t len = 0; len < cert_bytes.size(); ++len) {
    Decoder dec(cert_bytes.data(), len);
    QuorumCert out;
    EXPECT_TRUE(out.DecodeFrom(&dec).IsCorruption()) << "length " << len;
  }
  for (size_t len = 0; len < sig_bytes.size(); ++len) {
    Decoder dec(sig_bytes.data(), len);
    Signature out;
    EXPECT_TRUE(DecodeSignature(&dec, &out).IsCorruption())
        << "length " << len;
  }
  Decoder cert_dec(cert_bytes);
  QuorumCert cert_back;
  ASSERT_TRUE(cert_back.DecodeFrom(&cert_dec).ok());
  EXPECT_EQ(cert_back, cert);
  EXPECT_TRUE(cert_dec.AtEnd());
  Decoder sig_dec(sig_bytes);
  Signature sig_back;
  ASSERT_TRUE(DecodeSignature(&sig_dec, &sig_back).ok());
  EXPECT_EQ(sig_back, sig);
  EXPECT_TRUE(sig_dec.AtEnd());
}

TEST(QuorumCertTest, CertListRoundTripsAndRejectsOversizedCount) {
  QuorumCert a;
  a.site = 0;
  a.signer_bits = 0b11;
  QuorumCert b;
  b.site = 1;
  b.index_base = 101;
  b.signer_bits = 0b111;

  Encoder enc;
  EncodeCertList(&enc, {a, b});
  Decoder dec(enc.buffer());
  std::vector<QuorumCert> back;
  ASSERT_TRUE(DecodeCertList(&dec, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);

  // A length prefix past the cap is corruption, not an allocation request.
  Encoder evil;
  evil.PutVarint(1u << 20);
  Decoder evil_dec(evil.buffer());
  std::vector<QuorumCert> out;
  EXPECT_FALSE(DecodeCertList(&evil_dec, &out).ok());
}

TEST(QuorumCertTest, BuildDedupsAndIgnoresOtherSites) {
  KeyStore keys;
  auto s0 = keys.RegisterNode({0, 0});
  auto s2 = keys.RegisterNode({0, 2});
  auto other = keys.RegisterNode({1, 0});
  Bytes msg = ToBytes("attested bytes");

  Signature sig0 = s0->Sign(msg);
  Signature sig2 = s2->Sign(msg);
  Signature dup0 = sig0;
  dup0.mac[3] ^= 0xff;  // same signer, different MAC: first wins

  QuorumCert cert =
      BuildQuorumCert(0, {sig0, dup0, other->Sign(msg), sig2});
  EXPECT_EQ(cert.site, 0);
  EXPECT_EQ(cert.index_base, 0);
  EXPECT_EQ(cert.signer_bits, 0b101u);
  EXPECT_EQ(cert.signer_count(), 2);
  // First-wins dedup: the aggregate matches the clean two-signature build.
  EXPECT_EQ(cert, BuildQuorumCert(0, {sig0, sig2}));
}

TEST(QuorumCertTest, MirrorRangeSignersGetTheMinimumIndexBase) {
  // Mirror groups live at indices 100*(origin+1)+k — far beyond bit 63 of
  // a zero-based bitmap. The index_base re-anchors the bitmap at the
  // group's smallest member.
  KeyStore keys;
  auto m1 = keys.RegisterNode({2, 201});
  auto m2 = keys.RegisterNode({2, 202});
  Bytes msg = ToBytes("mirrored record proof");

  QuorumCert cert = BuildQuorumCert(2, {m2->Sign(msg), m1->Sign(msg)});
  EXPECT_EQ(cert.index_base, 201);
  EXPECT_EQ(cert.signer_bits, 0b11u);
  EXPECT_EQ(cert.signer_count(), 2);
  EXPECT_TRUE(keys.VerifyCert(msg, cert, 2));
}

// --- VerifyCert semantics ---------------------------------------------------

class CertVerifyTest : public ::testing::Test {
 protected:
  CertVerifyTest() {
    for (int i = 0; i < 3; ++i) {
      signers_.push_back(keys_.RegisterNode({0, i}));
    }
    msg_ = ToBytes("canonical transmission bytes");
    for (auto& s : signers_) sigs_.push_back(s->Sign(msg_));
    cert_ = BuildQuorumCert(0, sigs_);
    qc_stats().Reset();
  }
  ~CertVerifyTest() override { qc_stats().Reset(); }

  KeyStore keys_;
  std::vector<std::unique_ptr<Signer>> signers_;
  Bytes msg_;
  std::vector<Signature> sigs_;
  QuorumCert cert_;
};

TEST_F(CertVerifyTest, GenuineCertVerifiesAndThresholdBinds) {
  EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
  EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 3));
  // More signers demanded than the bitmap lists: reject before any HMAC.
  EXPECT_FALSE(keys_.VerifyCert(msg_, cert_, 4));
}

TEST_F(CertVerifyTest, ForgeriesFailAndAreNeverCached) {
  QuorumCert tampered = cert_;
  tampered.agg[0] ^= 0x01;
  QuorumCert inflated = cert_;
  inflated.signer_bits |= 1u << 3;  // claims an unregistered fourth signer
  Bytes wrong_msg = msg_;
  wrong_msg.back() ^= 0x01;

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(keys_.VerifyCert(msg_, tampered, 2));
    EXPECT_FALSE(keys_.VerifyCert(msg_, inflated, 2));
    EXPECT_FALSE(keys_.VerifyCert(wrong_msg, cert_, 2));
  }
  // Failures never seed the cache: every attempt above took the full
  // (failing) recomputation, and the genuine cert still verifies.
  EXPECT_EQ(qc_stats().cache_hits, 0);
  EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
}

TEST_F(CertVerifyTest, RepeatVerifiesHitTheCacheAndElideMacChecks) {
  ASSERT_TRUE(keys_.VerifyCert(msg_, cert_, 2));  // cold: 3 MAC checks
  EXPECT_EQ(qc_stats().certs_verified, 1);
  EXPECT_EQ(qc_stats().proof_sig_verifies, 3);
  EXPECT_EQ(qc_stats().cache_hits, 0);

  for (int i = 0; i < 5; ++i) EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
  EXPECT_EQ(qc_stats().cache_hits, 5);
  EXPECT_EQ(qc_stats().verifies_elided, 15);  // 5 hits x 3 signers
  EXPECT_EQ(qc_stats().proof_sig_verifies, 3);  // unchanged: no recompute
}

TEST_F(CertVerifyTest, DisabledCacheStillVerifiesCorrectly) {
  keys_.set_verify_cache_capacity(0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(keys_.VerifyCert(msg_, cert_, 2));
  EXPECT_EQ(qc_stats().cache_hits, 0);
  QuorumCert tampered = cert_;
  tampered.agg[5] ^= 0xff;
  EXPECT_FALSE(keys_.VerifyCert(msg_, tampered, 2));
}

// --- Duplicate-signer forgeries -------------------------------------------

TEST(ProofHardeningTest, ForgedDuplicatePoisonsAnOtherwiseValidProof) {
  // The forged-duplicate attack: pad a genuine f_i+1 proof with a second
  // entry claiming an already-present signer, hoping to count one
  // signature twice. A cert's bitmap cannot name a signer twice, so the
  // padding either collapses on build or, smuggled into the aggregate,
  // fails verification.
  KeyStore keys;
  auto s0 = keys.RegisterNode({0, 0});
  auto s1 = keys.RegisterNode({0, 1});
  auto other = keys.RegisterNode({1, 0});
  Bytes msg = ToBytes("state change");
  Signature sig0 = s0->Sign(msg);
  Signature sig1 = s1->Sign(msg);
  Signature forged_dup = sig0;
  forged_dup.mac[0] ^= 0xff;

  const QuorumCert genuine = BuildQuorumCert(0, {sig0, sig1});
  ASSERT_TRUE(keys.VerifyCert(msg, genuine, 2));
  // A duplicate, forged or byte-identical, collapses onto its first
  // occurrence: the count stays 2 and cannot reach a threshold of 3.
  for (const Signature& dup : {forged_dup, sig0}) {
    QuorumCert padded = BuildQuorumCert(0, {sig0, dup, sig1});
    EXPECT_EQ(padded, genuine);
    EXPECT_FALSE(keys.VerifyCert(msg, padded, 3));
  }
  // A hand-rolled aggregate that folds the duplicate's MAC in anyway
  // no longer matches the MACs the bitmap names.
  Bytes macs;
  for (const Signature& sig : {sig0, forged_dup, sig1}) {
    macs.insert(macs.end(), sig.mac.begin(), sig.mac.end());
  }
  QuorumCert smuggled = genuine;
  smuggled.agg = Sha256Digest(macs);
  EXPECT_FALSE(keys.VerifyCert(msg, smuggled, 2));
  // Other sites' entries are still ignored padding, not duplicates.
  EXPECT_EQ(BuildQuorumCert(0, {sig0, sig1, other->Sign(msg)}), genuine);
}

}  // namespace
}  // namespace blockplane::crypto

// --- End-to-end: certs on the wire, cache hits across the deployment --------

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::kIreland;
using net::kOregon;
using net::kVirginia;
using net::Topology;
using sim::Seconds;

BlockplaneOptions FgOptions(int fg) {
  BlockplaneOptions options;
  options.fg = fg;
  return options;
}

// --- Wire: cert lists are ordinary fields -----------------------------------

crypto::QuorumCert SampleCert(net::SiteId site, int32_t base) {
  crypto::QuorumCert cert;
  cert.site = site;
  cert.index_base = base;
  cert.signer_bits = 0b11;
  cert.agg.fill(static_cast<uint8_t>(0x40 + site));
  return cert;
}

// Every proper prefix of an encoding that carries certs is corruption —
// no decoder treats a missing cert list as an absent optional section —
// and the full encoding decodes back to the same bytes.
template <typename Msg>
void ExpectTruncationsAreCorruption(const Msg& msg, const char* what) {
  const Bytes bytes = msg.Encode();
  for (size_t len = 0; len < bytes.size(); ++len) {
    Msg out;
    EXPECT_TRUE(Msg::Decode(Bytes(bytes.begin(), bytes.begin() + len), &out)
                    .IsCorruption())
        << what << " length " << len;
  }
  Msg back;
  ASSERT_TRUE(Msg::Decode(bytes, &back).ok()) << what;
  EXPECT_EQ(back.Encode(), bytes) << what;
}

TEST(QuorumCertWireTest, EveryTruncationIsCorruption) {
  TransmissionRecord tr;
  tr.src_site = kCalifornia;
  tr.dest_site = kOregon;
  tr.src_log_pos = 7;
  tr.prev_src_log_pos = 3;
  tr.payload = ToBytes("certified");
  tr.geo_pos = 2;
  tr.certs = {SampleCert(kCalifornia, 0), SampleCert(kOregon, 100),
              SampleCert(kVirginia, 100)};
  ExpectTruncationsAreCorruption(tr, "TransmissionRecord");

  LogRecord received = tr.ToReceivedRecord();
  ASSERT_EQ(received.certs, tr.certs);
  ExpectTruncationsAreCorruption(received, "LogRecord");

  GeoReplicateMsg replicate;
  replicate.acting_site = kOregon;
  replicate.geo_pos = 4;
  replicate.record = ToBytes("origin record");
  replicate.certs = {SampleCert(kOregon, 0)};
  ExpectTruncationsAreCorruption(replicate, "GeoReplicateMsg");

  GeoProofBundleMsg bundle;
  bundle.pos = 9;
  bundle.certs = {SampleCert(kOregon, 100), SampleCert(kIreland, 100)};
  ExpectTruncationsAreCorruption(bundle, "GeoProofBundleMsg");
}

TEST(QuorumCertDeathTest, DeploymentRejectsUnitsWiderThanTheSignerBitmap) {
  // A unit of 3f_i+1 nodes must fit the 64-bit signer bitmap, or its
  // proofs could never be certified: f_i = 21 (64 nodes) is the widest.
  {
    sim::Simulator simulator(1);
    BlockplaneOptions options;
    options.fi = 21;
    Deployment deployment(&simulator, Topology::Aws4(), options);
    EXPECT_EQ(deployment.options().fi, 21);
  }
  EXPECT_DEATH(
      {
        sim::Simulator simulator(1);
        BlockplaneOptions options;
        options.fi = 22;
        Deployment deployment(&simulator, Topology::Aws4(), options);
      },
      "quorum certificate covers at most 64 signers");
}

// --- End to end ---------------------------------------------------------------

TEST(QuorumCertEndToEndTest, SendsShipCertsAndEveryExtraHopHitsTheCache) {
  sim::Simulator simulator(11);
  Deployment deployment(&simulator, Topology::Aws4(), BlockplaneOptions{});
  qc_stats().Reset();

  Participant* sender = deployment.participant(kCalifornia);
  for (int i = 0; i < 5; ++i) {
    sender->Send(kOregon, ToBytes("qc" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = deployment.participant(kOregon);
  std::vector<std::string> got;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] {
        Bytes payload;
        while (receiver->TryReceive(kCalifornia, &payload)) {
          got.push_back(ToString(payload));
        }
        return got.size() == 5;
      },
      Seconds(60)));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[i], "qc" + std::to_string(i));
  simulator.RunFor(Seconds(2));

  // One cert per decision, built once at the source...
  EXPECT_GT(qc_stats().certs_built, 0);
  // ...verified cold at the first hop, elided everywhere after: the
  // deployment shares one KeyStore, so the 2nd..4th destination nodes and
  // every replayed flight probe the cert cache instead of re-checking
  // f_i+1 MACs.
  EXPECT_GT(qc_stats().certs_verified, 0);
  EXPECT_GT(qc_stats().cache_hits, 0);
  EXPECT_GT(qc_stats().verifies_elided, 0);
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, DuplicateQcTransmissionChecksItsCertOnce) {
  // One QC-carrying transmission reaches every Oregon node twice. Arrival
  // checks nothing; admission checks the cert through the cert cache, so
  // the f_i+1 MACs are recomputed once in all and the record commits once.
  sim::Simulator simulator(17);
  Deployment deployment(&simulator, Topology::Aws4(), BlockplaneOptions{});
  TransmissionRecord tr;
  tr.src_site = kCalifornia;
  tr.dest_site = kOregon;
  tr.src_log_pos = 1;
  tr.prev_src_log_pos = 0;
  tr.payload = ToBytes("qc-once");
  const Bytes canonical =
      AttestCanonical(AttestPurpose::kTransmission, tr.src_site,
                      tr.src_log_pos, tr.ContentDigest());
  std::vector<crypto::Signature> sigs;
  for (int i = 0; i <= deployment.options().fi; ++i) {
    sigs.push_back(
        deployment.keys()->RegisterNode({kCalifornia, i})->Sign(canonical));
  }
  tr.certs = {crypto::BuildQuorumCert(kCalifornia, sigs)};
  qc_stats().Reset();

  for (int copy = 0; copy < 2; ++copy) {
    for (int i = 0; i < 4; ++i) {
      net::Message msg;
      msg.src = {kCalifornia, 0};
      msg.dst = {kOregon, i};
      msg.type = kTransmission;
      msg.set_body(tr.Encode());
      deployment.network()->Send(msg);
    }
  }
  Participant* receiver = deployment.participant(kOregon);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));
  EXPECT_EQ(ToString(payload), "qc-once");
  simulator.RunFor(Seconds(2));
  EXPECT_FALSE(receiver->TryReceive(kCalifornia, &payload));
  EXPECT_EQ(qc_stats().certs_verified, 1);
  EXPECT_GT(qc_stats().cache_hits, 0);
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, UnsignedModeShipsCertsWithoutCheckingThem) {
  // sign_messages = false skips the receive-side checks only: the wire
  // format is the same, so the source still certifies every decision.
  sim::Simulator simulator(13);
  BlockplaneOptions options;
  options.sign_messages = false;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  qc_stats().Reset();

  Participant* receiver = deployment.participant(kOregon);
  deployment.participant(kCalifornia)
      ->Send(kOregon, ToBytes("vanilla"), 0, nullptr);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));
  simulator.RunFor(Seconds(2));
  EXPECT_EQ(qc_stats().certs_built, 1);
  EXPECT_EQ(qc_stats().certs_verified, 0);
  EXPECT_EQ(qc_stats().cache_hits, 0);
  EXPECT_GT(qc_stats().wan_proof_bytes, 0);
  const auto& log = deployment.node(kOregon, 0)->log();
  ASSERT_FALSE(log.empty());
  ASSERT_EQ(log.begin()->second.certs.size(), 1u);
  EXPECT_EQ(log.begin()->second.certs[0].site, kCalifornia);
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, RetransmissionsAfterAPartitionHitTheCache) {
  // A transmission stranded by a partition is retransmitted (widened to
  // 3f_i+1 receivers) once the link heals; the replayed flights carry the
  // same certificate, so every re-verify is a cache probe, not f_i+1 MACs.
  sim::Simulator simulator(17);
  Deployment deployment(&simulator, Topology::Aws4(), BlockplaneOptions{});
  qc_stats().Reset();

  Participant* sender = deployment.participant(kCalifornia);
  Participant* receiver = deployment.participant(kVirginia);
  Bytes payload;

  sender->Send(kVirginia, ToBytes("first"), 0, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));

  deployment.network()->PartitionSites(kCalifornia, kVirginia);
  sender->Send(kVirginia, ToBytes("delayed"), 0, nullptr);
  simulator.RunFor(Seconds(5));  // retransmit timers fire into the void
  int64_t hits_before_heal = qc_stats().cache_hits;

  deployment.network()->HealPartition(kCalifornia, kVirginia);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(120)));
  EXPECT_EQ(ToString(payload), "delayed");
  simulator.RunFor(Seconds(3));

  // The healed flights re-verified the stranded certificate at the widened
  // receiver set: strictly more cache hits than before the heal.
  EXPECT_GT(qc_stats().cache_hits, hits_before_heal);
  EXPECT_GT(qc_stats().verifies_elided, 0);
  qc_stats().Reset();
}

TEST(QuorumCertEndToEndTest, MirrorGapBackfillHitsTheCache) {
  // A mirror site that slept through commits fetches the missed entries
  // from its peers on recovery. The backfilled records carry their quorum
  // certs, already verified deployment-wide during the original
  // replication — the gap fill must ride the cert cache.
  sim::Simulator simulator(19);
  Deployment deployment(&simulator, Topology::Aws4(), FgOptions(/*fg=*/1));
  robustness_stats().Reset();

  auto commit = [&](const std::string& payload) {
    bool done = false;
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes(payload), 0, [&](uint64_t) { done = true; });
    ASSERT_TRUE(
        simulator.RunUntilCondition([&] { return done; }, Seconds(60)));
  };

  commit("before outage");
  simulator.RunFor(Seconds(1));

  // One of California's two mirror hosts goes dark; fg=1 commits proceed
  // on the surviving mirror alone, so the sleeper accumulates a gap.
  net::SiteId sleeper = deployment.mirror_sites_of(kCalifornia)[0];
  deployment.network()->CrashSite(sleeper);
  commit("missed one");
  commit("missed two");
  deployment.network()->RecoverSite(sleeper);
  qc_stats().Reset();

  commit("after recovery");
  commit("after recovery two");
  RobustnessStats& rs = robustness_stats();
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return rs.mirror_gap_filled > 0; }, Seconds(60)))
      << "recovered mirror never backfilled its gap";
  simulator.RunFor(Seconds(2));

  EXPECT_GT(rs.mirror_gap_fetches, 0);
  // The backfilled proofs were verified through the cert path and the
  // cache elided the per-MAC work.
  EXPECT_GT(qc_stats().verifies_elided, 0);
  EXPECT_GT(qc_stats().cache_hits, 0);
  qc_stats().Reset();
  robustness_stats().Reset();
}

TEST(QuorumCertEndToEndTest, GeoCommitsCarryCertsInReplicationAndBundles) {
  // fg > 0 exercises both geo cert paths: replicate messages carry the
  // source unit's cert, and proof bundles carry one cert per acking site.
  sim::Simulator simulator(23);
  Deployment deployment(&simulator, Topology::Aws4(), FgOptions(/*fg=*/1));
  qc_stats().Reset();

  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes("geo" + std::to_string(i)), 0,
                    [&](uint64_t) { ++completed; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return completed == 3; },
                                          Seconds(120)));
  simulator.RunFor(Seconds(2));

  EXPECT_GT(qc_stats().certs_built, 0);
  EXPECT_GT(qc_stats().certs_verified, 0);
  EXPECT_GT(qc_stats().verifies_elided, 0);
  // Mirror logs hold the records despite the vector-free wire.
  int holding = 0;
  for (net::SiteId host : deployment.mirror_sites_of(kCalifornia)) {
    if (deployment.mirror_node(host, kCalifornia, 0)->log_size() >= 3) {
      ++holding;
    }
  }
  EXPECT_GE(holding, 1);
  qc_stats().Reset();
}

}  // namespace
}  // namespace blockplane::core
