// Structured round-trip property tests: randomly generated Local Log
// records and transmission records (with certs) must encode/decode to
// exactly equal values, and content digests must be stable under
// re-encoding and sensitive to every identity field.
#include <gtest/gtest.h>

#include "core/blockplane.h"
#include "sim/random.h"

namespace blockplane::core {
namespace {

using sim::Rng;

Bytes RandomPayload(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBelow(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

crypto::Signature RandomSig(Rng& rng) {
  crypto::Signature sig;
  sig.signer = {static_cast<int32_t>(rng.NextBelow(4)),
                static_cast<int32_t>(rng.NextBelow(2000))};
  for (auto& b : sig.mac) b = static_cast<uint8_t>(rng.NextU64());
  return sig;
}

crypto::QuorumCert RandomCert(Rng& rng) {
  crypto::QuorumCert cert;
  cert.site = static_cast<net::SiteId>(rng.NextBelow(4));
  cert.index_base = static_cast<int32_t>(rng.NextBelow(500));
  cert.signer_bits = rng.NextU64();
  for (auto& b : cert.agg) b = static_cast<uint8_t>(rng.NextU64());
  return cert;
}

std::vector<crypto::QuorumCert> RandomCerts(Rng& rng, uint64_t max) {
  std::vector<crypto::QuorumCert> certs(rng.NextBelow(max + 1));
  for (auto& cert : certs) cert = RandomCert(rng);
  return certs;
}

LogRecord RandomRecord(Rng& rng) {
  LogRecord record;
  record.type = static_cast<RecordType>(1 + rng.NextBelow(4));
  record.routine_id = rng.NextBelow(100);
  record.payload = RandomPayload(rng, 200);
  record.dest_site = static_cast<net::SiteId>(rng.NextBelow(4));
  record.src_site = static_cast<net::SiteId>(rng.NextBelow(4));
  record.src_log_pos = rng.NextBelow(1000);
  record.prev_src_log_pos = rng.NextBelow(1000);
  record.geo_pos = rng.NextBelow(1000);
  for (uint64_t i = 0; i < rng.NextBelow(4); ++i) {
    record.proof.push_back(RandomSig(rng));
  }
  record.certs = RandomCerts(rng, 4);
  return record;
}

bool RecordsEqual(const LogRecord& a, const LogRecord& b) {
  return a.type == b.type && a.routine_id == b.routine_id &&
         a.payload == b.payload && a.dest_site == b.dest_site &&
         a.src_site == b.src_site && a.src_log_pos == b.src_log_pos &&
         a.prev_src_log_pos == b.prev_src_log_pos && a.geo_pos == b.geo_pos &&
         a.proof == b.proof && a.certs == b.certs;
}

class RecordRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RecordRoundTripTest, LogRecordsRoundTripExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0xabcdef);
  for (int i = 0; i < 200; ++i) {
    LogRecord record = RandomRecord(rng);
    LogRecord decoded;
    ASSERT_TRUE(LogRecord::Decode(record.Encode(), &decoded).ok());
    EXPECT_TRUE(RecordsEqual(record, decoded));
    // Digest stability: re-encoding the decoded record preserves identity.
    EXPECT_EQ(record.ContentDigest(), decoded.ContentDigest());
    EXPECT_EQ(record.Encode(), decoded.Encode());
  }
}

TEST_P(RecordRoundTripTest, TransmissionRecordsRoundTripExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x13579b);
  for (int i = 0; i < 200; ++i) {
    TransmissionRecord tr;
    tr.src_site = static_cast<net::SiteId>(rng.NextBelow(4));
    tr.dest_site = static_cast<net::SiteId>(rng.NextBelow(4));
    tr.src_log_pos = rng.NextBelow(1000);
    tr.prev_src_log_pos = rng.NextBelow(1000);
    tr.routine_id = rng.NextBelow(100);
    tr.payload = RandomPayload(rng, 200);
    tr.geo_pos = rng.NextBelow(1000);
    tr.certs = RandomCerts(rng, 4);
    TransmissionRecord decoded;
    ASSERT_TRUE(TransmissionRecord::Decode(tr.Encode(), &decoded).ok());
    EXPECT_EQ(tr.Encode(), decoded.Encode());
    EXPECT_EQ(decoded.certs, tr.certs);
    // The transmission's digest equals its received-record form's digest —
    // the invariant source attestations and receive verification share.
    EXPECT_EQ(tr.ContentDigest(),
              decoded.ToReceivedRecord().ContentDigest());
  }
}

TEST_P(RecordRoundTripTest, DigestSensitiveToEveryIdentityField) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x2468a);
  LogRecord base = RandomRecord(rng);
  crypto::Digest original = base.ContentDigest();

  LogRecord mutated = base;
  mutated.routine_id += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.payload.push_back(0x01);
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.src_log_pos += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.prev_src_log_pos += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  mutated = base;
  mutated.geo_pos += 1;
  EXPECT_NE(mutated.ContentDigest(), original);

  // ...but NOT to the proofs, which vary by which nodes happened to sign.
  mutated = base;
  mutated.proof.push_back(RandomSig(rng));
  EXPECT_EQ(mutated.ContentDigest(), original);
}

TEST_P(RecordRoundTripTest, SameContentMovesInLockstepWithContentDigest) {
  // Quorum reads match replies with SameContent instead of hashing them,
  // so it must turn false exactly when the content digests differ. A field
  // added to one of the two and not the other fails here.
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x5eed);
  for (int i = 0; i < 50; ++i) {
    const LogRecord base = RandomRecord(rng);
    const crypto::Digest original = base.ContentDigest();
    auto expect_lockstep = [&](const LogRecord& mutated, const char* what) {
      bool digests_equal = mutated.ContentDigest() == original;
      EXPECT_EQ(SameContent(base, mutated), digests_equal) << what;
      EXPECT_EQ(SameContent(mutated, base), digests_equal) << what;
    };
    EXPECT_TRUE(SameContent(base, base));

    // Every covered field, in turn: both must see the change.
    const std::vector<std::pair<const char*, void (*)(LogRecord*)>> covered =
        {{"type",
          [](LogRecord* r) {
            r->type = static_cast<RecordType>(
                1 + static_cast<int>(r->type) % 4);
          }},
         {"routine_id", [](LogRecord* r) { r->routine_id += 1; }},
         {"payload byte",
          [](LogRecord* r) {
            if (r->payload.empty()) r->payload.push_back(0);
            r->payload[r->payload.size() / 2] ^= 0x01;
          }},
         {"payload length", [](LogRecord* r) { r->payload.push_back(0); }},
         {"dest_site", [](LogRecord* r) { r->dest_site += 1; }},
         {"src_site", [](LogRecord* r) { r->src_site += 1; }},
         {"src_log_pos", [](LogRecord* r) { r->src_log_pos += 1; }},
         {"prev_src_log_pos", [](LogRecord* r) { r->prev_src_log_pos += 1; }},
         {"geo_pos", [](LogRecord* r) { r->geo_pos += 1; }}};
    for (const auto& [what, mutate] : covered) {
      LogRecord mutated = base;
      mutate(&mutated);
      EXPECT_NE(mutated.ContentDigest(), original) << what;
      expect_lockstep(mutated, what);
    }

    // Authentication material is outside both.
    const std::vector<std::pair<const char*, void (*)(LogRecord*)>> excluded =
        {{"proof", [](LogRecord* r) { r->proof.emplace_back(); }},
         {"certs", [](LogRecord* r) { r->certs.emplace_back(); }}};
    for (const auto& [what, mutate] : excluded) {
      LogRecord mutated = base;
      mutate(&mutated);
      EXPECT_EQ(mutated.ContentDigest(), original) << what;
      expect_lockstep(mutated, what);
    }
  }
}

TEST_P(RecordRoundTripTest, AttestCanonicalSeparatesPurposes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x777);
  crypto::Digest digest;
  for (auto& b : digest) b = static_cast<uint8_t>(rng.NextU64());
  uint64_t pos = rng.NextBelow(1000);
  net::SiteId site = static_cast<net::SiteId>(rng.NextBelow(4));

  Bytes tx = AttestCanonical(AttestPurpose::kTransmission, site, pos, digest);
  Bytes geo = AttestCanonical(AttestPurpose::kGeoSource, site, pos, digest);
  Bytes ack = AttestCanonical(AttestPurpose::kGeoAck, site, pos, digest);
  EXPECT_NE(tx, geo);
  EXPECT_NE(geo, ack);
  EXPECT_NE(tx, ack);
  // And separates sites and positions.
  EXPECT_NE(tx, AttestCanonical(AttestPurpose::kTransmission,
                                (site + 1) % 4, pos, digest));
  EXPECT_NE(tx, AttestCanonical(AttestPurpose::kTransmission, site, pos + 1,
                                digest));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordRoundTripTest,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane::core
