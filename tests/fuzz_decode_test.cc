// Decode robustness: every wire decoder must survive arbitrary bytes —
// a byzantine peer controls everything it sends, so "corrupted message"
// must always mean a clean error, never a crash or an out-of-bounds read.
//
// Three generators: pure random bytes, truncations of valid encodings, and
// single-byte mutations of valid encodings.
#include <gtest/gtest.h>

#include "core/record.h"
#include "core/wire.h"
#include "paxos/message.h"
#include "pbft/message.h"
#include "sim/random.h"

namespace blockplane {
namespace {

using sim::Rng;

Bytes RandomBytes(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBelow(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

/// Runs every decoder in the code base against one input.
void DecodeEverything(const Bytes& input) {
  {
    core::LogRecord out;
    (void)core::LogRecord::Decode(input, &out);
  }
  {
    core::TransmissionRecord out;
    (void)core::TransmissionRecord::Decode(input, &out);
  }
  {
    core::TransmissionAckMsg out;
    (void)core::TransmissionAckMsg::Decode(input, &out);
  }
  {
    core::AttestRequestMsg out;
    (void)core::AttestRequestMsg::Decode(input, &out);
  }
  {
    core::AttestResponseMsg out;
    (void)core::AttestResponseMsg::Decode(input, &out);
  }
  {
    core::DeliverNoticeMsg out;
    (void)core::DeliverNoticeMsg::Decode(input, &out);
  }
  {
    core::GeoReplicateMsg out;
    (void)core::GeoReplicateMsg::Decode(input, &out);
  }
  {
    core::GeoAckMsg out;
    (void)core::GeoAckMsg::Decode(input, &out);
  }
  {
    core::MirrorFetchMsg out;
    (void)core::MirrorFetchMsg::Decode(input, &out);
  }
  {
    core::MirrorEntryMsg out;
    (void)core::MirrorEntryMsg::Decode(input, &out);
  }
  {
    core::ReadReplyMsg out;
    (void)core::ReadReplyMsg::Decode(input, &out);
  }
  {
    pbft::RequestMsg out;
    (void)pbft::RequestMsg::Decode(input, &out);
  }
  {
    pbft::PrePrepareMsg out;
    (void)pbft::PrePrepareMsg::Decode(input, &out);
  }
  {
    pbft::VoteMsg out;
    (void)pbft::VoteMsg::Decode(pbft::kPrepare, input, &out);
  }
  {
    pbft::ViewChangeMsg out;
    (void)pbft::ViewChangeMsg::Decode(input, &out);
  }
  {
    pbft::NewViewMsg out;
    (void)pbft::NewViewMsg::Decode(input, &out);
  }
  {
    pbft::CommittedEntryMsg out;
    (void)pbft::CommittedEntryMsg::Decode(input, &out);
  }
  {
    paxos::PromiseMsg out;
    (void)paxos::PromiseMsg::Decode(input, &out);
  }
  {
    paxos::AcceptMsg out;
    (void)paxos::AcceptMsg::Decode(input, &out);
  }
}

class FuzzDecodeTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDecodeTest, RandomBytesNeverCrashDecoders) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x9e3779b9);
  for (int i = 0; i < 500; ++i) {
    DecodeEverything(RandomBytes(rng, 300));
  }
}

TEST_P(FuzzDecodeTest, TruncatedValidRecordsFailCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337);
  core::LogRecord record;
  record.type = core::RecordType::kReceived;
  record.routine_id = 9;
  record.payload = RandomBytes(rng, 64);
  record.src_site = 1;
  record.dest_site = 2;
  record.src_log_pos = 5;
  record.prev_src_log_pos = 3;
  Bytes valid = record.Encode();

  // Every strict prefix must decode to an error, never to success with
  // garbage fields silently accepted... and never crash.
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + len);
    core::LogRecord out;
    Status status = core::LogRecord::Decode(truncated, &out);
    EXPECT_FALSE(status.ok()) << "prefix of length " << len << " decoded";
  }
  // The full encoding round-trips.
  core::LogRecord out;
  ASSERT_TRUE(core::LogRecord::Decode(valid, &out).ok());
  EXPECT_EQ(out.payload, record.payload);
  EXPECT_EQ(out.src_log_pos, record.src_log_pos);
}

TEST_P(FuzzDecodeTest, MutatedValidEncodingsNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7);
  core::TransmissionRecord tr;
  tr.src_site = 0;
  tr.dest_site = 3;
  tr.src_log_pos = 11;
  tr.prev_src_log_pos = 9;
  tr.payload = RandomBytes(rng, 128);
  crypto::QuorumCert cert;
  cert.site = 0;
  cert.signer_bits = 0b11;
  tr.certs = {cert};
  Bytes valid = tr.Encode();

  for (int i = 0; i < 300; ++i) {
    Bytes mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<uint8_t>(rng.NextU64());
    DecodeEverything(mutated);
  }
}

TEST_P(FuzzDecodeTest, ConcatenatedGarbageAfterValidPrefixIsHandled) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101);
  pbft::RequestMsg request;
  request.client_token = 42;
  request.req_id = 7;
  request.value = RandomBytes(rng, 40);
  Bytes valid = request.Encode();
  for (int i = 0; i < 100; ++i) {
    Bytes extended = valid;
    Bytes garbage = RandomBytes(rng, 50);
    extended.insert(extended.end(), garbage.begin(), garbage.end());
    DecodeEverything(extended);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest,
                         ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane
