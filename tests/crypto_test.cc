// Unit tests for the crypto substrate: SHA-256 against FIPS vectors (on
// every compression kernel this CPU runs), HMAC-SHA256 against RFC 4231
// vectors, and signature/proof semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "crypto/hmac.h"
#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/signer.h"
#include "sim/random.h"

namespace blockplane::crypto {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(DigestToHex(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : msg) ctx.Update(std::string_view(&c, 1));
  EXPECT_EQ(ctx.Finish(), Sha256Digest(msg));
}

TEST(Sha256Test, ExactBlockBoundary) {
  std::string msg(64, 'x');
  std::string msg2(63, 'x');
  std::string msg3(65, 'x');
  EXPECT_NE(Sha256Digest(msg), Sha256Digest(msg2));
  EXPECT_NE(Sha256Digest(msg), Sha256Digest(msg3));
  // Streaming across the boundary agrees with one-shot.
  Sha256 ctx;
  ctx.Update(msg.substr(0, 40));
  ctx.Update(msg.substr(40));
  EXPECT_EQ(ctx.Finish(), Sha256Digest(msg));
}

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(DigestToHex(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  EXPECT_EQ(DigestToHex(HmacSha256(key, "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(DigestToHex(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(SignerTest, SignVerifyRoundTrip) {
  KeyStore store;
  auto signer = store.RegisterNode({0, 1});
  Bytes msg = ToBytes("commit record 42");
  Signature sig = signer->Sign(msg);
  EXPECT_EQ(sig.signer, (net::NodeId{0, 1}));
  EXPECT_TRUE(store.Verify(msg, sig));
}

TEST(SignerTest, TamperedMessageFailsVerification) {
  KeyStore store;
  auto signer = store.RegisterNode({0, 1});
  Signature sig = signer->Sign(ToBytes("original"));
  EXPECT_FALSE(store.Verify(ToBytes("tampered"), sig));
}

TEST(SignerTest, SignatureNotTransferableBetweenNodes) {
  KeyStore store;
  auto signer1 = store.RegisterNode({0, 1});
  store.RegisterNode({0, 2});
  Bytes msg = ToBytes("msg");
  Signature sig = signer1->Sign(msg);
  // A byzantine node relabeling the signature as node 0-2's does not verify.
  sig.signer = {0, 2};
  EXPECT_FALSE(store.Verify(msg, sig));
}

TEST(SignerTest, UnknownSignerFailsVerification) {
  KeyStore store;
  Signature sig;
  sig.signer = {9, 9};
  EXPECT_FALSE(store.Verify(ToBytes("m"), sig));
}

TEST(SignerTest, RegisterIsIdempotent) {
  KeyStore store;
  auto a = store.RegisterNode({1, 0});
  auto b = store.RegisterNode({1, 0});
  Bytes msg = ToBytes("m");
  EXPECT_EQ(a->Sign(msg).mac, b->Sign(msg).mac);
}

// A completed f_i+1 proof travels as one QuorumCert (DESIGN.md §14); these
// pin the proof semantics the cert keeps: distinct signers of one site,
// counted against a threshold, every MAC valid.

TEST(ProofTest, ThresholdOfDistinctSigners) {
  KeyStore store;
  auto s0 = store.RegisterNode({0, 0});
  auto s1 = store.RegisterNode({0, 1});
  Bytes msg = ToBytes("transmission record");
  QuorumCert cert = BuildQuorumCert(0, {s0->Sign(msg), s1->Sign(msg)});
  EXPECT_TRUE(store.VerifyCert(msg, cert, /*threshold=*/2));
  EXPECT_FALSE(store.VerifyCert(msg, cert, 3));
}

TEST(ProofTest, DuplicateSignersDoNotCount) {
  KeyStore store;
  auto s0 = store.RegisterNode({0, 0});
  Bytes msg = ToBytes("m");
  QuorumCert cert =
      BuildQuorumCert(0, {s0->Sign(msg), s0->Sign(msg), s0->Sign(msg)});
  EXPECT_EQ(cert.signer_count(), 1);
  EXPECT_FALSE(store.VerifyCert(msg, cert, 2));
}

TEST(ProofTest, WrongSiteSignaturesIgnored) {
  KeyStore store;
  auto s0 = store.RegisterNode({0, 0});
  auto other = store.RegisterNode({1, 0});
  Bytes msg = ToBytes("m");
  QuorumCert cert = BuildQuorumCert(/*site=*/0, {s0->Sign(msg),
                                                 other->Sign(msg)});
  EXPECT_FALSE(store.VerifyCert(msg, cert, /*threshold=*/2));
  EXPECT_TRUE(store.VerifyCert(msg, cert, /*threshold=*/1));
}

TEST(ProofTest, InvalidSignaturesIgnored) {
  // An invalid MAC never counts toward the threshold. In a cert it does
  // more: the aggregate binds every MAC, so it fails the whole cert.
  KeyStore store;
  auto s0 = store.RegisterNode({0, 0});
  store.RegisterNode({0, 1});
  Bytes msg = ToBytes("m");
  Signature forged;
  forged.signer = {0, 1};  // claims to be 0-1 but mac is zeroed
  QuorumCert cert = BuildQuorumCert(0, {s0->Sign(msg), forged});
  EXPECT_FALSE(store.VerifyCert(msg, cert, 2));
  EXPECT_FALSE(store.VerifyCert(msg, cert, 1));
}

TEST(ProofCodecTest, RoundTrip) {
  KeyStore store;
  auto s0 = store.RegisterNode({2, 3});
  auto s1 = store.RegisterNode({2, 4});
  Bytes msg = ToBytes("payload");
  std::vector<Signature> proof = {s0->Sign(msg), s1->Sign(msg)};

  Encoder enc;
  EncodeProof(&enc, proof);
  Decoder dec(enc.buffer());
  std::vector<Signature> decoded;
  ASSERT_TRUE(DecodeProof(&dec, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], proof[0]);
  EXPECT_EQ(decoded[1], proof[1]);
  for (const Signature& sig : decoded) EXPECT_TRUE(store.Verify(msg, sig));
}

TEST(ProofCodecTest, OversizedProofRejected) {
  Encoder enc;
  enc.PutVarint(100000);
  Decoder dec(enc.buffer());
  std::vector<Signature> decoded;
  EXPECT_TRUE(DecodeProof(&dec, &decoded).IsCorruption());
}

// --- PrecomputedHmacKey equivalence (property test) --------------------------

Bytes RandomBytes(sim::Rng* rng, size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<uint8_t>(rng->NextBelow(256));
  return out;
}

TEST(PrecomputedHmacKeyTest, MatchesReferenceForRandomKeysAndLengths) {
  // The midstate path must be bit-identical to the stateless reference for
  // every key length — shorter than, equal to, and longer than the 64-byte
  // block (long keys are pre-hashed per RFC 2104) — and every message
  // length across the SHA-256 padding boundaries.
  sim::Rng rng(20260806);
  const size_t key_lens[] = {0, 1, 16, 31, 32, 63, 64, 65, 100, 128, 257};
  for (size_t key_len : key_lens) {
    Bytes key = RandomBytes(&rng, key_len);
    PrecomputedHmacKey fast(key);
    const size_t msg_lens[] = {0,  1,  47,  48,  55,  56,  63,
                               64, 65, 119, 120, 127, 128, 1000};
    for (size_t msg_len : msg_lens) {
      Bytes msg = RandomBytes(&rng, msg_len);
      EXPECT_EQ(fast.Sign(msg), HmacSha256(key, msg))
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
  }
}

TEST(PrecomputedHmacKeyTest, RandomizedFuzzAgainstReference) {
  sim::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Bytes key = RandomBytes(&rng, rng.NextBelow(200));
    Bytes msg = RandomBytes(&rng, rng.NextBelow(500));
    PrecomputedHmacKey fast(key);
    ASSERT_EQ(fast.Sign(msg), HmacSha256(key, msg)) << "iteration " << i;
  }
}

TEST(PrecomputedHmacKeyTest, KeyIsReusableAcrossManySigns) {
  // Sign must not corrupt the cached midstates: the Nth signature equals
  // the 1st for identical input, and interleaved inputs don't cross-talk.
  sim::Rng rng(7);
  Bytes key = RandomBytes(&rng, 32);
  PrecomputedHmacKey fast(key);
  Bytes a = ToBytes("alpha");
  Bytes b = ToBytes("beta");
  Digest first_a = fast.Sign(a);
  Digest first_b = fast.Sign(b);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fast.Sign(a), first_a);
    EXPECT_EQ(fast.Sign(b), first_b);
  }
  EXPECT_NE(first_a, first_b);
}

TEST(PrecomputedHmacKeyTest, VerifyAcceptsGenuineRejectsTampered) {
  sim::Rng rng(13);
  Bytes key = RandomBytes(&rng, 64);
  PrecomputedHmacKey fast(key);
  Bytes msg = ToBytes("payload under test");
  Digest mac = fast.Sign(msg);
  EXPECT_TRUE(fast.Verify(msg, mac));
  Digest bad_mac = mac;
  bad_mac[0] ^= 0x01;
  EXPECT_FALSE(fast.Verify(msg, bad_mac));
  Bytes bad_msg = msg;
  bad_msg.back() ^= 0x01;
  EXPECT_FALSE(fast.Verify(bad_msg, mac));
}

// --- KeyStore verify-once cache ---------------------------------------------

TEST(VerifyCacheTest, RepeatedVerifyHitsCache) {
  KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  Bytes msg = ToBytes("quorum certificate bytes");
  Signature sig = signer->Sign(msg);

  hotpath_stats().Reset();
  EXPECT_TRUE(keys.Verify(msg, sig));  // miss: full HMAC, then cached
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 0);
  EXPECT_EQ(hotpath_stats().sig_cache_misses, 1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(keys.Verify(msg, sig));
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 10);
  EXPECT_EQ(hotpath_stats().sig_cache_misses, 1);
  hotpath_stats().Reset();
}

TEST(VerifyCacheTest, ForgedSignaturesNeverHitTheCache) {
  // A cached success for (signer, mac, msg) must not leak acceptance to any
  // forgery: flipped mac, flipped msg, or a different claimed signer all
  // take (and fail) the full check, every time.
  KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  keys.RegisterNode({0, 1});
  Bytes msg = ToBytes("transfer 100 coins");
  Signature sig = signer->Sign(msg);
  ASSERT_TRUE(keys.Verify(msg, sig));  // prime the cache

  Signature forged_mac = sig;
  forged_mac.mac[5] ^= 0xff;
  Bytes forged_msg = msg;
  forged_msg[0] ^= 0xff;
  Signature stolen = sig;  // genuine mac, wrong claimed signer
  stolen.signer = {0, 1};
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(keys.Verify(msg, forged_mac));
    EXPECT_FALSE(keys.Verify(forged_msg, sig));
    EXPECT_FALSE(keys.Verify(msg, stolen));
  }
  // The genuine triple still verifies after the forgery attempts.
  EXPECT_TRUE(keys.Verify(msg, sig));
}

TEST(VerifyCacheTest, ProbeDifferingInOneFieldMisses) {
  // The cache is probed through a borrowed view of the caller's triple; a
  // hit must still require every byte of signer, MAC and message to match.
  // MAC byte 31 lies outside the hashed prefix, so only equality can tell
  // it apart.
  KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  keys.RegisterNode({0, 1});
  Bytes msg = ToBytes("attest record 17");
  Signature sig = signer->Sign(msg);
  ASSERT_TRUE(keys.Verify(msg, sig));  // prime the cache

  Bytes first_byte = msg;
  first_byte.front() ^= 0x01;
  Bytes last_byte = msg;
  last_byte.back() ^= 0x01;
  Bytes prefix(msg.begin(), msg.end() - 1);
  Signature mac_head = sig;
  mac_head.mac[0] ^= 0x01;
  Signature mac_tail = sig;
  mac_tail.mac[31] ^= 0x01;
  Signature other_signer = sig;
  other_signer.signer = {0, 1};
  const std::vector<std::pair<Bytes, Signature>> probes = {
      {first_byte, sig}, {last_byte, sig},      {prefix, sig},
      {msg, mac_head},   {msg, mac_tail},       {msg, other_signer}};

  hotpath_stats().Reset();
  for (const auto& [probe_msg, probe_sig] : probes) {
    EXPECT_FALSE(keys.Verify(probe_msg, probe_sig));
  }
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 0);
  EXPECT_EQ(hotpath_stats().sig_cache_misses,
            static_cast<int64_t>(probes.size()));
  // The cached triple itself still hits.
  EXPECT_TRUE(keys.Verify(msg, sig));
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 1);
  hotpath_stats().Reset();
}

TEST(VerifyCacheTest, DisabledCacheStillVerifiesCorrectly) {
  KeyStore keys;
  keys.set_verify_cache_capacity(0);
  auto signer = keys.RegisterNode({1, 2});
  Bytes msg = ToBytes("no cache");
  Signature sig = signer->Sign(msg);
  hotpath_stats().Reset();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(keys.Verify(msg, sig));
  EXPECT_EQ(hotpath_stats().sig_cache_hits, 0);
  Signature bad = sig;
  bad.mac[0] ^= 1;
  EXPECT_FALSE(keys.Verify(msg, bad));
  hotpath_stats().Reset();
}

TEST(VerifyCacheTest, CapacityIsBoundedUnderChurn) {
  // Flood far past capacity: correctness holds (evicted entries simply
  // re-verify) and the generations flip instead of growing unboundedly.
  KeyStore keys;
  keys.set_verify_cache_capacity(64);
  auto signer = keys.RegisterNode({2, 0});
  hotpath_stats().Reset();
  std::vector<std::pair<Bytes, Signature>> signed_msgs;
  for (int i = 0; i < 500; ++i) {
    Bytes msg = ToBytes("msg-" + std::to_string(i));
    Signature sig = signer->Sign(msg);
    signed_msgs.emplace_back(msg, sig);
    ASSERT_TRUE(keys.Verify(msg, sig));
  }
  EXPECT_GT(hotpath_stats().verify_cache_evictions, 0);
  // Every message still verifies — via cache or full HMAC alike.
  for (const auto& [msg, sig] : signed_msgs) {
    ASSERT_TRUE(keys.Verify(msg, sig));
  }
  hotpath_stats().Reset();
}

// --- Compression kernels: every kernel this CPU runs vs the portable one -----

using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                            size_t nblocks);

struct KernelCase {
  const char* name;
  CompressFn compress;  // null: this CPU cannot run the kernel
};

// gtest would print the raw bytes, function pointer included, into every
// test's listed name; the kernel name keeps the names fixed across builds.
void PrintTo(const KernelCase& kernel, std::ostream* os) { *os << kernel.name; }

std::vector<KernelCase> AllKernels() {
  std::vector<KernelCase> kernels = {
      {"portable", internal::Sha256CompressPortable}};
#if defined(__x86_64__)
  kernels.push_back({"sha_ni", internal::CpuHasShaNi()
                                   ? internal::Sha256CompressShaNi
                                   : nullptr});
#else
  kernels.push_back({"sha_ni", nullptr});
#endif
  return kernels;
}

// A whole digest on one kernel, with the FIPS 180-4 padding written out
// here, so each kernel is judged on its own rather than through Sha256.
Digest DigestWithKernel(CompressFn compress, const uint8_t* data,
                        size_t len) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, data, len / 64);
  const size_t rem = len % 64;
  uint8_t tail[128] = {};
  if (rem > 0) std::memcpy(tail, data + (len - rem), rem);
  tail[rem] = 0x80;
  const size_t tail_len = rem < 56 ? 64 : 128;
  const uint64_t bits = static_cast<uint64_t>(len) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  compress(state, tail, tail_len / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[i * 4 + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

Digest DigestWithKernel(CompressFn compress, std::string_view s) {
  return DigestWithKernel(compress, reinterpret_cast<const uint8_t*>(s.data()),
                          s.size());
}

Digest PortableDigest(const Bytes& data) {
  return DigestWithKernel(internal::Sha256CompressPortable, data.data(),
                          data.size());
}

class Sha256KernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (GetParam().compress == nullptr) {
      GTEST_SKIP() << GetParam().name << " is not supported by this CPU";
    }
  }
  CompressFn compress() const { return GetParam().compress; }
};

TEST_P(Sha256KernelTest, FipsVectors) {
  EXPECT_EQ(DigestToHex(DigestWithKernel(compress(), "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(DigestWithKernel(compress(), "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(DigestWithKernel(
                compress(),
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(DigestToHex(DigestWithKernel(
                compress(),
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  const std::string million_as(1000000, 'a');
  EXPECT_EQ(DigestToHex(DigestWithKernel(compress(), million_as)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, EveryLengthUpTo320MatchesPortable) {
  sim::Rng rng(320);
  for (size_t len = 0; len <= 320; ++len) {
    Bytes msg = RandomBytes(&rng, len);
    ASSERT_EQ(DigestWithKernel(compress(), msg.data(), msg.size()),
              PortableDigest(msg))
        << "length " << len;
    ASSERT_EQ(Sha256Digest(msg), PortableDigest(msg)) << "length " << len;
  }
}

TEST_P(Sha256KernelTest, HundredKilobytesFromAnyStateMatchesPortable) {
  // Raw compression over 1,562 blocks from a non-initial state: the kernel
  // must carry the state across every block of one call.
  sim::Rng rng(100000);
  Bytes msg = RandomBytes(&rng, 100000);
  uint32_t expected[8] = {};
  uint32_t actual[8] = {};
  for (int i = 0; i < 8; ++i) {
    expected[i] = actual[i] = static_cast<uint32_t>(rng.NextU64());
  }
  internal::Sha256CompressPortable(expected, msg.data(), msg.size() / 64);
  compress()(actual, msg.data(), msg.size() / 64);
  EXPECT_EQ(std::memcmp(expected, actual, sizeof(expected)), 0);
  EXPECT_EQ(DigestWithKernel(compress(), msg.data(), msg.size()),
            PortableDigest(msg));
}

TEST_P(Sha256KernelTest, UnalignedInputMatchesPortable) {
  sim::Rng rng(16);
  Bytes buffer = RandomBytes(&rng, 4096 + 64);
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t len : {size_t{64}, size_t{200}, size_t{4096}}) {
      const uint8_t* data = buffer.data() + offset;
      Bytes copy(data, data + len);
      ASSERT_EQ(DigestWithKernel(compress(), data, len),
                PortableDigest(copy))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Sha256Digest(data, len), PortableDigest(copy))
          << "offset " << offset << " length " << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest,
                         ::testing::ValuesIn(AllKernels()),
                         [](const ::testing::TestParamInfo<KernelCase>& param) {
                           return std::string(param.param.name);
                         });

TEST(Sha256KernelSelectionTest, ChosenFromTheCpu) {
  std::string expected = "portable";
#if defined(__x86_64__)
  if (internal::CpuHasShaNi()) expected = "sha-ni";
#endif
  EXPECT_EQ(Sha256KernelName(), expected);
}

TEST(Sha256KernelSelectionTest, RandomUpdateSplitsMatchPortable) {
  // Streaming through Sha256 (the CPU's kernel, fed whole blocks straight
  // from the caller and partial ones through the buffer) must agree with
  // the portable one-shot digest wherever the Update calls split the input.
  sim::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes msg = RandomBytes(&rng, rng.NextBelow(3000));
    Sha256 ctx;
    size_t pos = 0;
    while (pos < msg.size()) {
      size_t take = std::min<size_t>(msg.size() - pos, rng.NextBelow(300));
      ctx.Update(msg.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(ctx.Finish(), PortableDigest(msg)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace blockplane::crypto
