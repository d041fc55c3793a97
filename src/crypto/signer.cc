#include "crypto/signer.h"

#include <algorithm>
#include <set>

#include "common/codec.h"
#include "common/metrics.h"

namespace blockplane::crypto {

size_t KeyStore::VerifiedSigHash::Hash(net::NodeId signer, const Digest& mac) {
  // FNV-1a over the discriminating prefix. The MAC is 32 bytes of
  // (pseudo)random data, so hashing its first 16 bytes plus the signer id
  // spreads perfectly; equality still compares the full triple, so hash
  // collisions are correctness-neutral.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(signer.site)) << 32 |
      static_cast<uint32_t>(signer.index));
  for (int i = 0; i < 16; i += 8) {
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      word |= static_cast<uint64_t>(mac[i + j]) << (8 * j);
    }
    mix(word);
  }
  return static_cast<size_t>(h);
}

bool KeyStore::CacheLookup(const VerifiedSigRef& probe) const {
  return verified_cur_.count(probe) > 0 || verified_prev_.count(probe) > 0;
}

void KeyStore::CacheInsert(VerifiedSig entry) const {
  if (verify_cache_capacity_ == 0) return;
  if (verified_cur_.size() >= std::max<size_t>(1, verify_cache_capacity_ / 2)) {
    hotpath_stats().verify_cache_evictions +=
        static_cast<int64_t>(verified_prev_.size());
    verified_prev_ = std::move(verified_cur_);
    verified_cur_.clear();
  }
  verified_cur_.insert(std::move(entry));
}

std::unique_ptr<Signer> KeyStore::RegisterNode(net::NodeId node) {
  auto it = keys_.find(node);
  if (it == keys_.end()) {
    // Deterministic per-node key material derived from a store-local seed.
    Encoder enc;
    enc.PutU64(next_key_seed_++);
    enc.PutU32(static_cast<uint32_t>(node.site));
    enc.PutU32(static_cast<uint32_t>(node.index));
    Digest key = Sha256Digest(enc.buffer());
    Bytes raw(key.begin(), key.end());
    PrecomputedHmacKey hmac(raw);
    keys_.emplace(node, KeyEntry{std::move(raw), std::move(hmac)});
  }
  return std::unique_ptr<Signer>(new Signer(this, node));
}

Digest KeyStore::SignAs(net::NodeId node, const uint8_t* msg,
                        size_t len) const {
  auto it = keys_.find(node);
  BP_CHECK_MSG(it != keys_.end(), "signing for unregistered node");
  return it->second.hmac.Sign(msg, len);
}

bool KeyStore::Verify(const Bytes& msg, const Signature& sig) const {
  auto it = keys_.find(sig.signer);
  if (it == keys_.end()) return false;
  if (verify_cache_capacity_ > 0) {
    if (CacheLookup(VerifiedSigRef{sig.signer, sig.mac, msg})) {
      hotpath_stats().sig_cache_hits++;
      return true;
    }
    bool ok = it->second.hmac.Verify(msg, sig.mac);
    hotpath_stats().sig_cache_misses++;
    if (ok) CacheInsert(VerifiedSig{sig.signer, sig.mac, msg});
    return ok;
  }
  return it->second.hmac.Verify(msg, sig.mac);
}

bool KeyStore::VerifyDetached(const uint8_t* msg, size_t len,
                              const Signature& sig) const {
  auto it = keys_.find(sig.signer);
  if (it == keys_.end()) return false;
  return it->second.hmac.SignDetached(msg, len) == sig.mac;
}

bool KeyStore::VerifyProof(const Bytes& msg,
                           const std::vector<Signature>& proof,
                           net::SiteId site, int threshold) const {
  std::set<int32_t> seen_indices;
  int valid = 0;
  for (const Signature& sig : proof) {
    if (sig.signer.site != site) continue;
    // A repeated signer index within the target site rejects the whole
    // proof, valid MAC or not: honest collection paths dedup by signer, so
    // a duplicate is a forgery attempt at double-counting one signature.
    // (Other sites' indices may legitimately collide — geo proofs carry
    // every mirror site's acks in one vector — hence the site filter first.)
    if (!seen_indices.insert(sig.signer.index).second) return false;
    qc_stats().proof_sig_verifies++;
    if (Verify(msg, sig)) ++valid;
  }
  return valid >= threshold;
}

void EncodeSignature(Encoder* enc, const Signature& sig) {
  enc->PutU32(static_cast<uint32_t>(sig.signer.site));
  enc->PutU32(static_cast<uint32_t>(sig.signer.index));
  enc->PutRaw(sig.mac.data(), sig.mac.size());
}

Status DecodeSignature(Decoder* dec, Signature* out) {
  uint32_t site = 0;
  uint32_t index = 0;
  BP_RETURN_NOT_OK(dec->GetU32(&site));
  BP_RETURN_NOT_OK(dec->GetU32(&index));
  out->signer.site = static_cast<int32_t>(site);
  out->signer.index = static_cast<int32_t>(index);
  return dec->GetRaw(out->mac.data(), out->mac.size());
}

void EncodeProof(Encoder* enc, const std::vector<Signature>& proof) {
  enc->PutVarint(proof.size());
  for (const Signature& sig : proof) EncodeSignature(enc, sig);
}

Status DecodeProof(Decoder* dec, std::vector<Signature>* out) {
  uint64_t n = 0;
  BP_RETURN_NOT_OK(dec->GetVarint(&n));
  if (n > 4096) return Status::Corruption("oversized proof");
  // Every encoded signature is multiple bytes, so a count beyond the
  // remaining payload is corrupt — and must be rejected before reserve()
  // turns an attacker-chosen varint into an allocation (BP011).
  if (n > dec->remaining()) return Status::Corruption("truncated proof");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Signature sig;
    BP_RETURN_NOT_OK(DecodeSignature(dec, &sig));
    out->push_back(sig);
  }
  return Status::OK();
}

}  // namespace blockplane::crypto
