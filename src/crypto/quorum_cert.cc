#include "crypto/quorum_cert.h"

#include <algorithm>

#include "common/metrics.h"

namespace blockplane::crypto {

namespace {

int Popcount(uint64_t bits) {
  int n = 0;
  while (bits != 0) {
    bits &= bits - 1;
    ++n;
  }
  return n;
}

}  // namespace

int QuorumCert::signer_count() const { return Popcount(signer_bits); }

QuorumCert BuildQuorumCert(net::SiteId site,
                           const std::vector<Signature>& sigs) {
  QuorumCert cert;
  cert.site = site;
  // The bitmap base is the group's lowest signer index: unit nodes give
  // base 0, a mirror group gives its range start (quorum_cert.h).
  bool have_base = false;
  for (const Signature& sig : sigs) {
    if (sig.signer.site != site || sig.signer.index < 0) continue;
    if (!have_base || sig.signer.index < cert.index_base) {
      cert.index_base = sig.signer.index;
    }
    have_base = true;
  }
  // Collect (index, mac) for this site's signers, first occurrence wins;
  // ascending index order is the canonical aggregation order.
  std::vector<std::pair<int32_t, Digest>> members;
  members.reserve(sigs.size());
  for (const Signature& sig : sigs) {
    if (sig.signer.site != site) continue;
    int32_t offset = sig.signer.index - cert.index_base;
    if (offset < 0 || offset >= 64) continue;
    uint64_t bit = uint64_t{1} << offset;
    if ((cert.signer_bits & bit) != 0) continue;  // duplicate signer
    cert.signer_bits |= bit;
    members.emplace_back(sig.signer.index, sig.mac);
  }
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Bytes macs;
  macs.reserve(members.size() * sizeof(Digest));
  for (const auto& [index, mac] : members) {
    macs.insert(macs.end(), mac.begin(), mac.end());
  }
  cert.agg = Sha256Digest(macs);
  return cert;
}

void QuorumCert::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(site));
  enc->PutU32(static_cast<uint32_t>(index_base));
  enc->PutU64(signer_bits);
  enc->PutRaw(agg.data(), agg.size());
}

Status QuorumCert::DecodeFrom(Decoder* dec) {
  uint32_t raw_site = 0;
  BP_RETURN_NOT_OK(dec->GetU32(&raw_site));
  site = static_cast<net::SiteId>(raw_site);
  uint32_t raw_base = 0;
  BP_RETURN_NOT_OK(dec->GetU32(&raw_base));
  index_base = static_cast<int32_t>(raw_base);
  BP_RETURN_NOT_OK(dec->GetU64(&signer_bits));
  return dec->GetRaw(agg.data(), agg.size());
}

void EncodeCertList(Encoder* enc, const std::vector<QuorumCert>& certs) {
  enc->PutVarint(certs.size());
  for (const QuorumCert& cert : certs) cert.EncodeTo(enc);
}

Status DecodeCertList(Decoder* dec, std::vector<QuorumCert>* out) {
  uint64_t n = 0;
  BP_RETURN_NOT_OK(dec->GetVarint(&n));
  if (n > 64) return Status::Corruption("oversized cert list");
  // Reject counts beyond the remaining payload before reserve() turns an
  // attacker-chosen varint into an allocation (BP011); every encoded
  // cert is multiple bytes, so this can never reject a valid list.
  if (n > dec->remaining()) return Status::Corruption("truncated cert list");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    QuorumCert cert;
    BP_RETURN_NOT_OK(cert.DecodeFrom(dec));
    out->push_back(cert);
  }
  return Status::OK();
}

// --- KeyStore cert verification ---------------------------------------------
//
// Defined here (not signer.cc) so the cert subsystem stays in one place;
// they are KeyStore members because verification needs the registered key
// material and the shared two-generation cert cache.

size_t KeyStore::VerifiedCertHash::operator()(const VerifiedCert& v) const {
  // FNV-1a over site, bitmap, and the aggregate's first 16 bytes — the
  // aggregate is SHA-256 output, so this spreads perfectly; equality still
  // compares the full entry including the message bytes.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(v.site)) << 32 |
      static_cast<uint32_t>(v.index_base));
  mix(v.signer_bits);
  for (int i = 0; i < 16; i += 8) {
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      word |= static_cast<uint64_t>(v.agg[i + j]) << (8 * j);
    }
    mix(word);
  }
  return static_cast<size_t>(h);
}

bool KeyStore::CertCacheLookup(const VerifiedCert& entry) const {
  return cert_cur_.count(entry) > 0 || cert_prev_.count(entry) > 0;
}

void KeyStore::CertCacheInsert(VerifiedCert entry) const {
  if (verify_cache_capacity_ == 0) return;
  if (cert_cur_.size() >= std::max<size_t>(1, verify_cache_capacity_ / 2)) {
    hotpath_stats().verify_cache_evictions +=
        static_cast<int64_t>(cert_prev_.size());
    cert_prev_ = std::move(cert_cur_);
    cert_cur_.clear();
  }
  cert_cur_.insert(std::move(entry));
}

bool KeyStore::VerifyCert(const Bytes& msg, const QuorumCert& cert,
                          int threshold) const {
  if (cert.signer_count() < threshold) return false;
  VerifiedCert probe{cert.site, cert.index_base, cert.signer_bits, cert.agg,
                     msg};
  if (verify_cache_capacity_ > 0 && CertCacheLookup(probe)) {
    // One probe answers for every constituent MAC: the cert's f_i+1
    // individual verifications are elided wholesale.
    qc_stats().cache_hits++;
    qc_stats().verifies_elided += cert.signer_count();
    return true;
  }
  qc_stats().certs_verified++;
  qc_stats().proof_sig_verifies += cert.signer_count();
  if (cert.site < 0 || cert.index_base < 0) return false;
  // Recompute each listed signer's MAC (ascending index — the canonical
  // aggregation order) and compare the aggregate. One unregistered index
  // or one tampered MAC byte changes the aggregate and the cert fails.
  Bytes macs;
  macs.reserve(static_cast<size_t>(cert.signer_count()) * sizeof(Digest));
  for (int32_t offset = 0; offset < 64; ++offset) {
    if ((cert.signer_bits >> offset & 1) == 0) continue;
    auto it = keys_.find(net::NodeId{cert.site, cert.index_base + offset});
    if (it == keys_.end()) return false;
    Digest mac = it->second.hmac.SignDetached(msg);
    macs.insert(macs.end(), mac.begin(), mac.end());
  }
  if (Sha256Digest(macs) != cert.agg) return false;
  CertCacheInsert(std::move(probe));
  return true;
}

}  // namespace blockplane::crypto
