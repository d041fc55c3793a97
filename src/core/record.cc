#include "core/record.h"

namespace blockplane::core {

namespace {

void PutSite(Encoder* enc, net::SiteId site) {
  enc->PutU32(static_cast<uint32_t>(site));
}

Status GetSite(Decoder* dec, net::SiteId* site) {
  uint32_t v = 0;
  BP_RETURN_NOT_OK(dec->GetU32(&v));
  *site = static_cast<net::SiteId>(v);
  return Status::OK();
}

}  // namespace

Bytes LogRecord::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutVarint(routine_id);
  enc.PutBytes(payload);
  PutSite(&enc, dest_site);
  PutSite(&enc, src_site);
  enc.PutU64(src_log_pos);
  enc.PutU64(prev_src_log_pos);
  enc.PutU64(geo_pos);
  crypto::EncodeProof(&enc, proof);
  crypto::EncodeCertList(&enc, certs);
  return enc.Take();
}

Status LogRecord::Decode(const Bytes& buf, LogRecord* out) {
  Decoder dec(buf);
  uint8_t type = 0;
  BP_RETURN_NOT_OK(dec.GetU8(&type));
  if (type < 1 || type > 4) return Status::Corruption("bad record type");
  out->type = static_cast<RecordType>(type);
  BP_RETURN_NOT_OK(dec.GetVarint(&out->routine_id));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->payload));
  BP_RETURN_NOT_OK(GetSite(&dec, &out->dest_site));
  BP_RETURN_NOT_OK(GetSite(&dec, &out->src_site));
  BP_RETURN_NOT_OK(dec.GetU64(&out->src_log_pos));
  BP_RETURN_NOT_OK(dec.GetU64(&out->prev_src_log_pos));
  BP_RETURN_NOT_OK(dec.GetU64(&out->geo_pos));
  BP_RETURN_NOT_OK(crypto::DecodeProof(&dec, &out->proof));
  return crypto::DecodeCertList(&dec, &out->certs);
}

crypto::Digest LogRecord::ContentDigest() const {
  // Digest over the identity-defining fields (not the proofs, which vary
  // by which f_i+1 nodes happened to sign).
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutVarint(routine_id);
  enc.PutBytes(payload);
  PutSite(&enc, dest_site);
  PutSite(&enc, src_site);
  enc.PutU64(src_log_pos);
  enc.PutU64(prev_src_log_pos);
  enc.PutU64(geo_pos);
  return crypto::Sha256Digest(enc.buffer());
}

bool SameContent(const LogRecord& a, const LogRecord& b) {
  // The fields ContentDigest encodes, payload last as the costliest;
  // record_roundtrip_test keeps the two in lockstep.
  return a.type == b.type && a.routine_id == b.routine_id &&
         a.dest_site == b.dest_site && a.src_site == b.src_site &&
         a.src_log_pos == b.src_log_pos &&
         a.prev_src_log_pos == b.prev_src_log_pos && a.geo_pos == b.geo_pos &&
         a.payload == b.payload;
}

Bytes AttestCanonical(AttestPurpose purpose, net::SiteId site, uint64_t pos,
                      const crypto::Digest& digest) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(purpose));
  PutSite(&enc, site);
  enc.PutU64(pos);
  enc.PutRaw(digest.data(), digest.size());
  return enc.Take();
}

crypto::Digest TransmissionRecord::ContentDigest() const {
  return ToReceivedRecord().ContentDigest();
}

Bytes TransmissionRecord::Encode() const {
  Encoder enc;
  PutSite(&enc, src_site);
  PutSite(&enc, dest_site);
  enc.PutU64(src_log_pos);
  enc.PutU64(prev_src_log_pos);
  enc.PutVarint(routine_id);
  enc.PutBytes(payload);
  enc.PutU64(geo_pos);
  crypto::EncodeCertList(&enc, certs);
  return enc.Take();
}

Status TransmissionRecord::Decode(const Bytes& buf, TransmissionRecord* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(GetSite(&dec, &out->src_site));
  BP_RETURN_NOT_OK(GetSite(&dec, &out->dest_site));
  BP_RETURN_NOT_OK(dec.GetU64(&out->src_log_pos));
  BP_RETURN_NOT_OK(dec.GetU64(&out->prev_src_log_pos));
  BP_RETURN_NOT_OK(dec.GetVarint(&out->routine_id));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->payload));
  BP_RETURN_NOT_OK(dec.GetU64(&out->geo_pos));
  return crypto::DecodeCertList(&dec, &out->certs);
}

LogRecord TransmissionRecord::ToReceivedRecord() const {
  LogRecord record;
  record.type = RecordType::kReceived;
  record.routine_id = routine_id;
  record.payload = payload;
  record.dest_site = dest_site;
  record.src_site = src_site;
  record.src_log_pos = src_log_pos;
  record.prev_src_log_pos = prev_src_log_pos;
  record.geo_pos = geo_pos;
  record.certs = certs;
  return record;
}

}  // namespace blockplane::core
