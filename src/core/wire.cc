#include "core/wire.h"

namespace blockplane::core {

namespace {

Status GetPurpose(Decoder* dec, AttestPurpose* out) {
  uint8_t v = 0;
  BP_RETURN_NOT_OK(dec->GetU8(&v));
  if (v < 1 || v > 3) return Status::Corruption("bad attest purpose");
  *out = static_cast<AttestPurpose>(v);
  return Status::OK();
}

}  // namespace

Bytes TransmissionAckMsg::Encode() const {
  Encoder enc;
  enc.PutU64(src_log_pos);
  return enc.Take();
}

Status TransmissionAckMsg::Decode(const Bytes& buf, TransmissionAckMsg* out) {
  Decoder dec(buf);
  return dec.GetU64(&out->src_log_pos);
}

Bytes AttestRequestMsg::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(purpose));
  enc.PutU64(pos);
  enc.PutU32(static_cast<uint32_t>(dest_site));
  return enc.Take();
}

Status AttestRequestMsg::Decode(const Bytes& buf, AttestRequestMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(GetPurpose(&dec, &out->purpose));
  BP_RETURN_NOT_OK(dec.GetU64(&out->pos));
  uint32_t site = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&site));
  out->dest_site = static_cast<net::SiteId>(site);
  return Status::OK();
}

Bytes AttestResponseMsg::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(purpose));
  enc.PutU64(pos);
  crypto::EncodeSignature(&enc, sig);
  return enc.Take();
}

Status AttestResponseMsg::Decode(const Bytes& buf, AttestResponseMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(GetPurpose(&dec, &out->purpose));
  BP_RETURN_NOT_OK(dec.GetU64(&out->pos));
  return crypto::DecodeSignature(&dec, &out->sig);
}

Bytes DeliverNoticeMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(src_site));
  enc.PutU64(src_log_pos);
  enc.PutU64(prev_src_log_pos);
  enc.PutBytes(payload);
  return enc.Take();
}

Status DeliverNoticeMsg::Decode(const Bytes& buf, DeliverNoticeMsg* out) {
  Decoder dec(buf);
  uint32_t site = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&site));
  out->src_site = static_cast<net::SiteId>(site);
  BP_RETURN_NOT_OK(dec.GetU64(&out->src_log_pos));
  BP_RETURN_NOT_OK(dec.GetU64(&out->prev_src_log_pos));
  return dec.GetBytes(&out->payload);
}

Bytes RecvStatusQueryMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(src_site));
  return enc.Take();
}

Status RecvStatusQueryMsg::Decode(const Bytes& buf, RecvStatusQueryMsg* out) {
  Decoder dec(buf);
  uint32_t site = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&site));
  out->src_site = static_cast<net::SiteId>(site);
  return Status::OK();
}

Bytes RecvStatusReplyMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(src_site));
  enc.PutU64(last_pos);
  return enc.Take();
}

Status RecvStatusReplyMsg::Decode(const Bytes& buf, RecvStatusReplyMsg* out) {
  Decoder dec(buf);
  uint32_t site = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&site));
  out->src_site = static_cast<net::SiteId>(site);
  return dec.GetU64(&out->last_pos);
}

Bytes GeoReplicateMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(acting_site));
  enc.PutU64(geo_pos);
  enc.PutBytes(record);
  crypto::EncodeProof(&enc, sigs);
  // Trailing optional cert section (wire v2): absent when empty, so
  // qc-off encodings stay byte-identical to v1.
  if (!sig_certs.empty()) crypto::EncodeCertList(&enc, sig_certs);
  return enc.Take();
}

Status GeoReplicateMsg::Decode(const Bytes& buf, GeoReplicateMsg* out) {
  Decoder dec(buf);
  uint32_t site = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&site));
  out->acting_site = static_cast<net::SiteId>(site);
  BP_RETURN_NOT_OK(dec.GetU64(&out->geo_pos));
  BP_RETURN_NOT_OK(dec.GetBytes(&out->record));
  BP_RETURN_NOT_OK(crypto::DecodeProof(&dec, &out->sigs));
  out->sig_certs.clear();
  if (!dec.AtEnd()) {
    BP_RETURN_NOT_OK(crypto::DecodeCertList(&dec, &out->sig_certs));
  }
  return Status::OK();
}

Bytes GeoAckMsg::Encode() const {
  Encoder enc;
  enc.PutU64(geo_pos);
  crypto::EncodeSignature(&enc, sig);
  return enc.Take();
}

Status GeoAckMsg::Decode(const Bytes& buf, GeoAckMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->geo_pos));
  return crypto::DecodeSignature(&dec, &out->sig);
}

Bytes GeoGapNoticeMsg::Encode() const {
  Encoder enc;
  enc.PutU64(missing_geo_pos);
  enc.PutU64(quarantined_high);
  return enc.Take();
}

Status GeoGapNoticeMsg::Decode(const Bytes& buf, GeoGapNoticeMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->missing_geo_pos));
  return dec.GetU64(&out->quarantined_high);
}

Bytes ReadRequestMsg::Encode() const {
  Encoder enc;
  enc.PutU64(read_id);
  enc.PutU64(pos);
  return enc.Take();
}

Status ReadRequestMsg::Decode(const Bytes& buf, ReadRequestMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->read_id));
  return dec.GetU64(&out->pos);
}

Bytes ReadReplyMsg::Encode() const {
  Encoder enc;
  enc.PutU64(read_id);
  enc.PutU64(pos);
  enc.PutBool(found);
  enc.PutBytes(record);
  return enc.Take();
}

Status ReadReplyMsg::Decode(const Bytes& buf, ReadReplyMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->read_id));
  BP_RETURN_NOT_OK(dec.GetU64(&out->pos));
  BP_RETURN_NOT_OK(dec.GetBool(&out->found));
  return dec.GetBytes(&out->record);
}

Bytes MirrorFetchMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(origin_site));
  enc.PutU64(from_geo_pos);
  return enc.Take();
}

Status MirrorFetchMsg::Decode(const Bytes& buf, MirrorFetchMsg* out) {
  Decoder dec(buf);
  uint32_t site = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&site));
  out->origin_site = static_cast<net::SiteId>(site);
  return dec.GetU64(&out->from_geo_pos);
}

Bytes MirrorEntryMsg::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(origin_site));
  enc.PutBytes(record);
  return enc.Take();
}

Status MirrorEntryMsg::Decode(const Bytes& buf, MirrorEntryMsg* out) {
  Decoder dec(buf);
  uint32_t site = 0;
  BP_RETURN_NOT_OK(dec.GetU32(&site));
  out->origin_site = static_cast<net::SiteId>(site);
  return dec.GetBytes(&out->record);
}

Bytes LogSyncRequestMsg::Encode() const {
  Encoder enc;
  enc.PutU64(from_pos);
  enc.PutU64(to_pos);
  return enc.Take();
}

Status LogSyncRequestMsg::Decode(const Bytes& buf, LogSyncRequestMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->from_pos));
  return dec.GetU64(&out->to_pos);
}

Bytes LogSyncReplyMsg::Encode() const {
  Encoder enc;
  enc.PutU64(pos);
  enc.PutBytes(value);
  return enc.Take();
}

Status LogSyncReplyMsg::Decode(const Bytes& buf, LogSyncReplyMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->pos));
  return dec.GetBytes(&out->value);
}

Bytes GeoProofBundleMsg::Encode() const {
  Encoder enc;
  enc.PutU64(pos);
  crypto::EncodeProof(&enc, proof);
  // Trailing optional cert section (wire v2), as in GeoReplicateMsg.
  if (!proof_certs.empty()) crypto::EncodeCertList(&enc, proof_certs);
  return enc.Take();
}

Status GeoProofBundleMsg::Decode(const Bytes& buf, GeoProofBundleMsg* out) {
  Decoder dec(buf);
  BP_RETURN_NOT_OK(dec.GetU64(&out->pos));
  BP_RETURN_NOT_OK(crypto::DecodeProof(&dec, &out->proof));
  out->proof_certs.clear();
  if (!dec.AtEnd()) {
    BP_RETURN_NOT_OK(crypto::DecodeCertList(&dec, &out->proof_certs));
  }
  return Status::OK();
}

}  // namespace blockplane::core
