// bplint:wire-coverage — every field below must appear in Encode,
// Decode, and (where a digest exists) the digest path (BP003).
// Small Blockplane-space control messages (attestations, acks, status
// queries, geo replication) and their encodings.
#ifndef BLOCKPLANE_CORE_WIRE_H_
#define BLOCKPLANE_CORE_WIRE_H_

#include <vector>

#include "core/record.h"

namespace blockplane::core {

struct TransmissionAckMsg {
  uint64_t src_log_pos = 0;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, TransmissionAckMsg* out);
};

struct AttestRequestMsg {
  AttestPurpose purpose = AttestPurpose::kTransmission;
  uint64_t pos = 0;            // unit log position
  net::SiteId dest_site = -1;  // kTransmission: which daemon stream

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, AttestRequestMsg* out);
};

struct AttestResponseMsg {
  AttestPurpose purpose = AttestPurpose::kTransmission;
  uint64_t pos = 0;
  crypto::Signature sig;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, AttestResponseMsg* out);
};

struct DeliverNoticeMsg {
  net::SiteId src_site = -1;
  uint64_t src_log_pos = 0;
  uint64_t prev_src_log_pos = 0;  // lets the participant deliver in order
  Bytes payload;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, DeliverNoticeMsg* out);
};

struct RecvStatusQueryMsg {
  /// Which source participant's reception progress is being asked about;
  /// on a mirror node this is the mirrored origin and the reply reports the
  /// mirror-log high position.
  net::SiteId src_site = -1;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, RecvStatusQueryMsg* out);
};

struct RecvStatusReplyMsg {
  net::SiteId src_site = -1;
  uint64_t last_pos = 0;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, RecvStatusReplyMsg* out);
};

struct GeoReplicateMsg {
  net::SiteId acting_site = -1;  // the (current) primary issuing the record
  uint64_t geo_pos = 0;
  Bytes record;  // encoded origin LogRecord
  /// Reconciliation replay into the acting site's own mirror group: the
  /// participant's one signature the stored record carries (LogRecord::proof).
  std::vector<crypto::Signature> sigs;
  /// The acting site's quorum certificate over the record (DESIGN.md §14).
  std::vector<crypto::QuorumCert> certs;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, GeoReplicateMsg* out);
};

struct GeoAckMsg {
  uint64_t geo_pos = 0;
  crypto::Signature sig;  // over AttestCanonical(kGeoAck, mirror_site, ...)

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, GeoAckMsg* out);
};

/// Unit node -> own participant: the contiguous geo stream is stuck waiting
/// for `missing_geo_pos` while a later position sits in quarantine
/// (DESIGN.md §10, quarantine-and-gap-fill).
struct GeoGapNoticeMsg {
  uint64_t missing_geo_pos = 0;
  /// Highest geo position currently quarantined at the sender (diagnostic).
  uint64_t quarantined_high = 0;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, GeoGapNoticeMsg* out);
};

struct ReadRequestMsg {
  uint64_t read_id = 0;
  uint64_t pos = 0;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, ReadRequestMsg* out);
};

struct ReadReplyMsg {
  uint64_t read_id = 0;
  uint64_t pos = 0;
  bool found = false;
  Bytes record;  // encoded LogRecord when found

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, ReadReplyMsg* out);
};

/// Mirror reconciliation (§V failover): a new acting primary fetches the
/// mirrored entries it is missing from an up-to-date peer mirror.
struct MirrorFetchMsg {
  net::SiteId origin_site = -1;
  uint64_t from_geo_pos = 0;  // exclusive

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, MirrorFetchMsg* out);
};

struct MirrorEntryMsg {
  net::SiteId origin_site = -1;
  Bytes record;  // encoded outer kMirrored LogRecord (with its proof)

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, MirrorEntryMsg* out);
};

/// Log synchronization past the checkpoint window (§VI-B): a recovering
/// node fetches committed values and verifies them against a certified
/// checkpoint digest chain.
struct LogSyncRequestMsg {
  uint64_t from_pos = 0;  // inclusive
  uint64_t to_pos = 0;    // inclusive

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, LogSyncRequestMsg* out);
};

struct LogSyncReplyMsg {
  uint64_t pos = 0;
  Bytes value;  // the committed PBFT value (encoded LogRecord)

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, LogSyncReplyMsg* out);
};

struct GeoProofBundleMsg {
  uint64_t pos = 0;  // unit log position of the communication record
  /// One quorum certificate per mirror site that holds the record.
  std::vector<crypto::QuorumCert> certs;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, GeoProofBundleMsg* out);
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_WIRE_H_
