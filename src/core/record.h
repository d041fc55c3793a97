// bplint:wire-coverage — every field below must appear in Encode,
// Decode, and (where a digest exists) the digest path (BP003).
// The Local Log record model (§III-B of the paper) and the transmission
// records exchanged between participants (§IV-C).
//
// A participant's Local Log L_i holds two kinds of events written by the
// user-level interface — log-commit records and communication records —
// plus received records representing transmission records committed on the
// receiving side.
#ifndef BLOCKPLANE_CORE_RECORD_H_
#define BLOCKPLANE_CORE_RECORD_H_

#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "crypto/quorum_cert.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "net/message.h"
#include "net/node_id.h"

namespace blockplane::core {

/// Core-layer network message types (the PBFT module owns 101..110).
enum CoreMessageType : net::MessageType {
  kTransmission = 201,
  kTransmissionAck = 202,
  kAttestRequest = 203,
  kAttestResponse = 204,
  kDeliverNotice = 205,
  kRecvStatusQuery = 206,
  kRecvStatusReply = 207,
  kGeoReplicate = 208,
  kGeoAck = 209,
  kGeoProofBundle = 210,
  kReadRequest = 211,
  kReadReply = 212,
  kMirrorFetch = 213,
  kMirrorEntry = 214,
  kLogSyncRequest = 215,
  kLogSyncReply = 216,
  /// Unit node -> own participant: an API record committed with a geo
  /// position ahead of the contiguous stream and was quarantined; the
  /// participant should nudge its pending submissions to fill the gap
  /// (byzantine-leader geo-reorder defense, DESIGN.md §10).
  kGeoGapNotice = 217,
};

/// The paper's record-type annotation (§IV-B: "every value has a type
/// annotation that represents the type of the record").
enum class RecordType : uint8_t {
  kLogCommit = 1,      // a state change persisted via log-commit
  kCommunication = 2,  // an outgoing message written via send
  kReceived = 3,       // a transmission record committed at the receiver
  kMirrored = 4,       // an entry of another participant's mirrored log (§V)
};

/// A Local Log entry. The same encoding is used as the PBFT value, so the
/// verification routines dispatch on the decoded record.
struct LogRecord {
  RecordType type = RecordType::kLogCommit;
  /// Which user verification routine applies (0 = accept-all default).
  uint64_t routine_id = 0;
  Bytes payload;

  /// kCommunication: destination participant.
  net::SiteId dest_site = -1;

  // --- kReceived only -------------------------------------------------------
  /// Source participant of the received message.
  net::SiteId src_site = -1;
  /// Position of the communication record in the source's Local Log.
  uint64_t src_log_pos = 0;
  /// Position of the previous communication record from the same source to
  /// this destination (0 if none) — the in-order chain pointer.
  uint64_t prev_src_log_pos = 0;
  /// Position in the origin participant's geo-replication stream (counts
  /// API records only; 0 when fg == 0). For kMirrored records this is the
  /// mirror-log position.
  uint64_t geo_pos = 0;
  /// kMirrored committed by the locally acting participant: its own
  /// signature over the geo-source canonical bytes (DESIGN.md §14).
  std::vector<crypto::Signature> proof;
  /// The f_i+1 attestations, one quorum certificate per attesting site
  /// (DESIGN.md §14); the cert's site says what it proves. kReceived: the
  /// source unit's cert over the transmission canonical bytes, embedded so
  /// every replica can run the receive verification routine, and with
  /// fg > 0 one cert per mirror site proving the source participant's
  /// geo-replication of this record. kMirrored from a remote acting site:
  /// that site's cert over the geo-source canonical bytes.
  std::vector<crypto::QuorumCert> certs;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, LogRecord* out);

  /// Content digest used in attestations (always SHA-256: records are the
  /// unit of trust between sites).
  crypto::Digest ContentDigest() const;
};

/// True when `a` and `b` agree on every field ContentDigest covers (proof
/// and certs excluded), i.e. exactly when their content digests are equal —
/// without encoding or hashing either record. Quorum reads match replies
/// with it.
bool SameContent(const LogRecord& a, const LogRecord& b);

/// Purposes bound into attestation signatures so one attestation cannot be
/// replayed as another.
enum class AttestPurpose : uint8_t {
  kTransmission = 1,  // "this communication record is committed at pos p"
  kGeoSource = 2,     // "this record is committed at pos p, replicate it"
  kGeoAck = 3,        // "this record is committed in my mirror log"
};

/// Canonical bytes a unit node signs to attest a committed record.
Bytes AttestCanonical(AttestPurpose purpose, net::SiteId site, uint64_t pos,
                      const crypto::Digest& digest);

/// A transmission record P (§IV-C): the message content plus a pointer to
/// the previous communication record to the same destination, carried with
/// the certificate of f_i+1 signatures from the source unit.
struct TransmissionRecord {
  net::SiteId src_site = -1;
  net::SiteId dest_site = -1;
  uint64_t src_log_pos = 0;
  uint64_t prev_src_log_pos = 0;
  uint64_t routine_id = 0;
  Bytes payload;
  uint64_t geo_pos = 0;  // geo-replication stream position (fg > 0)
  /// The source unit's cert, plus one cert per mirror site with fg > 0
  /// (§V) — as LogRecord::certs of the kReceived record.
  std::vector<crypto::QuorumCert> certs;

  /// The digest the source unit's attestations cover.
  crypto::Digest ContentDigest() const;

  Bytes Encode() const;
  static Status Decode(const Bytes& buf, TransmissionRecord* out);

  /// The kReceived Local Log record this transmission becomes on commit.
  LogRecord ToReceivedRecord() const;
};

}  // namespace blockplane::core

#endif  // BLOCKPLANE_CORE_RECORD_H_
