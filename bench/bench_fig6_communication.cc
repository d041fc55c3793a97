// Figure 6: latency of communication between participants — a message
// through the send interface, received at the destination, with the
// receipt acknowledged back at the source — for every datacenter pair.
//
// Paper reference: C-O 23.4 ms; {C-V, O-V, V-I} 64-80 ms; {C-I, O-I}
// >135 ms. Overhead vs the raw RTT is 1-7% (23% for the close C-O pair).
//
// `--qc` switches to the quorum-certificate ablation (DESIGN.md §14): the
// same send workload with real crypto, QC-off vs QC-on, reporting WAN
// bytes per commit (broken down by message type), proof bytes on the
// wire, and MAC verifications. Writes BENCH_qc.json and exits non-zero
// unless QC-on performs at most half the MAC verifies and ships fewer
// proof bytes (the scripts/check.sh QC gate).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/deployment.h"

namespace blockplane {
namespace {

double RunOne(net::SiteId src, net::SiteId dest) {
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = 1;
  options.sign_messages = false;
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                              net_options);

  Bytes batch = bench::MakeBatch(1);
  Histogram latency_ms;
  core::BlockplaneNode* daemon_host = deployment.node(src, 0);
  constexpr int kWarmup = 3;
  constexpr int kMessages = 30;
  for (int i = 0; i < kWarmup + kMessages; ++i) {
    sim::SimTime start = simulator.Now();
    deployment.participant(src)->Send(dest, Bytes(batch), 0, nullptr);
    uint64_t target = static_cast<uint64_t>(i) + 1;
    // "Acknowledging the receipt of the message back at the source": the
    // daemon's ack watermark reaches this message once f_i+1 destination
    // nodes confirmed the committed reception.
    // Sends are the only records in this workload, so the i-th message is
    // the communication record at Local Log position i+1.
    simulator.RunUntilCondition(
        [&] { return daemon_host->daemon_acked(dest) >= target; },
        simulator.Now() + sim::Seconds(30));
    if (i >= kWarmup) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
  }
  return latency_ms.Mean();
}

// --- quorum-certificate ablation (DESIGN.md §14) ---------------------------

/// Maps the core-layer message-type tags back to names for the per-type
/// WAN byte breakdown (the network layer is protocol-agnostic and counts
/// under the numeric tag).
std::string CoreTypeName(uint32_t type) {
  switch (type) {
    case core::kTransmission: return "transmission";
    case core::kTransmissionAck: return "transmission_ack";
    case core::kAttestRequest: return "attest_request";
    case core::kAttestResponse: return "attest_response";
    case core::kDeliverNotice: return "deliver_notice";
    case core::kRecvStatusQuery: return "recv_status_query";
    case core::kRecvStatusReply: return "recv_status_reply";
    case core::kGeoReplicate: return "geo_replicate";
    case core::kGeoAck: return "geo_ack";
    case core::kGeoProofBundle: return "geo_proof_bundle";
    case core::kReadRequest: return "read_request";
    case core::kReadReply: return "read_reply";
    case core::kMirrorFetch: return "mirror_fetch";
    case core::kMirrorEntry: return "mirror_entry";
    case core::kLogSyncRequest: return "log_sync_request";
    case core::kLogSyncReply: return "log_sync_reply";
    case core::kGeoGapNotice: return "geo_gap_notice";
    default: return "type_" + std::to_string(type);
  }
}

struct QcRun {
  std::string scenario;  // "communication" (fg=0) or "geo" (fg=1)
  bool qc = false;
  uint64_t commits = 0;
  uint64_t wan_bytes = 0;
  double wan_bytes_per_commit = 0;
  uint64_t wan_proof_bytes = 0;   // proof material shipped by comm daemons
  uint64_t proof_sig_verifies = 0;  // individual MAC checks performed
  uint64_t certs_built = 0;
  uint64_t certs_verified = 0;
  uint64_t cache_hits = 0;
  uint64_t verifies_elided = 0;
  std::map<std::string, int64_t> wan_bytes_by_type;
};

QcRun RunQcScenario(bool qc_on, int fg, int messages) {
  qc_stats().Reset();
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.fi = 1;
  options.fg = fg;
  options.sign_messages = true;
  options.qc.enabled = qc_on;
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  net_options.per_type_wan_counters = true;
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                              net_options);

  const net::SiteId src = net::kCalifornia;
  const net::SiteId dest = net::kVirginia;
  core::BlockplaneNode* daemon_host = deployment.node(src, 0);
  Bytes batch = bench::MakeBatch(1);
  for (int i = 0; i < messages; ++i) {
    deployment.participant(src)->Send(dest, Bytes(batch), 0, nullptr);
  }
  uint64_t target = static_cast<uint64_t>(messages);
  simulator.RunUntilCondition(
      [&] { return daemon_host->daemon_acked(dest) >= target; },
      simulator.Now() + sim::Seconds(120));
  BP_CHECK_MSG(daemon_host->daemon_acked(dest) >= target,
               "qc ablation workload stalled");
  // Let trailing acks / reserve polls / retransmissions settle so both
  // modes account the same quiesced deployment.
  simulator.RunFor(sim::Seconds(2));

  QcRun r;
  r.scenario = fg > 0 ? "geo" : "communication";
  r.qc = qc_on;
  r.commits = target;
  const CounterSet& counters = deployment.network()->counters();
  r.wan_bytes = static_cast<uint64_t>(counters.Get("wan_bytes"));
  r.wan_bytes_per_commit =
      static_cast<double>(r.wan_bytes) / static_cast<double>(r.commits);
  const QcStats& qc = qc_stats();
  r.wan_proof_bytes = static_cast<uint64_t>(qc.wan_proof_bytes);
  r.proof_sig_verifies = static_cast<uint64_t>(qc.proof_sig_verifies);
  r.certs_built = static_cast<uint64_t>(qc.certs_built);
  r.certs_verified = static_cast<uint64_t>(qc.certs_verified);
  r.cache_hits = static_cast<uint64_t>(qc.cache_hits);
  r.verifies_elided = static_cast<uint64_t>(qc.verifies_elided);
  constexpr char kPrefix[] = "wan_bytes.type_";
  for (const auto& [name, value] : counters.all()) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    uint32_t type = static_cast<uint32_t>(
        std::stoul(name.substr(sizeof(kPrefix) - 1)));
    r.wan_bytes_by_type[CoreTypeName(type)] += value;
  }
  return r;
}

void PutQcRun(std::ofstream& out, const QcRun& r, bool last) {
  out << "    {\"scenario\": \"" << r.scenario << "\", \"qc\": "
      << (r.qc ? "true" : "false") << ", \"commits\": " << r.commits
      << ", \"wan_bytes\": " << r.wan_bytes
      << ", \"wan_bytes_per_commit\": " << r.wan_bytes_per_commit
      << ", \"wan_proof_bytes\": " << r.wan_proof_bytes
      << ", \"proof_sig_verifies\": " << r.proof_sig_verifies
      << ", \"certs_built\": " << r.certs_built
      << ", \"certs_verified\": " << r.certs_verified
      << ", \"cache_hits\": " << r.cache_hits
      << ", \"verifies_elided\": " << r.verifies_elided
      << ", \"wan_bytes_by_type\": {";
  bool first = true;
  for (const auto& [name, bytes] : r.wan_bytes_by_type) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": " << bytes;
  }
  out << "}}" << (last ? "" : ",") << "\n";
}

int RunQcAblation(const std::string& out_path) {
  bench::PrintHeader(
      "Quorum-certificate ablation: WAN proof bytes + MAC verifies per "
      "commit (California -> Virginia, real crypto)",
      "one compact cert per decision, verify-once at every hop; "
      "DESIGN.md S14");

  std::vector<QcRun> runs;
  for (int fg : {0, 1}) {
    const int messages = fg > 0 ? 20 : 30;
    for (bool qc_on : {false, true}) {
      runs.push_back(RunQcScenario(qc_on, fg, messages));
    }
  }

  std::printf("%14s %4s %8s %14s %12s %13s %9s %11s\n", "scenario", "qc",
              "commits", "WAN B/commit", "proof B", "MAC verifies",
              "cache hit", "elided");
  for (const QcRun& r : runs) {
    std::printf("%14s %4s %8llu %14.1f %12llu %13llu %9llu %11llu\n",
                r.scenario.c_str(), r.qc ? "on" : "off",
                static_cast<unsigned long long>(r.commits),
                r.wan_bytes_per_commit,
                static_cast<unsigned long long>(r.wan_proof_bytes),
                static_cast<unsigned long long>(r.proof_sig_verifies),
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.verifies_elided));
  }

  std::ofstream out(out_path);
  out << "{\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    PutQcRun(out, runs[i], i + 1 == runs.size());
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  // The ablation gates (scripts/check.sh): per scenario, QC-on must run at
  // most half the individual MAC verifications and ship strictly fewer
  // proof bytes (one 48-byte cert vs f_i+1 40-byte signatures, times
  // every retransmission and widened fan-out).
  bool ok = true;
  for (size_t i = 0; i + 1 < runs.size(); i += 2) {
    const QcRun& off = runs[i];
    const QcRun& on = runs[i + 1];
    double ratio = on.proof_sig_verifies > 0
                       ? static_cast<double>(off.proof_sig_verifies) /
                             static_cast<double>(on.proof_sig_verifies)
                       : 0.0;
    if (on.proof_sig_verifies * 2 > off.proof_sig_verifies) {
      std::fprintf(stderr,
                   "FAIL[%s]: QC-on MAC verifies (%llu) not <= half of "
                   "QC-off (%llu)\n",
                   off.scenario.c_str(),
                   static_cast<unsigned long long>(on.proof_sig_verifies),
                   static_cast<unsigned long long>(off.proof_sig_verifies));
      ok = false;
    }
    if (on.wan_proof_bytes >= off.wan_proof_bytes) {
      std::fprintf(stderr,
                   "FAIL[%s]: QC-on proof bytes (%llu) not below QC-off "
                   "(%llu)\n",
                   off.scenario.c_str(),
                   static_cast<unsigned long long>(on.wan_proof_bytes),
                   static_cast<unsigned long long>(off.wan_proof_bytes));
      ok = false;
    }
    if (ok) {
      std::printf("QC gate [%s]: %.2fx fewer MAC verifies, proof bytes "
                  "%llu -> %llu\n",
                  off.scenario.c_str(), ratio,
                  static_cast<unsigned long long>(off.wan_proof_bytes),
                  static_cast<unsigned long long>(on.wan_proof_bytes));
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace blockplane

int main(int argc, char** argv) {
  using namespace blockplane;
  bool qc = false;
  std::string out_path = "BENCH_qc.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--qc") == 0) qc = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  if (qc) return RunQcAblation(out_path);

  bench::PrintHeader(
      "Figure 6: communication latency between participants (send -> "
      "receive -> ack)",
      "CO 23.4ms; CV/OV/VI 64-80ms; CI/OI >135ms; overhead vs RTT 1-7% "
      "(23% for CO)");
  net::Topology topo = net::Topology::Aws4();
  std::printf("%10s %14s %12s %14s\n", "pair", "latency (ms)", "RTT (ms)",
              "overhead");
  const std::pair<int, int> pairs[] = {
      {net::kCalifornia, net::kOregon},  {net::kCalifornia, net::kVirginia},
      {net::kCalifornia, net::kIreland}, {net::kOregon, net::kVirginia},
      {net::kOregon, net::kIreland},     {net::kVirginia, net::kIreland}};
  for (auto [a, b] : pairs) {
    double ms = RunOne(a, b);
    double rtt = sim::ToMillis(topo.Rtt(a, b));
    std::printf("%9.1s%1.1s %14.1f %12.1f %13.1f%%\n",
                topo.site_name(a).c_str(), topo.site_name(b).c_str(), ms,
                rtt, (ms - rtt) / rtt * 100.0);
  }
  return 0;
}
