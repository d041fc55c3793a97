// End-to-end benchmark driver: runs one workload against a Blockplane
// deployment on the simulated clock and measures it on both clocks.
//
//   e2ebench_driver --workload geo_batched|local_bulk|wan_send|wan_lossy
//                   --seed N --seconds S --trace 0|1 [--short]
//                   [--inject read|order|duplicate|receive]
//
// Load is open-loop in virtual time: every submitting participant gets a
// seeded Poisson schedule, and each op is submitted at its due time whether
// or not earlier ops finished. The driver touches the system only through
// its public API (Deployment, Participant::LogCommit/Send/Read/
// SetReceiveHandler, Batcher::Add, Simulator::ScheduleAt/RunUntil, and
// Network::Register for the traced run's timing shim).
//
// A run is a set of cells: independent deployments, each with its own seed
// derived from --seed. --trace 0 repeats the set until S wall seconds have
// been measured. Virtual latencies pool the cells of the first pass (every
// later pass is checked to repeat them exactly); real-clock metrics are
// medians over every cell of every pass, and setup_s and cpu_us_per_op are
// scaled by a reference kernel timed around each sample
// (ReferenceCpuSeconds). --trace 1 runs each cell once
// untraced and once traced (process-wide Tracer on, a timing net::Host
// interposed in front of every unit, mirror and participant node) and
// reports the per-layer ledger.
// Both modes check every output and print one JSON object as the last line
// of stdout; a failed check exits 1. --inject corrupts one observation, so
// tests can confirm that the checks catch it.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/batcher.h"
#include "core/deployment.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulator.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace bp = blockplane;
using bp::Bytes;
using bp::TraceId;
using bp::sim::SimTime;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU time of the process, all threads.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// A cell stops early once the process's peak RSS crosses this, so a loss
/// storm cannot take the machine's memory; its unfinished requests fail.
constexpr double kRssCapMb = 1024;

/// Peak resident memory of this process (ru_maxrss is in KiB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Set-up-only rounds before each cell of an untraced run; setup_s is the
/// median over all of them. Spreading the rounds over the whole run, rather
/// than timing them in one burst, keeps a few seconds of a noisy host from
/// setting the median.
constexpr int kSetupRoundsPerCell = 3;

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// CPU seconds of a fixed integer workload shaped like SHA-256's message
/// schedule and compression rounds, over 256 KB. It is driver code, so no
/// change to the library moves it. On a shared host a vCPU runs up to 1.7x
/// slower for seconds at a time, and ALU-bound code such as set-up slows
/// alike: set-up time divided by this kernel's time, taken right around
/// it, stays steady where either alone does not (README.md, "Steadiness").
double ReferenceCpuSeconds() {
  static const std::vector<uint32_t> input(64 * 1024, 0x6a09e667u);
  const double start = CpuSeconds();
  uint32_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t w[64];
  for (size_t block = 0; block + 16 <= input.size(); block += 16) {
    for (int i = 0; i < 16; ++i) w[i] = input[block + i];
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], k = h[7];
    for (uint32_t i = 0; i < 64; ++i) {
      uint32_t t1 = k + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) +
                    ((e & f) ^ (~e & g)) + 0x428a2f98u * (i + 1) + w[i];
      uint32_t t2 = (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) +
                    ((a & b) ^ (a & c) ^ (b & c));
      k = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a, h[1] += b, h[2] += c, h[3] += d;
    h[4] += e, h[5] += f, h[6] += g, h[7] += k;
  }
  static volatile uint32_t sink;
  sink = h[0];
  return CpuSeconds() - start;
}

/// setup_s is set-up CPU time scaled to a host on which the reference
/// kernel takes this long (about its time on the host in README.md).
constexpr double kReferenceS = 1e-3;

/// Nearest-rank percentile, as bp::Histogram computes it.
double Percentile(const std::vector<double>& values, double p) {
  bp::Histogram h;
  for (double v : values) h.Add(v);
  return h.Percentile(p);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

double Ms(SimTime t) { return bp::sim::ToMillis(t); }

// --- workloads ---------------------------------------------------------------

enum class Kind { kGeoBatched, kLocalBulk, kWanSend, kWanLossy };

struct WorkloadSpec {
  Kind kind = Kind::kGeoBatched;
  /// Offered load per submitting participant, requests per virtual second.
  double rate_per_site = 0;
  /// Requests per cell, summed over submitting participants.
  int ops = 0;
  size_t op_bytes = 0;
  /// Share of requests that are reads, split evenly between kReadOne and
  /// kReadQuorum.
  double read_frac = 0;
  /// Uniform drop probability on every link during the timed phase.
  double drop_prob = 0;
  /// Virtual deadline after the last due time; ops unfinished then fail.
  SimTime drain = 0;
  /// Offset of the permanent leader crash into the timed phase, or -1.
  SimTime crash_at = -1;
  /// Max-rate ladder (lossless workloads only): offered rates per site,
  /// the p99 limit every rung must meet, and each rung's submission window
  /// in virtual seconds.
  std::vector<double> ladder;
  double latency_limit_ms = 0;
  double ladder_vs = 0;
  /// Independent seeded cells per run; virtual metrics pool over them.
  int cells = 1;
};

/// Cell k of a run: cell 0 uses the run's seed itself.
uint64_t CellSeed(uint64_t seed, int k) {
  return seed + static_cast<uint64_t>(k) * 1'000'003;
}

bool MakeSpec(const std::string& name, bool short_mode, WorkloadSpec* s) {
  if (name == "geo_batched") {
    s->kind = Kind::kGeoBatched;
    s->rate_per_site = 2500;
    s->ops = short_mode ? 2000 : 5000;
    s->cells = short_mode ? 1 : 4;
    s->op_bytes = 200;
    s->read_frac = 0.2;
    s->drain = bp::sim::Seconds(10);
    s->ladder = {1500, 3000, 4500, 6000};
    s->latency_limit_ms = 250;
    s->ladder_vs = short_mode ? 0.2 : 1.5;
  } else if (name == "local_bulk") {
    s->kind = Kind::kLocalBulk;
    s->rate_per_site = 300;
    s->ops = short_mode ? 100 : 300;
    s->cells = short_mode ? 1 : 20;
    s->op_bytes = 100'000;
    s->drain = bp::sim::Seconds(10);
    s->ladder = {200, 400, 600, 800, 1000};
    s->latency_limit_ms = 10;
    s->ladder_vs = short_mode ? 0.2 : 1.0;
  } else if (name == "wan_send") {
    s->kind = Kind::kWanSend;
    s->rate_per_site = 200;
    s->ops = short_mode ? 400 : 1000;
    s->cells = short_mode ? 1 : 4;
    s->op_bytes = 1000;
    s->drain = bp::sim::Seconds(10);
    s->ladder = {100, 200, 400, 800};
    s->latency_limit_ms = 300;
    s->ladder_vs = short_mode ? 0.2 : 1.0;
  } else if (name == "wan_lossy") {
    s->kind = Kind::kWanLossy;
    s->rate_per_site = 50;
    s->ops = short_mode ? 80 : 400;
    s->op_bytes = 1000;
    s->drop_prob = 0.01;
    s->drain = bp::sim::Seconds(60);
    s->crash_at = short_mode ? bp::sim::Milliseconds(200)
                             : bp::sim::Milliseconds(500);
    s->cells = short_mode ? 2 : 8;
  } else {
    return false;
  }
  return true;
}

bp::net::Topology TopologyFor(const WorkloadSpec& spec) {
  return spec.kind == Kind::kLocalBulk
             ? bp::net::Topology::SingleSite("Virginia")
             : bp::net::Topology::Aws4();
}

bp::core::BlockplaneOptions OptionsFor(const WorkloadSpec& spec) {
  bp::core::BlockplaneOptions options;  // library defaults unless named
  options.fi = 1;
  options.fg = spec.kind == Kind::kGeoBatched ? 1 : 0;
  if (spec.kind == Kind::kLocalBulk) {
    // As bench_fig4_local_commit: bounded memory under 100 KB records.
    options.checkpoint_interval = 8;
    options.prune_applied_log = 8;
  }
  return options;
}

std::vector<int> SubmittingSites(const WorkloadSpec& spec) {
  if (spec.kind == Kind::kLocalBulk) return {0};
  return {0, 1, 2, 3};
}

// --- generated inputs --------------------------------------------------------

enum class OpType : uint8_t { kWrite, kRead, kCommit, kSend };

struct Op {
  OpType type = OpType::kWrite;
  int site = 0;
  int dest = -1;  // kSend
  bool read_quorum = false;
  SimTime due = 0;
  /// Completion: commit callback (write/commit), read callback, or the
  /// destination's receive handler (send). -1 while unfinished.
  SimTime done = -1;
  int callbacks = 0;
  /// kSend: the local commit callback.
  SimTime local_done = -1;
  int local_callbacks = 0;
  /// Committed log position (write/commit/send) or position read.
  uint64_t pos = 0;
  uint32_t index_in_batch = 0;
  TraceId trace = bp::kNoTrace;
};

/// A seeded byte pool. An op's payload is its 8-byte id followed by a window
/// of the pool chosen by the id, so payloads are distinct and can be rebuilt
/// for byte-equality checks without being stored.
class PayloadFactory {
 public:
  explicit PayloadFactory(uint64_t seed) : pool_(1 << 20) {
    std::mt19937_64 rng(seed ^ 0x5eedf00dULL);
    for (size_t i = 0; i < pool_.size(); i += 8) {
      uint64_t word = rng();
      std::memcpy(&pool_[i], &word, 8);
    }
  }
  Bytes Make(uint64_t id, size_t size) const {
    Bytes out(std::max<size_t>(size, 8));
    std::memcpy(out.data(), &id, 8);
    size_t offset = (id * 7919) % (pool_.size() - out.size());
    std::memcpy(out.data() + 8, pool_.data() + offset, out.size() - 8);
    return out;
  }
  static bool IdOf(const Bytes& payload, uint64_t* id) {
    if (payload.size() < 8) return false;
    std::memcpy(id, payload.data(), 8);
    return true;
  }

 private:
  Bytes pool_;
};

/// The open-loop schedule, due times relative to the timed phase's start:
/// per site an independent Poisson stream of ops/sites requests at `rate`
/// per virtual second, merged by due time. Each site's request mix (reads,
/// read strategies, destinations) has exact shares, dealt in a seeded
/// random order, so the population every percentile is taken over does not
/// shift between seeds.
std::vector<Op> MakeSchedule(const WorkloadSpec& spec, uint64_t seed,
                             double rate, int ops) {
  std::vector<int> sites = SubmittingSites(spec);
  std::vector<Op> schedule;
  const int per_site = ops / static_cast<int>(sites.size());
  for (int site : sites) {
    std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(site));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const int reads = static_cast<int>(std::lround(per_site * spec.read_frac));
    std::vector<Op> deck(per_site);
    for (int i = 0; i < per_site; ++i) {
      Op& op = deck[i];
      op.site = site;
      switch (spec.kind) {
        case Kind::kGeoBatched:
          op.type = i < reads ? OpType::kRead : OpType::kWrite;
          op.read_quorum = i % 2 == 1;
          break;
        case Kind::kLocalBulk:
          op.type = OpType::kCommit;
          break;
        case Kind::kWanSend:
        case Kind::kWanLossy: {
          op.type = OpType::kSend;
          int other = i % 3;
          op.dest = other >= site ? other + 1 : other;
          break;
        }
      }
    }
    std::shuffle(deck.begin(), deck.end(), rng);
    double t = 0;
    for (Op& op : deck) {
      t += -std::log(1.0 - unit(rng)) / rate;
      op.due = static_cast<SimTime>(t * 1e9);
      schedule.push_back(op);
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Op& a, const Op& b) { return a.due < b.due; });
  return schedule;
}

/// Warm-up requests: a few writes per site (every site pair once for
/// sends), 1 ms apart, before the timed phase.
std::vector<Op> MakeWarmup(const WorkloadSpec& spec) {
  std::vector<Op> warm;
  SimTime t = 0;
  for (int site : SubmittingSites(spec)) {
    for (int k = 0; k < 4; ++k) {
      Op op;
      op.site = site;
      op.due = (t += bp::sim::Milliseconds(1));
      switch (spec.kind) {
        case Kind::kGeoBatched:
          op.type = OpType::kWrite;
          break;
        case Kind::kLocalBulk:
          op.type = OpType::kCommit;
          break;
        case Kind::kWanSend:
        case Kind::kWanLossy:
          if (k == 3) continue;
          op.type = OpType::kSend;
          op.dest = k >= site ? k + 1 : k;
          break;
      }
      warm.push_back(op);
    }
  }
  return warm;
}

// --- the per-layer timing shim -----------------------------------------------

/// Message-tag families, one per layer.
enum Family { kPbft, kGeo, kAttest, kReadFam, kDaemon, kDeliver, kOther,
              kNumFamilies };
const char* const kFamilyNames[kNumFamilies] = {
    "pbft", "geo", "attest", "read", "comm_daemon", "deliver", "other"};
/// Sent by the driver to every shimmed node after a traced run; a shim that
/// is still registered swallows it.
constexpr bp::net::MessageType kProbeType = 0x0e2eb0b0;

Family FamilyOf(bp::net::MessageType type) {
  if (type >= 101 && type <= 112) return kPbft;
  switch (type) {
    case 208: case 209: case 210: case 213: case 214: case 217:
      return kGeo;
    case 203: case 204:
      return kAttest;
    case 211: case 212:
      return kReadFam;
    case 201: case 202: case 206: case 207:
      return kDaemon;
    case 205: case 215: case 216:
      return kDeliver;
    default:
      return kOther;
  }
}

struct Ledger {
  double wall_s[kNumFamilies] = {};
  int64_t msgs[kNumFamilies] = {};
  /// Messages handed to any shim since installation, probes included.
  int64_t handled_total = 0;
  int64_t probes = 0;
  void ResetPhase() {
    std::fill(std::begin(wall_s), std::end(wall_s), 0.0);
    std::fill(std::begin(msgs), std::end(msgs), 0);
  }
};

/// Registered with the Network in place of a node: forwards HandleMessage
/// to the node and attributes its wall time to the message's family.
class TimingShim : public bp::net::Host {
 public:
  TimingShim(bp::net::Host* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}
  void HandleMessage(const bp::net::Message& msg) override {
    ++ledger_->handled_total;
    if (msg.type == kProbeType) {
      ++ledger_->probes;
      return;
    }
    Family family = FamilyOf(msg.type);
    Clock::time_point start = Clock::now();
    inner_->HandleMessage(msg);
    ledger_->wall_s[family] += SecondsSince(start);
    ++ledger_->msgs[family];
  }

 private:
  bp::net::Host* inner_;
  Ledger* ledger_;
};

// --- one repetition ----------------------------------------------------------

struct RepConfig {
  bool traced = false;
  bool setup_only = false;
  /// Corrupt the first read's record before it is checked.
  bool corrupt_read = false;
  double rate_per_site = 0;
  int ops = 0;
};

struct RepResult {
  double setup_s = 0;        // CPU time of set-up, user + sys
  double wall_s = 0;         // timed phase
  double cpu_s = 0;          // timed phase, user + sys
  double run_wall_s = 0;     // wall inside Simulator::RunUntil
  double submit_wall_s = 0;  // wall inside Add/LogCommit/Send/Read
  bool memory_capped = false;
  /// Warm-up ops first, then the timed ops in schedule order.
  std::vector<Op> ops;
  size_t first_timed = 0;
  int64_t remaining = 0;  // callbacks still owed to timed ops
  SimTime crash_time = -1;
  int64_t unfinished_at_last_due = 0;  // timed ops
  std::map<std::string, int64_t> net;  // timed-phase network counters
  int64_t sim_events = 0;
  uint64_t batches = 0;
  uint64_t batched_ops = 0;
  bp::HotPathStats hotpath;
  bp::PipelineStats pipeline;
  bp::RobustnessStats robustness;
  bp::QcStats qc;
  /// Observations checked after the run, then released by CheckRep so that
  /// peak_rss_mb does not carry them from cell to cell. Reads are checked
  /// as they return and never kept.
  std::map<int, std::vector<size_t>> commit_log;  // site -> op idx, in order
  std::map<std::pair<int, uint64_t>, std::vector<size_t>> batch_at;
  std::vector<std::pair<int, size_t>> receive_log;  // (dest, op idx)
  int64_t commit_reorders = 0;
  std::vector<std::string> errors;
  // Traced run only.
  Ledger ledger;
  std::map<std::string, std::vector<double>> gaps;  // phase -> per op, ms
  int64_t events_dropped = 0;
  int64_t unshimmed_handled = 0;
  int64_t incomplete_traces = 0;  // ops whose terminal mark is missing
};

constexpr const char* kGapNames[] = {
    "batch_wait", "queue_wait", "local_committed", "attested", "transmitted",
    "remote_committed", "mirrored", "delivered", "done", "untraced"};

bool Timed(const RepResult& r, size_t idx) { return idx >= r.first_timed; }

/// An op is finished once every callback it owes has fired.
bool Finished(const Op& op) {
  return op.done >= 0 && (op.type != OpType::kSend || op.local_done >= 0);
}

/// Splits each traced op's virtual latency into phase gaps (DESIGN.md §8's
/// marks), checking that the trace agrees with what the driver observed.
void AnalyzeTrace(RepResult* r) {
  const bp::Tracer& tr = bp::tracer();
  r->events_dropped = tr.events_dropped();
  std::map<TraceId, SimTime> participant_queue_wait;
  std::map<TraceId, int> request_site;
  for (const bp::TraceEvent& ev : tr.events()) {
    if (ev.kind != bp::TraceEvent::Kind::kSpan) continue;
    if (std::strcmp(ev.name, "queue_wait") == 0 &&
        ev.index == bp::core::ParticipantNodeId(ev.site).index) {
      participant_queue_wait[ev.trace] += ev.dur;
    } else if (std::strcmp(ev.name, "request") == 0) {
      request_site.emplace(ev.trace, ev.site);
    }
  }
  // Batched writes: the k-th committed batch of a site is the k-th trace
  // whose PBFT request span ran at that site.
  std::map<int, std::vector<TraceId>> site_traces;
  for (const auto& [trace, site] : request_site) {
    site_traces[site].push_back(trace);
  }
  for (auto& [site, order] : r->commit_log) {
    std::vector<TraceId>& traces = site_traces[site];
    size_t next = 0;
    uint64_t last_pos = 0;
    bool have_batch = false;
    for (size_t idx : order) {
      Op& op = r->ops[idx];
      if (!Timed(*r, idx) || op.type != OpType::kWrite) continue;
      if (!have_batch || op.pos != last_pos) {
        if (have_batch) ++next;
        have_batch = true;
        last_pos = op.pos;
      }
      if (next >= traces.size()) {
        r->errors.push_back("trace: committed batch without a request span");
        return;
      }
      op.trace = traces[next];
    }
  }

  for (const char* name : kGapNames) r->gaps[name].clear();
  for (size_t idx = r->first_timed; idx < r->ops.size(); ++idx) {
    const Op& op = r->ops[idx];
    if (op.type == OpType::kRead || !Finished(op)) continue;
    const std::vector<bp::TraceMark>& marks = tr.MarksFor(op.trace);
    if (op.trace == bp::kNoTrace || marks.empty() ||
        std::strcmp(marks[0].phase, "submit") != 0 || marks[0].ts < op.due) {
      r->errors.push_back("trace: op " + std::to_string(idx) +
                          " has no submit mark at or after its due time");
      return;
    }
    std::map<std::string, SimTime> gap;
    gap["batch_wait"] = marks[0].ts - op.due;
    SimTime prev = marks[0].ts;
    const char* terminal = op.type == OpType::kSend ? "delivered" : "done";
    bool reached = false;
    for (size_t i = 1; i < marks.size() && !reached; ++i) {
      const bool send_done =
          op.type == OpType::kSend && std::strcmp(marks[i].phase, "done") == 0;
      if (send_done) continue;  // a send's "done" is its local commit
      if (marks[i].ts > op.done) break;
      gap[marks[i].phase] += marks[i].ts - prev;
      prev = marks[i].ts;
      reached = std::strcmp(marks[i].phase, terminal) == 0;
    }
    if (reached && prev != op.done) {
      r->errors.push_back("trace: op " + std::to_string(idx) + "'s '" +
                          terminal + "' mark differs from its completion");
      return;
    }
    if (!reached) {
      // The program binds a send's trace to its source log position only
      // when the source's commit callback fires; under loss that can come
      // after the remote delivery, which then goes unmarked.
      gap["untraced"] = op.done - prev;
      ++r->incomplete_traces;
    }
    auto qw = participant_queue_wait.find(op.trace);
    if (qw != participant_queue_wait.end()) {
      gap["queue_wait"] = qw->second;
      gap["local_committed"] -= qw->second;
    }
    SimTime sum = 0;
    for (const char* name : kGapNames) {
      sum += gap[name];
      r->gaps[name].push_back(Ms(gap[name]));
    }
    if (sum != op.done - op.due || gap.size() != std::size(kGapNames)) {
      r->errors.push_back("trace: op " + std::to_string(idx) +
                          "'s phase gaps do not sum to its latency");
      return;
    }
  }
}

/// Whether a read of op `idx`'s position returned exactly the batch that
/// committed there, byte for byte.
bool ReadMatches(const RepResult& r, const WorkloadSpec& spec,
                 const PayloadFactory& payloads, size_t idx,
                 const bp::core::LogRecord& record) {
  const Op& op = r.ops[idx];
  auto it = r.batch_at.find({op.site, op.pos});
  std::vector<Bytes> got;
  bool ok = it != r.batch_at.end() &&
            record.type == bp::core::RecordType::kLogCommit &&
            bp::core::Batcher::DecodeBatch(record.payload, &got).ok() &&
            got.size() == it->second.size();
  for (size_t k = 0; ok && k < it->second.size(); ++k) {
    size_t member = it->second[k];
    ok = r.ops[member].index_in_batch == k &&
         got[k] == payloads.Make(member, spec.op_bytes);
  }
  return ok;
}

/// Runs one repetition of `spec`: deployment construction and warm-up
/// (set-up), then the open-loop timed phase up to its virtual deadline.
void RunRep(const WorkloadSpec& spec, uint64_t seed, const RepConfig& cfg,
            const PayloadFactory& payloads, RepResult* r) {
  namespace core = bp::core;
  namespace net = bp::net;
  // Declared before the deployment so they outlive every pointer to them.
  std::vector<std::unique_ptr<TimingShim>> shims;
  std::vector<net::NodeId> shimmed;
  std::vector<std::unique_ptr<core::Batcher>> batchers;
  std::map<int, std::vector<uint64_t>> committed_positions;
  std::mt19937_64 read_rng(seed ^ 0x7eadULL);
  std::vector<Op> timed = cfg.setup_only
                              ? std::vector<Op>{}
                              : MakeSchedule(spec, seed, cfg.rate_per_site,
                                             cfg.ops);

  const double setup_start = CpuSeconds();
  bp::tracer().Disable();
  bp::tracer().Clear();
  bp::sim::Simulator simulator(seed);
  core::Deployment deployment(&simulator, TopologyFor(spec), OptionsFor(spec));
  net::Network* network = deployment.network();
  const int num_sites = deployment.num_sites();
  const int unit_size = 3 * deployment.options().fi + 1;

  if (cfg.traced) {
    auto shim = [&](net::NodeId id, net::Host* host) {
      shims.push_back(std::make_unique<TimingShim>(host, &r->ledger));
      network->Register(id, shims.back().get());
      shimmed.push_back(id);
    };
    for (int site = 0; site < num_sites; ++site) {
      for (int i = 0; i < unit_size; ++i) {
        shim(deployment.node(site, i)->self(), deployment.node(site, i));
      }
      for (int host : deployment.mirror_sites_of(site)) {
        for (int i = 0; i < unit_size; ++i) {
          core::BlockplaneNode* node = deployment.mirror_node(host, site, i);
          shim(node->self(), node);
        }
      }
      shim(core::ParticipantNodeId(site), deployment.participant(site));
    }
  }

  std::vector<Op>& ops = r->ops;
  ops = MakeWarmup(spec);
  r->first_timed = ops.size();
  ops.reserve(ops.size() + timed.size());  // callbacks index, never move

  // `remaining` counts the callbacks still owed to timed ops: one per op,
  // two per send (local commit and remote receive).
  auto complete = [r, &simulator](size_t idx) {
    Op& op = r->ops[idx];
    if (++op.callbacks > 1) return false;
    op.done = simulator.Now();
    if (Timed(*r, idx)) --r->remaining;
    return true;
  };
  auto committed = [r, &simulator, &committed_positions](size_t idx,
                                                         uint64_t pos) {
    Op& op = r->ops[idx];
    if (op.type == OpType::kSend) {
      if (++op.local_callbacks > 1) return;
      op.local_done = simulator.Now();
      if (Timed(*r, idx)) --r->remaining;
    }
    op.pos = pos;
    r->commit_log[op.site].push_back(idx);
    std::vector<uint64_t>& positions = committed_positions[op.site];
    if (positions.empty() || positions.back() != pos) positions.push_back(pos);
  };

  if (spec.kind == Kind::kGeoBatched) {
    for (int site = 0; site < num_sites; ++site) {
      batchers.push_back(std::make_unique<core::Batcher>(
          deployment.participant(site), &simulator));
    }
  }
  if (spec.kind == Kind::kWanSend || spec.kind == Kind::kWanLossy) {
    for (int site = 0; site < num_sites; ++site) {
      deployment.participant(site)->SetReceiveHandler(
          [r, site, &payloads, &spec, complete](net::SiteId src,
                                                const Bytes& payload) {
            uint64_t id = 0;
            if (!PayloadFactory::IdOf(payload, &id) || id >= r->ops.size() ||
                r->ops[id].site != src || r->ops[id].dest != site ||
                payload != payloads.Make(id, spec.op_bytes)) {
              r->errors.push_back("receive: site " + std::to_string(site) +
                                  " got a message from site " +
                                  std::to_string(src) +
                                  " that no op sent it");
              return;
            }
            complete(id);
            r->receive_log.push_back({site, id});
          });
    }
  }

  // Reads are checked as they return, so their records are never kept.
  bool corrupt_next_read = cfg.corrupt_read;
  auto check_read = [&, r](size_t idx, core::LogRecord record) {
    if (corrupt_next_read) {
      record.payload.push_back(0);
      corrupt_next_read = false;
    }
    if (!ReadMatches(*r, spec, payloads, idx, record)) {
      r->errors.push_back("read: position " + std::to_string(r->ops[idx].pos) +
                          " at site " + std::to_string(r->ops[idx].site) +
                          " returned bytes that differ from its commit");
    }
  };

  // Issues op `idx` through the public API at its due time.
  int64_t api_traces = 0;
  auto issue = [&, r](size_t idx) {
    Clock::time_point start = Clock::now();
    Op& op = r->ops[idx];
    core::Participant* p = deployment.participant(op.site);
    if (cfg.traced && Timed(*r, idx) && op.type != OpType::kRead &&
        op.type != OpType::kWrite) {
      op.trace = static_cast<TraceId>(++api_traces);  // ids are call order
    }
    switch (op.type) {
      case OpType::kWrite:
        batchers[op.site]->Add(
            payloads.Make(idx, spec.op_bytes),
            [r, idx, complete, committed](uint64_t pos, uint32_t index) {
              r->ops[idx].index_in_batch = index;
              if (complete(idx)) {
                committed(idx, pos);
                r->batch_at[{r->ops[idx].site, pos}].push_back(idx);
              }
            });
        break;
      case OpType::kCommit:
        p->LogCommit(payloads.Make(idx, spec.op_bytes), 0,
                     [idx, complete, committed](uint64_t pos) {
                       if (complete(idx)) committed(idx, pos);
                     });
        break;
      case OpType::kSend:
        p->Send(op.dest, payloads.Make(idx, spec.op_bytes), 0,
                [idx, committed](uint64_t pos) { committed(idx, pos); });
        break;
      case OpType::kRead: {
        const std::vector<uint64_t>& positions = committed_positions[op.site];
        op.pos = positions[read_rng() % positions.size()];
        p->Read(op.pos,
                op.read_quorum ? core::ReadStrategy::kReadQuorum
                               : core::ReadStrategy::kReadOne,
                [r, idx, complete, &check_read](bp::Status status,
                                                core::LogRecord record) {
                  if (!complete(idx)) return;
                  if (!status.ok()) {
                    r->errors.push_back("read: position " +
                                        std::to_string(r->ops[idx].pos) +
                                        " failed: " + status.ToString());
                    return;
                  }
                  check_read(idx, std::move(record));
                });
        break;
      }
    }
    r->submit_wall_s += SecondsSince(start);
  };

  // Warm-up, part of set-up: lets lazy state and caches fill.
  SimTime warm_start = simulator.Now();
  size_t warm_left = r->first_timed;
  for (size_t idx = 0; idx < r->first_timed; ++idx) {
    simulator.ScheduleAt(warm_start + ops[idx].due,
                         [idx, &issue] { issue(idx); });
  }
  simulator.RunUntilCondition(
      [&] {
        warm_left = 0;
        for (size_t idx = 0; idx < r->first_timed; ++idx) {
          if (!Finished(ops[idx])) ++warm_left;
        }
        return warm_left == 0;
      },
      warm_start + bp::sim::Seconds(30));
  if (warm_left != 0) {
    r->errors.push_back("warm-up did not finish within 30 virtual seconds");
    return;
  }
  r->setup_s = CpuSeconds() - setup_start;
  if (cfg.setup_only) return;

  // --- timed phase ---
  const SimTime t0 = simulator.Now() + bp::sim::Milliseconds(1);
  network->set_drop_prob(spec.drop_prob);
  bp::hotpath_stats().Reset();
  bp::pipeline_stats().Reset();
  bp::robustness_stats().Reset();
  bp::qc_stats().Reset();
  const std::map<std::string, int64_t> net_base = network->counters().all();
  const uint64_t events_base = simulator.processed_events();
  uint64_t batches_base = 0, batched_base = 0;
  for (const auto& b : batchers) {
    batches_base += b->batches_committed();
    batched_base += b->ops_committed();
  }
  r->ledger.ResetPhase();
  if (cfg.traced) {
    bp::tracer().Clear();
    bp::tracer().Enable();
  }
  SimTime last_due = t0;
  for (Op op : timed) {
    op.due += t0;
    last_due = std::max(last_due, op.due);
    ops.push_back(op);
    size_t idx = ops.size() - 1;
    simulator.ScheduleAt(op.due, [idx, &issue] { issue(idx); });
  }
  r->remaining = 0;
  for (const Op& op : timed) r->remaining += op.type == OpType::kSend ? 2 : 1;
  simulator.ScheduleAt(last_due, [r] {
    for (size_t idx = r->first_timed; idx < r->ops.size(); ++idx) {
      r->unfinished_at_last_due += !Finished(r->ops[idx]);
    }
  });
  if (spec.crash_at >= 0) {
    // Virginia's node 0: its unit's PBFT leader and active comm daemon.
    simulator.ScheduleAt(t0 + spec.crash_at, [r, network, &simulator] {
      network->Crash(net::NodeId{bp::net::kVirginia, 0});
      r->crash_time = simulator.Now();
    });
  }
  const SimTime deadline = last_due + spec.drain;
  const SimTime slice = bp::sim::Milliseconds(50);
  const double cpu_start = CpuSeconds();
  const Clock::time_point wall_start = Clock::now();
  while (r->remaining > 0 && simulator.Now() < deadline) {
    Clock::time_point run_start = Clock::now();
    bool drained =
        simulator.RunUntil(std::min(simulator.Now() + slice, deadline));
    r->run_wall_s += SecondsSince(run_start);
    if (PeakRssMb() > kRssCapMb) {
      r->memory_capped = true;
      break;
    }
    if (drained) break;
  }
  r->wall_s = SecondsSince(wall_start);
  r->cpu_s = CpuSeconds() - cpu_start;
  bp::tracer().Disable();

  for (const auto& [name, value] : network->counters().all()) {
    auto base = net_base.find(name);
    r->net[name] = value - (base == net_base.end() ? 0 : base->second);
  }
  r->sim_events =
      static_cast<int64_t>(simulator.processed_events() - events_base);
  for (const auto& b : batchers) {
    r->batches += b->batches_committed();
    r->batched_ops += b->ops_committed();
  }
  r->batches -= batches_base;
  r->batched_ops -= batched_base;
  r->hotpath = bp::hotpath_stats();
  r->pipeline = bp::pipeline_stats();
  r->robustness = bp::robustness_stats();
  r->qc = bp::qc_stats();
  if (!cfg.traced) return;

  AnalyzeTrace(r);
  // Every shim must still be registered: a probe to each live node must
  // reach its shim.
  network->set_drop_prob(0);
  int64_t probes_sent = 0;
  for (const net::NodeId& id : shimmed) {
    if (network->IsCrashed(id)) continue;
    net::Message probe;
    probe.src = id;
    probe.dst = id;
    probe.type = kProbeType;
    network->Send(std::move(probe));
    ++probes_sent;
  }
  simulator.RunFor(bp::sim::Seconds(2));
  if (r->ledger.probes != probes_sent) {
    r->errors.push_back("shim: " +
                        std::to_string(probes_sent - r->ledger.probes) +
                        " node(s) were re-registered away from the shim");
  }
  // Crash everything and let in-flight messages land, so that every message
  // the network accepted has been either handled or dropped.
  for (int site = 0; site < num_sites; ++site) network->CrashSite(site);
  simulator.RunFor(bp::sim::Seconds(10));
  const bp::CounterSet& c = network->counters();
  int64_t delivered = c.Get("lan_messages") + c.Get("wan_messages") -
                      c.Get("dropped_messages");
  r->unshimmed_handled = delivered - r->ledger.handled_total;
  if (r->unshimmed_handled < 0) {
    r->errors.push_back("shim: handled " +
                        std::to_string(r->ledger.handled_total) +
                        " messages but the network delivered only " +
                        std::to_string(delivered));
  }
}

// --- correctness checks ------------------------------------------------------

enum class Inject { kNone, kRead, kOrder, kDuplicate, kReceive };

/// Commit callbacks that fired after the callback of an op submitted later
/// by the same participant.
int64_t CommitReorders(const RepResult& r) {
  int64_t n = 0;
  for (const auto& [site, log] : r.commit_log) {
    size_t latest = 0;
    for (size_t idx : log) {
      if (idx < latest) ++n;
      latest = std::max(latest, idx);
    }
  }
  return n;
}

/// Checks one repetition's observations and appends violations to
/// r->errors, then releases the observations: only the ops and counters are
/// needed from here on.
void CheckRep(const WorkloadSpec& spec, Inject inject, RepResult* r) {
  std::vector<Op>& ops = r->ops;
  if (inject == Inject::kOrder) {
    std::vector<size_t>& log = r->commit_log.begin()->second;
    if (log.size() >= 2) std::swap(log[log.size() - 1], log[log.size() - 2]);
  }
  if (inject == Inject::kDuplicate) ++ops[r->first_timed].callbacks;
  if (inject == Inject::kReceive) {
    // Swap the first two arrivals on one channel.
    std::map<std::pair<int, int>, size_t> first;
    for (size_t i = 0; i < r->receive_log.size(); ++i) {
      auto [dest, idx] = r->receive_log[i];
      auto key = std::make_pair(ops[idx].site, dest);
      auto it = first.find(key);
      if (it == first.end()) {
        first[key] = i;
      } else {
        std::swap(r->receive_log[it->second], r->receive_log[i]);
        break;
      }
    }
  }

  for (size_t idx = 0; idx < ops.size(); ++idx) {
    if (ops[idx].callbacks > 1 || ops[idx].local_callbacks > 1) {
      r->errors.push_back("op " + std::to_string(idx) +
                          " completed more than once");
    }
  }
  // Commit callbacks: once each (above), each op at its own log position,
  // and in per-participant submission order where the API promises it:
  // with fg > 0 the participant window completes ops in submission order
  // (DESIGN.md §9). With fg = 0 the unit leader orders concurrent
  // submissions, so loss or a leader change may reorder them; that is
  // counted (CommitReorders), not failed.
  for (const auto& [site, log] : r->commit_log) {
    std::set<uint64_t> positions;
    for (size_t i = 0; i < log.size(); ++i) {
      if (!positions.insert(ops[log[i]].pos).second &&
          ops[log[i]].type != OpType::kWrite) {
        r->errors.push_back("commit: site " + std::to_string(site) +
                            " committed two ops at position " +
                            std::to_string(ops[log[i]].pos));
        break;
      }
      if (spec.kind == Kind::kGeoBatched && i > 0 && log[i] <= log[i - 1]) {
        r->errors.push_back("commit order: site " + std::to_string(site) +
                            " completed op " + std::to_string(log[i]) +
                            " after op " + std::to_string(log[i - 1]));
        break;
      }
    }
    std::set<size_t> seen(log.begin(), log.end());
    for (size_t idx = 0; idx < ops.size(); ++idx) {
      const Op& op = ops[idx];
      bool done = op.type == OpType::kSend ? op.local_done >= 0 : op.done >= 0;
      if (op.site == site && op.type != OpType::kRead && done &&
          seen.count(idx) == 0) {
        r->errors.push_back("commit log misses op " + std::to_string(idx));
        break;
      }
    }
  }
  // Reads were checked as they returned (ReadMatches).
  // Receives: byte-equal (checked on arrival), each message once (above),
  // and per channel in source-log order, the order receive() promises.
  std::map<std::pair<int, int>, size_t> last;
  for (const auto& [dest, idx] : r->receive_log) {
    if (ops[idx].local_done < 0) continue;  // source position not yet known
    auto key = std::make_pair(ops[idx].site, dest);
    auto it = last.find(key);
    if (it != last.end() && ops[idx].pos <= ops[it->second].pos) {
      r->errors.push_back("receive order: site " + std::to_string(dest) +
                          " got position " + std::to_string(ops[idx].pos) +
                          " from site " + std::to_string(key.first) +
                          " after position " +
                          std::to_string(ops[it->second].pos));
      break;
    }
    last[key] = idx;
  }
  r->commit_reorders = CommitReorders(*r);
  r->commit_log = {};
  r->batch_at = {};
  r->receive_log = decltype(r->receive_log)();
}

// --- metrics -----------------------------------------------------------------

struct Json {
  std::string body;
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Raw(const std::string& key, const std::string& value) {
    body += (body.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
  }
  std::string Object() const { return "{" + body + "}"; }
};

std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

/// Virtual latencies (ms) of completed timed ops of the given kinds.
std::vector<double> Latencies(const RepResult& r, bool reads) {
  std::vector<double> out;
  for (size_t idx = r.first_timed; idx < r.ops.size(); ++idx) {
    const Op& op = r.ops[idx];
    if ((op.type == OpType::kRead) == reads && Finished(op)) {
      out.push_back(Ms(op.done - op.due));
    }
  }
  return out;
}

int64_t Completed(const RepResult& r) {
  int64_t n = 0;
  for (size_t idx = r.first_timed; idx < r.ops.size(); ++idx) {
    n += Finished(r.ops[idx]);
  }
  return n;
}

int64_t Attempted(const RepResult& r) {
  return static_cast<int64_t>(r.ops.size() - r.first_timed);
}

/// Virtual time from the leader crash to the first completion of a
/// Virginia-submitted op issued after it (the deadline if none finished).
double RecoveryMs(const RepResult& r, const WorkloadSpec& spec) {
  if (r.crash_time < 0) return 0;
  SimTime first = -1;
  for (size_t idx = r.first_timed; idx < r.ops.size(); ++idx) {
    const Op& op = r.ops[idx];
    if (op.site == bp::net::kVirginia && op.due >= r.crash_time &&
        op.done >= 0 && (first < 0 || op.done < first)) {
      first = op.done;
    }
  }
  if (first < 0) {
    SimTime last_due = r.ops.back().due;
    return Ms(last_due + spec.drain - r.crash_time);
  }
  return Ms(first - r.crash_time);
}

using Cells = std::vector<std::unique_ptr<RepResult>>;

/// Sums `field(cell)` over the cells of one run.
template <typename Fn>
double Sum(const Cells& cells, Fn field) {
  double total = 0;
  for (const auto& c : cells) total += static_cast<double>(field(*c));
  return total;
}

double NetCounter(const RepResult& r, const char* key) {
  auto it = r.net.find(key);
  return it == r.net.end() ? 0.0 : static_cast<double>(it->second);
}

/// Metrics of the virtual clock, pooled over a run's cells.
void VirtualMetrics(const WorkloadSpec& spec, const Cells& cells, Json* m) {
  std::vector<double> lat, reads, recovery;
  for (const auto& c : cells) {
    std::vector<double> l = Latencies(*c, false);
    std::vector<double> rd = Latencies(*c, true);
    lat.insert(lat.end(), l.begin(), l.end());
    reads.insert(reads.end(), rd.begin(), rd.end());
    recovery.push_back(RecoveryMs(*c, spec));
  }
  const double completed = std::max(1.0, Sum(cells, Completed));
  const double attempted = std::max(1.0, Sum(cells, Attempted));
  m->Num("latency_p50_ms", Percentile(lat, 50));
  m->Num("latency_p99_ms", Percentile(lat, 99));
  m->Num("latency_samples", static_cast<double>(lat.size()));
  m->Num("read_latency_p50_ms", Percentile(reads, 50));
  m->Num("read_latency_p99_ms", Percentile(reads, 99));
  m->Num("read_latency_samples", static_cast<double>(reads.size()));
  m->Num("wan_bytes_per_op",
         Sum(cells, [](const RepResult& r) {
           return NetCounter(r, "wan_bytes");
         }) / completed);
  m->Num("ops_failed_frac", 1.0 - completed / attempted);
  m->Num("recovery_ms", Median(recovery));
  m->Num("memory_capped",
         Sum(cells, [](const RepResult& r) { return r.memory_capped; }));
}

/// The per-layer ledger of a run's traced cells; counts are per completed
/// op unless named otherwise.
void LayerMetrics(const Cells& cells, double untraced_wall_s, Json* m) {
  const double ops = std::max(1.0, Sum(cells, Completed));
  auto per_op = [&](const std::string& name, auto field) {
    m->Num(name, Sum(cells, field) / ops);
  };
  auto net = [](const char* key) {
    return [key](const RepResult& r) { return NetCounter(r, key); };
  };
  const double wall = Sum(cells, [](const RepResult& r) { return r.wall_s; });
  double shim_s = 0;
  for (int f = 0; f < kNumFamilies; ++f) {
    shim_s +=
        Sum(cells, [f](const RepResult& r) { return r.ledger.wall_s[f]; });
  }
  const double run_s =
      Sum(cells, [](const RepResult& r) { return r.run_wall_s; });
  const double submit_s =
      Sum(cells, [](const RepResult& r) { return r.submit_wall_s; });
  per_op("sim.events_per_op", [](const RepResult& r) { return r.sim_events; });
  m->Num("sim.other_us_per_op", (run_s - shim_s - submit_s) * 1e6 / ops);
  per_op("net.lan_msgs_per_op", net("lan_messages"));
  per_op("net.lan_bytes_per_op", net("lan_bytes"));
  per_op("net.wan_msgs_per_op", net("wan_messages"));
  per_op("net.dropped_per_op", net("dropped_messages"));
  per_op("net.unshimmed_msgs_per_op",
         [](const RepResult& r) { return r.unshimmed_handled; });
  per_op("crypto.mac_ops_per_op",
         [](const RepResult& r) { return r.hotpath.hmac_precomputed_ops; });
  const double hits =
      Sum(cells, [](const RepResult& r) { return r.hotpath.sig_cache_hits; });
  const double misses =
      Sum(cells, [](const RepResult& r) { return r.hotpath.sig_cache_misses; });
  m->Num("crypto.sig_cache_hit_ratio",
         hits + misses == 0 ? 0.0 : hits / (hits + misses));
  per_op("crypto.proof_sig_verifies_per_op",
         [](const RepResult& r) { return r.qc.proof_sig_verifies; });
  for (int f = 0; f < kOther; ++f) {
    const std::string prefix = kFamilyNames[f];
    m->Num(prefix + ".handle_us_per_op",
           Sum(cells, [f](const RepResult& r) { return r.ledger.wall_s[f]; }) *
               1e6 / ops);
    if (f == kPbft || f == kGeo || f == kDaemon) {
      per_op(prefix + ".msgs_per_op",
             [f](const RepResult& r) { return r.ledger.msgs[f]; });
    }
  }
  m->Num("pbft.viewchange_attempts", Sum(cells, [](const RepResult& r) {
           return r.robustness.viewchange_attempts;
         }));
  per_op("pbft.window_stalls_per_op",
         [](const RepResult& r) { return r.pipeline.pbft_window_stalls; });
  m->Num("pbft.admission_rejects", Sum(cells, [](const RepResult& r) {
           return r.pipeline.pbft_admission_rejects;
         }));
  m->Num("core.participant_window_stalls", Sum(cells, [](const RepResult& r) {
           return r.pipeline.participant_window_stalls;
         }));
  m->Num("core.daemon_window_stalls", Sum(cells, [](const RepResult& r) {
           return r.pipeline.daemon_window_stalls;
         }));
  m->Num("core.commit_reorders",
         Sum(cells, [](const RepResult& r) { return r.commit_reorders; }));
  const double batches =
      Sum(cells, [](const RepResult& r) { return r.batches; });
  m->Num("batcher.ops_per_batch",
         batches == 0 ? 0.0
                      : Sum(cells, [](const RepResult& r) {
                          return r.batched_ops;
                        }) / batches);
  m->Num("submit.us_per_op", submit_s * 1e6 / ops);
  for (const char* name : kGapNames) {
    std::vector<double> g;
    for (const auto& c : cells) {
      const std::vector<double>& v = c->gaps.at(name);
      g.insert(g.end(), v.begin(), v.end());
    }
    m->Num(std::string("vt.") + name + ".p50_ms", Percentile(g, 50));
    m->Num(std::string("vt.") + name + ".p99_ms", Percentile(g, 99));
  }
  m->Num("trace.incomplete_ops",
         Sum(cells, [](const RepResult& r) { return r.incomplete_traces; }));
  m->Num("trace_overhead_frac", wall / untraced_wall_s - 1.0);
}

/// Highest rung of the offered-rate ladder (total ops per virtual second)
/// below the first rung that misses: p99 over the limit, a failed op, or a
/// backlog at the last submission that the limit cannot drain.
double MaxRate(const WorkloadSpec& spec, uint64_t seed,
               const PayloadFactory& payloads,
               std::vector<std::string>* errors) {
  double best = 0;
  const double sites = static_cast<double>(SubmittingSites(spec).size());
  for (double rate : spec.ladder) {
    RepConfig cfg;
    cfg.rate_per_site = rate;
    cfg.ops = static_cast<int>(rate * sites * spec.ladder_vs);
    RepResult r;
    RunRep(spec, seed, cfg, payloads, &r);
    CheckRep(spec, Inject::kNone, &r);
    if (!r.errors.empty()) {
      errors->insert(errors->end(), r.errors.begin(), r.errors.end());
      return 0;
    }
    double p99 = Percentile(Latencies(r, false), 99);
    double backlog_limit = rate * sites * spec.latency_limit_ms / 1000.0;
    bool ok = Completed(r) == Attempted(r) && p99 < spec.latency_limit_ms &&
              static_cast<double>(r.unfinished_at_last_due) <= backlog_limit;
    std::fprintf(stderr,
                 "ladder rate %6.0f/site: p99 %.2f ms, failed %lld, "
                 "backlog %lld -> %s\n",
                 rate, p99,
                 static_cast<long long>(Attempted(r) - Completed(r)),
                 static_cast<long long>(r.unfinished_at_last_due),
                 ok ? "meets" : "misses");
    if (!ok) break;  // rungs above the first miss are overloaded too
    best = rate * sites;
  }
  return best;
}

/// Appends one cell's completed requests per wall second, and its CPU per
/// completed request scaled to the reference host like setup_s;
/// `reference_s` is the reference kernel's CPU time around the cell.
void AddRealClock(const RepResult& r, double reference_s,
                  std::vector<double>* wall_rates,
                  std::vector<double>* cpu_per_op) {
  const double done = std::max<double>(1, static_cast<double>(Completed(r)));
  wall_rates->push_back(done / r.wall_s);
  cpu_per_op->push_back(r.cpu_s * 1e6 / done / reference_s * kReferenceS);
}

/// Same seed, same inputs: every op must finish at the same virtual time.
bool SameVirtualTimeline(const RepResult& a, const RepResult& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].done != b.ops[i].done || a.ops[i].due != b.ops[i].due) {
      return false;
    }
  }
  return true;
}

int Fail(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::fprintf(stderr, "VIOLATION: %s\n", e.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool short_mode = false;
  Inject inject = Inject::kNone;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--short") {
      short_mode = true;
    } else if (arg == "--inject") {
      std::string kind = value();
      const std::map<std::string, Inject> kinds = {
          {"read", Inject::kRead}, {"order", Inject::kOrder},
          {"duplicate", Inject::kDuplicate}, {"receive", Inject::kReceive}};
      if (kinds.count(kind) == 0) {
        std::fprintf(stderr, "unknown --inject kind %s\n", kind.c_str());
        return 2;
      }
      inject = kinds.at(kind);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  WorkloadSpec spec;
  if (!MakeSpec(workload, short_mode, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  RepConfig full;
  full.rate_per_site = spec.rate_per_site;
  full.ops = spec.ops;

  Json m;
  Json info;
  int64_t attempted = 0;
  int64_t failed = 0;
  auto run_cell = [&](int k, RepConfig cfg, Inject inj) {
    const uint64_t cell_seed = CellSeed(seed, k);
    PayloadFactory payloads(cell_seed);
    auto r = std::make_unique<RepResult>();
    cfg.corrupt_read = inj == Inject::kRead;
    RunRep(spec, cell_seed, cfg, payloads, r.get());
    if (!cfg.setup_only) CheckRep(spec, inj, r.get());
    attempted += Attempted(*r);
    failed += Attempted(*r) - Completed(*r);
    return r;
  };
  if (trace == 0) {
    std::vector<double> setups;
    RepConfig setup_only = full;
    setup_only.setup_only = true;
    Cells first;
    std::vector<double> wall_rates, cpu_per_op;
    double measured = 0;
    int passes = 0;
    bool capped = false;
    while (passes == 0 || (measured < seconds && passes < 100 && !capped)) {
      for (int k = 0; k < spec.cells; ++k) {
        for (int i = 0; i < kSetupRoundsPerCell; ++i) {
          const double ref_before = ReferenceCpuSeconds();
          std::unique_ptr<RepResult> s = run_cell(k, setup_only, Inject::kNone);
          if (!s->errors.empty()) return Fail(s->errors);
          const double ref = (ref_before + ReferenceCpuSeconds()) / 2;
          setups.push_back(s->setup_s / ref * kReferenceS);
        }
        const double ref_before = ReferenceCpuSeconds();
        std::unique_ptr<RepResult> r =
            run_cell(k, full, passes == 0 && k == 0 ? inject : Inject::kNone);
        const double ref = (ref_before + ReferenceCpuSeconds()) / 2;
        if (!r->errors.empty()) return Fail(r->errors);
        if (passes > 0 && !SameVirtualTimeline(*first[k], *r)) {
          return Fail({"repetitions of one seed diverged in virtual time"});
        }
        measured += r->wall_s;
        AddRealClock(*r, ref, &wall_rates, &cpu_per_op);
        capped = capped || r->memory_capped;
        if (passes == 0) first.push_back(std::move(r));
      }
      ++passes;
    }
    m.Num("setup_s", Median(setups));
    VirtualMetrics(spec, first, &m);
    m.Num("wall_ops_per_s", Median(wall_rates));
    m.Num("cpu_us_per_op", Median(cpu_per_op));
    m.Num("peak_rss_mb", PeakRssMb());
    info.Num("passes", passes);
  } else {
    Cells plain, traced;
    RepConfig traced_cfg = full;
    traced_cfg.traced = true;
    std::vector<double> wall_rates, cpu_per_op;
    for (int k = 0; k < spec.cells; ++k) {
      const double ref_before = ReferenceCpuSeconds();
      plain.push_back(run_cell(k, full, k == 0 ? inject : Inject::kNone));
      if (!plain.back()->errors.empty()) return Fail(plain.back()->errors);
      AddRealClock(*plain.back(), (ref_before + ReferenceCpuSeconds()) / 2,
                   &wall_rates, &cpu_per_op);
      traced.push_back(run_cell(k, traced_cfg, Inject::kNone));
      RepResult& t = *traced.back();
      if (t.events_dropped > 0) {
        t.errors.push_back("trace: the Tracer dropped " +
                           std::to_string(t.events_dropped) + " events");
      }
      if (!SameVirtualTimeline(*plain.back(), t)) {
        t.errors.push_back(
            "trace: the traced run's virtual latencies differ from the "
            "untraced run on the same seed");
      }
      if (!t.errors.empty()) return Fail(t.errors);
    }
    VirtualMetrics(spec, plain, &m);
    m.Num("wall_ops_per_s", Median(wall_rates));
    m.Num("cpu_us_per_op", Median(cpu_per_op));
    LayerMetrics(traced,
                 Sum(plain, [](const RepResult& r) { return r.wall_s; }), &m);
    std::vector<std::string> ladder_errors;
    PayloadFactory payloads(seed);
    m.Num("max_rate_ops_per_vs",
          spec.ladder.empty()
              ? 0.0
              : MaxRate(spec, seed, payloads, &ladder_errors));
    if (!ladder_errors.empty()) return Fail(ladder_errors);
    info.Num("passes", 1);
  }
  info.Num("cells", spec.cells);
  info.Str("build_type", E2EBENCH_BUILD_TYPE);
  info.Str("compiler", Escape(std::string("gcc ") + __VERSION__));
  Json out;
  out.Raw("correct", "true");
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Raw("metrics", m.Object());
  out.Raw("info", info.Object());
  std::printf("%s\n", out.Object().c_str());
  return 0;
}
