// Micro-benchmarks (google-benchmark) for the hot primitives under the
// paper's experiments: SHA-256/HMAC, signatures, the binary codec, record
// encoding, the simulator core, and an end-to-end local commit.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "core/deployment.h"
#include "net/transport.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "pbft/replica.h"

namespace blockplane {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(100000);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x42);
  Bytes data(state.range(0), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_HmacPrecomputed(benchmark::State& state) {
  // Same key/message shapes as BM_HmacSha256, through the midstate-cached
  // key: the per-call delta between the two is what PrecomputedHmacKey
  // saves (key schedule + 2 of the 4 compressions for short messages).
  Bytes key(32, 0x42);
  crypto::PrecomputedHmacKey fast(key);
  Bytes data(state.range(0), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast.Sign(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacPrecomputed)->Arg(64)->Arg(1024);

void BM_SignVerify(benchmark::State& state) {
  crypto::KeyStore keys;
  auto signer = keys.RegisterNode({0, 0});
  Bytes msg(256, 0x11);
  for (auto _ : state) {
    crypto::Signature sig = signer->Sign(msg);
    benchmark::DoNotOptimize(keys.Verify(msg, sig));
  }
}
BENCHMARK(BM_SignVerify);

void BM_Crc32(benchmark::State& state) {
  Bytes data(state.range(0), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(100000);

void BM_CodecRoundTrip(benchmark::State& state) {
  Bytes payload(state.range(0), 0x3c);
  for (auto _ : state) {
    Encoder enc;
    enc.PutU64(42);
    enc.PutVarint(123456);
    enc.PutBytes(payload);
    Bytes wire = enc.Take();
    Decoder dec(wire);
    uint64_t fixed = 0;
    uint64_t varint = 0;
    Bytes out;
    benchmark::DoNotOptimize(dec.GetU64(&fixed));
    benchmark::DoNotOptimize(dec.GetVarint(&varint));
    benchmark::DoNotOptimize(dec.GetBytes(&out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CodecRoundTrip)->Arg(1024)->Arg(100000);

void BM_RecordEncodeDecode(benchmark::State& state) {
  core::LogRecord record;
  record.type = core::RecordType::kReceived;
  record.routine_id = 7;
  record.payload = Bytes(1024, 0x77);
  record.dest_site = 1;
  record.src_site = 0;
  record.src_log_pos = 42;
  record.prev_src_log_pos = 40;
  for (auto _ : state) {
    Bytes wire = record.Encode();
    core::LogRecord out;
    benchmark::DoNotOptimize(core::LogRecord::Decode(wire, &out));
  }
}
BENCHMARK(BM_RecordEncodeDecode);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator(1);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.Schedule(i, [&fired]() { ++fired; });
    }
    simulator.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorEventThroughputMessageCapture(benchmark::State& state) {
  // The network's delivery closures capture `this` plus a whole Message;
  // a one-reference capture (above) never showed what such a callback
  // costs to queue and pop.
  net::Message msg;
  msg.src = {0, 0};
  msg.dst = {0, 1};
  msg.payload = net::MakePayload(Bytes(64, 0x42));
  for (auto _ : state) {
    sim::Simulator simulator(1);
    int64_t delivered = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.Schedule(i, [&delivered, msg]() {
        delivered += static_cast<int64_t>(msg.wire_bytes) + msg.dst.index;
      });
    }
    simulator.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventThroughputMessageCapture);

void BM_SimulatorEventThroughputQuarterCancelled(benchmark::State& state) {
  // Timer churn: a quarter of the events are cancelled before they fire,
  // as retransmission and watchdog timers mostly are.
  std::vector<sim::EventId> ids(1000);
  for (auto _ : state) {
    sim::Simulator simulator(1);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      ids[i] = simulator.Schedule(i, [&fired]() { ++fired; });
    }
    for (int i = 0; i < 1000; i += 4) simulator.Cancel(ids[i]);
    simulator.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventThroughputQuarterCancelled);

void BM_TransportSend(benchmark::State& state) {
  // Cost of pushing one payload through ReliableTransport::Send. The
  // rvalue-payload signature plus the exact-size Reserve in the frame
  // encoder mean the bytes are copied exactly once (into the frame); the
  // "bytes_copied_saved" counter reports the copies the old by-value /
  // growing-encoder path would have made on top of that.
  const int64_t payload_size = state.range(0);
  sim::Simulator simulator(1);
  net::NetworkOptions net_options;
  net_options.per_message_cpu = 0;
  net::Network network(&simulator, net::Topology::SingleSite(), net_options);
  net::ReliableTransport sender(&network, net::NodeId{0, 0},
                                [](const net::Message&) {});
  net::ReliableTransport receiver(&network, net::NodeId{0, 1},
                                  [](const net::Message&) {});
  Bytes payload(payload_size, 0x5c);
  transport_stats().Reset();
  for (auto _ : state) {
    sender.Send(net::NodeId{0, 1}, 7, Bytes(payload));
    simulator.Run();  // deliver + ack so in-flight state stays bounded
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          payload_size);
  // One elided deep copy per Send: the accounting that pins the zero-copy
  // claim (asserted against iterations, not just reported).
  state.counters["bytes_copied_saved"] = static_cast<double>(
      transport_stats().bytes_copied_saved);
  if (transport_stats().bytes_copied_saved !=
      static_cast<int64_t>(state.iterations()) * payload_size) {
    state.SkipWithError("bytes_copied_saved accounting mismatch");
  }
}
BENCHMARK(BM_TransportSend)->Arg(256)->Arg(4096)->Arg(65536);

void BM_LocalCommitEndToEnd(benchmark::State& state) {
  // Wall-clock cost of simulating one full PBFT local commit (the unit of
  // work behind Fig. 4): useful for spotting regressions in the hot path.
  sim::Simulator simulator(1);
  core::BlockplaneOptions options;
  options.checkpoint_interval = 8;
  options.prune_applied_log = 8;
  core::Deployment deployment(&simulator, net::Topology::SingleSite(),
                              options);
  Bytes batch(1000, 0x99);
  for (auto _ : state) {
    bool done = false;
    deployment.participant(0)->LogCommit(Bytes(batch), 0,
                                         [&](uint64_t) { done = true; });
    simulator.RunUntilCondition([&] { return done; },
                                simulator.Now() + sim::Seconds(10));
  }
}
BENCHMARK(BM_LocalCommitEndToEnd);

void BM_PbftVoteReceive(benchmark::State& state) {
  // One PBFT vote received, checked and applied: decode, MAC over the
  // canonical body, and the state update that files it into its instance.
  // Each prepare from replica 1 reaches the other three replicas, which
  // share one KeyStore as a simulated unit does, and every vote is
  // distinct so no verdict carries over between batches. The replicas
  // (and the simulator holding their progress timers) are torn down and
  // rebuilt outside the timing every kBatch votes, so instance state stays
  // bounded.
  constexpr int kBatch = 256;
  const pbft::PbftConfig config = pbft::UnitConfig(/*site=*/0, /*f=*/1);
  crypto::KeyStore keys;
  const auto voter = keys.RegisterNode(config.nodes[1]);
  uint64_t distinct = 0;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<pbft::PbftReplica>> receivers;
  std::vector<net::Message> votes(kBatch);
  robustness_stats().Reset();
  for (auto _ : state) {
    state.PauseTiming();
    receivers.clear();
    network.reset();
    simulator = std::make_unique<sim::Simulator>(1);
    network = std::make_unique<net::Network>(simulator.get(),
                                             net::Topology::SingleSite());
    for (int r : {0, 2, 3}) {
      receivers.push_back(std::make_unique<pbft::PbftReplica>(
          network.get(), &keys, config, config.nodes[r], nullptr));
    }
    for (int i = 0; i < kBatch; ++i) {
      pbft::VoteMsg vote;
      vote.type = pbft::kPrepare;
      vote.seq = static_cast<uint64_t>(i) + 1;
      ++distinct;
      for (int b = 0; b < 8; ++b) {
        vote.digest[b] = static_cast<uint8_t>(distinct >> (8 * b));
      }
      const auto body = vote.CanonicalBody();
      vote.sig = voter->Sign(Bytes(body.begin(), body.end()));
      votes[i].src = config.nodes[1];
      votes[i].type = pbft::kPrepare;
      votes[i].set_body(vote.Encode());
    }
    state.ResumeTiming();
    for (const net::Message& msg : votes) {
      for (auto& receiver : receivers) receiver->HandleMessage(msg);
    }
  }
  if (robustness_stats().msgs_rejected != 0) {
    state.SkipWithError("a genuine vote was dropped");
  }
  // Reported per received vote.
  state.counters["per_vote"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch * 3,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PbftVoteReceive);

}  // namespace
}  // namespace blockplane

// Custom main instead of BENCHMARK_MAIN(): defaults --benchmark_out to
// BENCH_micro.json (google-benchmark's JSON schema) so CI and the plots
// under scripts/ can consume the numbers without scraping console output.
// An explicit --benchmark_out on the command line still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
