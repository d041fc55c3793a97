// Ablations of Blockplane's design choices (see DESIGN.md §5):
//
//   A. Wide-area message complexity per consensus round — the hierarchy's
//      core claim: byzantine masking stays local, so the WAN traffic of
//      Blockplane-paxos looks like paxos's, not PBFT's.
//   B. Communication-daemon pipelining — serializing transmissions per
//      destination (window = 1) adds an extra cross-round RTT under load.
//   C. Crypto on/off — what the paper's prototype omitted: the cost of
//      real SHA-256 digests and HMAC signatures on local commitment.
//   D. Read strategies (§VI-A) — read-1 vs 2f+1-quorum vs linearizable.
#include <cstdio>

#include "bench_util.h"
#include "core/deployment.h"
#include "paxos/node.h"
#include "protocols/bp_paxos.h"
#include "protocols/flat_pbft.h"

namespace blockplane {
namespace {

net::NetworkOptions BenchNet() {
  net::NetworkOptions options;
  options.intra_site_one_way = sim::Microseconds(100);
  options.per_message_cpu = sim::Microseconds(25);
  return options;
}

// --- A: WAN messages per round -------------------------------------------------

void AblateWanMessages() {
  std::printf("--- A. wide-area traffic per replicated command "
              "(leader: Virginia, 1 KB commands, mean of 20) ---\n");
  std::printf("%20s %16s %14s\n", "protocol", "WAN messages", "WAN KB");
  constexpr int kRounds = 20;

  {  // paxos
    sim::Simulator simulator(1);
    net::Network network(&simulator, net::Topology::Aws4(), BenchNet());
    paxos::PaxosConfig config;
    for (int site = 0; site < 4; ++site) config.nodes.push_back({site, 0});
    std::vector<std::unique_ptr<paxos::PaxosNode>> nodes;
    uint64_t committed = 0;
    for (int site = 0; site < 4; ++site) {
      auto node = std::make_unique<paxos::PaxosNode>(
          &network, config, config.nodes[site],
          [&, site](uint64_t, const Bytes&) {
            if (site == net::kVirginia) ++committed;
          });
      node->RegisterWithNetwork();
      nodes.push_back(std::move(node));
    }
    nodes[net::kVirginia]->StartLeaderElection();
    simulator.RunUntilCondition(
        [&] { return nodes[net::kVirginia]->IsLeader(); }, sim::Seconds(10));
    network.ResetCounters();
    for (int i = 0; i < kRounds; ++i) {
      uint64_t target = committed + 1;
      nodes[net::kVirginia]->Submit(bench::MakeBatch(1));
      simulator.RunUntilCondition([&] { return committed >= target; },
                                  simulator.Now() + sim::Seconds(10));
    }
    simulator.RunFor(sim::Seconds(1));
    std::printf("%20s %16.1f %14.1f\n", "paxos",
                static_cast<double>(network.counters().Get("wan_messages")) /
                    kRounds,
                static_cast<double>(network.counters().Get("wan_bytes")) /
                    kRounds / 1000.0);
  }

  {  // Blockplane-paxos
    sim::Simulator simulator(1);
    core::BlockplaneOptions options;
    options.sign_messages = false;
    core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                                BenchNet());
    protocols::BpPaxos paxos(&deployment);
    bool elected = false;
    paxos.LeaderElection(net::kVirginia, [&](bool won) { elected = won; });
    simulator.RunUntilCondition([&] { return elected; }, sim::Seconds(60));
    deployment.network()->ResetCounters();
    for (int i = 0; i < kRounds; ++i) {
      bool done = false;
      paxos.Replicate(net::kVirginia, bench::MakeBatch(1),
                      [&](bool) { done = true; });
      simulator.RunUntilCondition([&] { return done; },
                                  simulator.Now() + sim::Seconds(10));
    }
    simulator.RunFor(sim::Seconds(1));
    const CounterSet& counters = deployment.network()->counters();
    std::printf("%20s %16.1f %14.1f\n", "Blockplane-paxos",
                static_cast<double>(counters.Get("wan_messages")) / kRounds,
                static_cast<double>(counters.Get("wan_bytes")) / kRounds /
                    1000.0);
  }

  {  // flat PBFT
    sim::Simulator simulator(1);
    net::Network network(&simulator, net::Topology::Aws4(), BenchNet());
    crypto::KeyStore keys;
    protocols::FlatPbft pbft(&network, &keys, net::kVirginia,
                             /*sign_messages=*/false);
    network.ResetCounters();
    for (int i = 0; i < kRounds; ++i) {
      bool done = false;
      pbft.Commit(bench::MakeBatch(1), [&](uint64_t) { done = true; });
      simulator.RunUntilCondition([&] { return done; },
                                  simulator.Now() + sim::Seconds(10));
    }
    simulator.RunFor(sim::Seconds(1));
    std::printf("%20s %16.1f %14.1f\n", "flat PBFT",
                static_cast<double>(network.counters().Get("wan_messages")) /
                    kRounds,
                static_cast<double>(network.counters().Get("wan_bytes")) /
                    kRounds / 1000.0);
  }
  std::printf(
      "(Blockplane keeps paxos's one-WAN-round-trip critical path but pays\n"
      " more raw WAN messages: each transmission goes to f_i+1 receivers,\n"
      " is acked by f_i+1 nodes, and reserves keep polling. Flat PBFT sends\n"
      " fewer messages yet needs three sequential WAN phases - which is\n"
      " why its latency in Fig. 7 is far worse.)\n\n");
}

// --- B: daemon pipelining --------------------------------------------------------

void AblatePipelining() {
  std::printf("--- B. communication-daemon pipelining: 10 back-to-back "
              "messages California -> Virginia ---\n");
  std::printf("%14s %22s\n", "window", "total delivery (ms)");
  for (size_t window : {size_t{1}, size_t{4}, size_t{32}}) {
    sim::Simulator simulator(1);
    core::BlockplaneOptions options;
    options.sign_messages = false;
    options.daemon_window = window;
    core::Deployment deployment(&simulator, net::Topology::Aws4(), options,
                                BenchNet());
    for (int i = 0; i < 10; ++i) {
      deployment.participant(net::kCalifornia)
          ->Send(net::kVirginia, bench::MakeBatch(1), 0, nullptr);
    }
    int received = 0;
    deployment.participant(net::kVirginia)
        ->SetReceiveHandler(
            [&](net::SiteId, const Bytes&) { ++received; });
    sim::SimTime start = simulator.Now();
    simulator.RunUntilCondition([&] { return received == 10; },
                                sim::Seconds(60));
    std::printf("%14zu %22.1f\n", window,
                sim::ToMillis(simulator.Now() - start));
  }
  std::printf("(window=1 pays ~1 extra RTT per queued message.)\n\n");
}

// --- C: crypto cost ---------------------------------------------------------------

void AblateCrypto() {
  std::printf("--- C. HMAC signatures on vs the paper's prototype mode "
              "(local commit, 100 KB batches; SHA-256 digests in both) ---\n");
  std::printf("%24s %14s\n", "mode", "latency (ms)");
  for (bool sign_on : {false, true}) {
    sim::Simulator simulator(1);
    core::BlockplaneOptions options;
    options.sign_messages = sign_on;
    options.checkpoint_interval = 8;
    options.prune_applied_log = 8;
    core::Deployment deployment(&simulator,
                                net::Topology::SingleSite("Virginia"),
                                options, BenchNet());
    Bytes batch = bench::MakeBatch(100);
    Histogram latency_ms;
    for (int i = 0; i < 120; ++i) {
      bool done = false;
      sim::SimTime start = simulator.Now();
      deployment.participant(0)->LogCommit(Bytes(batch), 0,
                                           [&](uint64_t) { done = true; });
      simulator.RunUntilCondition([&] { return done; },
                                  simulator.Now() + sim::Seconds(10));
      if (i >= 20) latency_ms.Add(sim::ToMillis(simulator.Now() - start));
    }
    std::printf("%24s %14.2f\n",
                sign_on ? "HMAC signatures" : "paper mode (unsigned)",
                latency_ms.Mean());
  }
  std::printf("(simulated network time is identical; the real crypto cost "
              "is host CPU: e2ebench local_bulk's cpu_us_per_op.)\n\n");
}

// --- E: resource & message cost summary (§VI-D) ---------------------------------

void AblateCosts() {
  std::printf("--- E. performance and monetary costs (SVI-D): resources "
              "per deployment, traffic per local commit ---\n");
  std::printf("%6s %14s %16s %18s\n", "f_i", "nodes/site",
              "LAN msgs/commit", "LAN KB/commit");
  for (int fi = 1; fi <= 3; ++fi) {
    sim::Simulator simulator(1);
    core::BlockplaneOptions options;
    options.fi = fi;
    options.sign_messages = false;
    core::Deployment deployment(&simulator,
                                net::Topology::SingleSite("Virginia"),
                                options, BenchNet());
    constexpr int kCommits = 50;
    int completed = 0;
    deployment.network()->ResetCounters();
    for (int i = 0; i < kCommits; ++i) {
      deployment.participant(0)->LogCommit(bench::MakeBatch(1), 0,
                                           [&](uint64_t) { ++completed; });
    }
    simulator.RunUntilCondition([&] { return completed == kCommits; },
                                sim::Seconds(60));
    const CounterSet& counters = deployment.network()->counters();
    std::printf("%6d %14d %16.1f %18.2f\n", fi, 3 * fi + 1,
                static_cast<double>(counters.Get("lan_messages")) / kCommits,
                static_cast<double>(counters.Get("lan_bytes")) / kCommits /
                    1000.0);
  }
  std::printf("(the paper's SVI-D: 3*f_i extra nodes per participant plus "
              "the three-phase commit traffic\n are the monetary price of "
              "byzantizing; traffic grows quadratically with the unit "
              "size.)\n\n");
}

// --- D: read strategies -------------------------------------------------------------

void AblateReads() {
  std::printf("--- D. read strategies (SVI-A), reading one committed "
              "entry ---\n");
  std::printf("%16s %14s\n", "strategy", "latency (ms)");
  const core::ReadStrategy strategies[] = {core::ReadStrategy::kReadOne,
                                           core::ReadStrategy::kReadQuorum,
                                           core::ReadStrategy::kLinearizable};
  const char* names[] = {"read-1", "quorum(2f+1)", "linearizable"};
  for (int s = 0; s < 3; ++s) {
    sim::Simulator simulator(1);
    core::Deployment deployment(&simulator, net::Topology::Aws4(), {},
                                BenchNet());
    bool committed = false;
    uint64_t pos = 0;
    deployment.participant(net::kCalifornia)
        ->LogCommit(bench::MakeBatch(1), 0, [&](uint64_t p) {
          pos = p;
          committed = true;
        });
    simulator.RunUntilCondition([&] { return committed; }, sim::Seconds(30));
    simulator.RunFor(sim::Seconds(1));

    Histogram latency_ms;
    for (int i = 0; i < 30; ++i) {
      bool done = false;
      sim::SimTime start = simulator.Now();
      deployment.participant(net::kCalifornia)
          ->Read(pos, strategies[s],
                 [&](Status, core::LogRecord) { done = true; });
      simulator.RunUntilCondition([&] { return done; },
                                  simulator.Now() + sim::Seconds(10));
      latency_ms.Add(sim::ToMillis(simulator.Now() - start));
    }
    std::printf("%16s %14.2f\n", names[s], latency_ms.Mean());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace blockplane

int main() {
  using namespace blockplane;
  bench::PrintHeader("Ablations of Blockplane design choices",
                     "hierarchy/WAN traffic, daemon pipelining, crypto, "
                     "read strategies");
  AblateWanMessages();
  AblatePipelining();
  AblateCrypto();
  AblateReads();
  AblateCosts();
  return 0;
}
