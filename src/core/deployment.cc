#include "core/deployment.h"

#include "pbft/config.h"

namespace blockplane::core {

Deployment::Deployment(sim::Simulator* simulator, net::Topology topology,
                       BlockplaneOptions options,
                       net::NetworkOptions net_options)
    : sim_(simulator),
      network_(simulator, std::move(topology), net_options),
      options_(options) {
  const int num_sites = network_.topology().num_sites();
  const int unit_size = 3 * options_.fi + 1;
  // Every cross-site proof is a QuorumCert, whose 64-bit signer bitmap
  // must cover a whole unit or mirror group (DESIGN.md §14).
  BP_CHECK_MSG(unit_size <= 64,
               "fi too large: a quorum certificate covers at most 64 signers "
               "(3fi+1 <= 64)");

  // Mirror sets: each site's 2fg closest sites (by RTT), per §V.
  for (net::SiteId site = 0; site < num_sites; ++site) {
    std::vector<net::SiteId> mirrors;
    if (options_.fg > 0) {
      std::vector<int> by_proximity =
          network_.topology().SitesByProximity(site);
      // Ideally 2fg mirrors; with fewer sites (as in the paper's fg=2,3
      // runs on 4 datacenters) every other site mirrors.
      int mirror_count = std::min<int>(2 * options_.fg,
                                       static_cast<int>(by_proximity.size()));
      BP_CHECK_MSG(mirror_count >= options_.fg,
                   "fg exceeds the number of other sites");
      for (int i = 0; i < mirror_count; ++i) {
        mirrors.push_back(by_proximity[i]);
      }
    }
    mirror_sites_[site] = std::move(mirrors);
  }

  // Units: 3fi+1 Blockplane nodes per participant.
  for (net::SiteId site = 0; site < num_sites; ++site) {
    pbft::PbftConfig group = pbft::UnitConfig(site, options_.fi);
    auto& nodes = units_[site];
    for (int i = 0; i < unit_size; ++i) {
      nodes.push_back(std::make_unique<BlockplaneNode>(
          &network_, &keys_, options_, group, group.nodes[i], site));
    }
    // Communication daemons: the active daemon per destination runs on
    // node 0; nodes 1..fi+1 hold the daemon reserve (§IV-C).
    for (net::SiteId dest = 0; dest < num_sites; ++dest) {
      if (dest == site) continue;
      nodes[0]->StartCommDaemon(dest, /*reserve=*/false);
      for (int r = 1; r <= options_.fi + 1 && r < unit_size; ++r) {
        nodes[r]->StartCommDaemon(dest, /*reserve=*/true);
      }
    }
  }

  // Mirror groups (§V): origin's log replicated at each of its mirrors.
  if (options_.fg > 0) {
    for (net::SiteId origin = 0; origin < num_sites; ++origin) {
      for (net::SiteId host : mirror_sites_[origin]) {
        pbft::PbftConfig group;
        group.f = options_.fi;
        for (int i = 0; i < unit_size; ++i) {
          group.nodes.push_back(MirrorNodeId(host, origin, i));
        }
        // The other hosts mirroring the same origin: gap-backfill fetch
        // targets (§V) when this group falls behind the geo stream.
        std::vector<net::SiteId> peer_hosts;
        for (net::SiteId peer : mirror_sites_[origin]) {
          if (peer != host) peer_hosts.push_back(peer);
        }
        auto& nodes = mirrors_[{host, origin}];
        for (int i = 0; i < unit_size; ++i) {
          nodes.push_back(std::make_unique<BlockplaneNode>(
              &network_, &keys_, options_, group, group.nodes[i], origin));
          nodes.back()->SetMirrorPeerHosts(peer_hosts);
        }
      }
    }
  }

  // Participants (user-space handles).
  for (net::SiteId site = 0; site < num_sites; ++site) {
    participants_[site] = std::make_unique<Participant>(
        &network_, &keys_, options_, pbft::UnitConfig(site, options_.fi),
        site, mirror_sites_[site]);
  }
}

void Deployment::RegisterVerifier(
    net::SiteId site, uint64_t routine_id,
    const std::function<VerifyRoutine(BlockplaneNode*)>& factory) {
  for (auto& node : units_.at(site)) {
    node->RegisterVerifier(routine_id, factory(node.get()));
  }
}

}  // namespace blockplane::core
