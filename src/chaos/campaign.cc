#include "chaos/campaign.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
#include "sim/random.h"

namespace blockplane::chaos {

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kCrashNode: return "crash_node";
    case FaultType::kRecoverNode: return "recover_node";
    case FaultType::kCrashSite: return "crash_site";
    case FaultType::kRecoverSite: return "recover_site";
    case FaultType::kPartition: return "partition";
    case FaultType::kHeal: return "heal";
    case FaultType::kPartitionOneWay: return "partition_one_way";
    case FaultType::kHealOneWay: return "heal_one_way";
    case FaultType::kDropBurst: return "drop_burst";
    case FaultType::kCorruptBurst: return "corrupt_burst";
    case FaultType::kDuplicateBurst: return "duplicate_burst";
    case FaultType::kHealAll: return "heal_all";
    case FaultType::kByzEquivocate: return "byz_equivocate";
    case FaultType::kByzSilent: return "byz_silent";
    case FaultType::kByzBogusVotes: return "byz_bogus_votes";
    case FaultType::kByzWithholdAttest: return "byz_withhold_attest";
    case FaultType::kByzForgeReads: return "byz_forge_reads";
    case FaultType::kByzReorderGeo: return "byz_reorder_geo";
  }
  return "unknown";
}

const char* ScheduleTemplateName(ScheduleTemplate t) {
  switch (t) {
    case ScheduleTemplate::kCrashHeavy: return "crash_heavy";
    case ScheduleTemplate::kPartitionHeavy: return "partition_heavy";
    case ScheduleTemplate::kByzantineHeavy: return "byzantine_heavy";
    case ScheduleTemplate::kMixed: return "mixed";
  }
  return "unknown";
}

namespace {

/// Per-unit fault budget: at most f_i nodes of a unit may be faulty
/// (crashed or byzantine) at any instant. Crash intervals are serialized
/// per site against the byzantine assignment count, which is permanent.
struct UnitBudget {
  /// Earliest time a new crash may start at this site.
  sim::SimTime next_free = 0;
  /// Node indices permanently assigned a byzantine role.
  std::vector<int> byzantine;
};

class Compiler {
 public:
  explicit Compiler(CampaignConfig config)
      : cfg_(std::move(config)), rng_(cfg_.seed * 0x9e3779b97f4a7c15ULL + 1) {}

  Campaign Compile() {
    switch (cfg_.schedule) {
      case ScheduleTemplate::kCrashHeavy: CrashHeavy(); break;
      case ScheduleTemplate::kPartitionHeavy: PartitionHeavy(); break;
      case ScheduleTemplate::kByzantineHeavy: ByzantineHeavy(); break;
      case ScheduleTemplate::kMixed: Mixed(); break;
    }
    // End-of-campaign sweep: whatever one-off heals already happened, make
    // certain nothing survives past the horizon.
    Add({cfg_.horizon, FaultType::kHealAll});
    std::stable_sort(actions_.begin(), actions_.end(),
                     [](const FaultAction& a, const FaultAction& b) {
                       return a.at < b.at;
                     });
    return Campaign{cfg_, std::move(actions_)};
  }

 private:
  void Add(FaultAction action) { actions_.push_back(action); }

  sim::SimTime UniformTime(sim::SimTime lo, sim::SimTime hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<sim::SimTime>(
                    rng_.NextBelow(static_cast<uint64_t>(hi - lo)));
  }

  net::SiteId RandomSite() {
    return static_cast<net::SiteId>(rng_.NextBelow(cfg_.num_sites));
  }

  int NodesPerUnit() const { return 3 * cfg_.fi + 1; }

  /// Schedules one node crash/recover pair on `site`, serialized against
  /// the site's budget so concurrent faults never exceed f_i.
  void AddNodeCrash(net::SiteId site, sim::SimTime around,
                    sim::SimTime max_outage) {
    UnitBudget& budget = budgets_[site];
    sim::SimTime at = std::max(around, budget.next_free);
    if (at >= cfg_.horizon) return;
    sim::SimTime outage = sim::Milliseconds(200) +
        UniformTime(0, max_outage - sim::Milliseconds(200));
    sim::SimTime recover_at = std::min<sim::SimTime>(at + outage,
                                                     cfg_.horizon);
    // Never crash a node that holds a permanent byzantine role: together
    // they would exceed the unit's f_i budget.
    int index = -1;
    for (int attempt = 0; attempt < 8 && index < 0; ++attempt) {
      int candidate = static_cast<int>(rng_.NextBelow(NodesPerUnit()));
      bool is_byz = std::find(budget.byzantine.begin(),
                              budget.byzantine.end(),
                              candidate) != budget.byzantine.end();
      if (!is_byz) index = candidate;
    }
    if (index < 0) return;
    Add({at, FaultType::kCrashNode, site, -1, index});
    Add({recover_at, FaultType::kRecoverNode, site, -1, index});
    // Leave slack after recovery so catch-up completes before the next hit.
    budget.next_free = recover_at + sim::Milliseconds(500);
  }

  /// One full-site outage, serialized globally (one site down at a time).
  /// `avoid` excludes a site (e.g. one holding a permanent byzantine
  /// node, whose unit must keep its f_i budget after the heal).
  void AddSiteOutage(sim::SimTime around, sim::SimTime max_outage,
                     net::SiteId avoid = -1) {
    sim::SimTime at = std::max(around, site_outage_free_);
    if (at >= cfg_.horizon) return;
    net::SiteId site = RandomSite();
    if (site == avoid) {
      site = static_cast<net::SiteId>((site + 1) % cfg_.num_sites);
    }
    sim::SimTime outage = sim::Milliseconds(400) +
        UniformTime(0, max_outage - sim::Milliseconds(400));
    sim::SimTime recover_at = std::min<sim::SimTime>(at + outage,
                                                     cfg_.horizon);
    Add({at, FaultType::kCrashSite, site});
    Add({recover_at, FaultType::kRecoverSite, site});
    site_outage_free_ = recover_at + sim::Seconds(1);
    // The outage also consumes the whole unit's crash budget.
    budgets_[site].next_free =
        std::max(budgets_[site].next_free, site_outage_free_);
  }

  void AddPartition(sim::SimTime around, sim::SimTime max_span,
                    bool one_way) {
    if (cfg_.num_sites < 2) return;
    sim::SimTime at = std::max(around, cfg_.start);
    if (at >= cfg_.horizon) return;
    net::SiteId a = RandomSite();
    net::SiteId b = RandomSite();
    if (a == b) b = static_cast<net::SiteId>((a + 1) % cfg_.num_sites);
    sim::SimTime span = sim::Milliseconds(300) +
        UniformTime(0, max_span - sim::Milliseconds(300));
    sim::SimTime heal_at = std::min<sim::SimTime>(at + span, cfg_.horizon);
    if (one_way) {
      Add({at, FaultType::kPartitionOneWay, a, b});
      Add({heal_at, FaultType::kHealOneWay, a, b});
    } else {
      Add({at, FaultType::kPartition, a, b});
      Add({heal_at, FaultType::kHeal, a, b});
    }
  }

  void AddBurst(FaultType type, sim::SimTime around, double max_prob,
                sim::SimTime max_span) {
    sim::SimTime at = std::max(around, cfg_.start);
    if (at >= cfg_.horizon) return;
    FaultAction action;
    action.at = at;
    action.type = type;
    action.probability = 0.02 + rng_.NextDouble() * (max_prob - 0.02);
    action.duration = sim::Milliseconds(200) +
        UniformTime(0, max_span - sim::Milliseconds(200));
    if (at + action.duration > cfg_.horizon) {
      action.duration = cfg_.horizon - at;
    }
    Add(action);
  }

  /// Permanently assigns a byzantine role if the unit still has budget.
  void AddByzantine(FaultType type, net::SiteId site, int index,
                    sim::SimTime at) {
    UnitBudget& budget = budgets_[site];
    if (static_cast<int>(budget.byzantine.size()) >= cfg_.fi) return;
    if (std::find(budget.byzantine.begin(), budget.byzantine.end(), index) !=
        budget.byzantine.end()) {
      return;
    }
    budget.byzantine.push_back(index);
    // A permanently byzantine node consumes the unit's crash budget for
    // the whole campaign (fi = 1 deployments must not also crash a node).
    budget.next_free = sim::kSimTimeMax;
    Add({at, type, site, -1, index});
  }

  // --- templates -------------------------------------------------------------

  void CrashHeavy() {
    // Waves of node crashes across every site plus one full-site outage,
    // with drop/duplicate bursts layered on top.
    sim::SimTime window = cfg_.horizon - cfg_.start;
    int waves = 3 + static_cast<int>(rng_.NextBelow(3));
    for (int w = 0; w < waves; ++w) {
      for (net::SiteId site = 0; site < cfg_.num_sites; ++site) {
        if (rng_.Bernoulli(0.7)) {
          AddNodeCrash(site, cfg_.start + UniformTime(0, window),
                       sim::Seconds(3));
        }
      }
    }
    AddSiteOutage(cfg_.start + UniformTime(0, window / 2), sim::Seconds(4));
    AddBurst(FaultType::kDropBurst, cfg_.start + UniformTime(0, window),
             0.25, sim::Seconds(3));
    AddBurst(FaultType::kDuplicateBurst, cfg_.start + UniformTime(0, window),
             0.3, sim::Seconds(3));
  }

  void PartitionHeavy() {
    sim::SimTime window = cfg_.horizon - cfg_.start;
    int cuts = 4 + static_cast<int>(rng_.NextBelow(4));
    for (int c = 0; c < cuts; ++c) {
      AddPartition(cfg_.start + UniformTime(0, window), sim::Seconds(4),
                   /*one_way=*/rng_.Bernoulli(0.4));
    }
    AddBurst(FaultType::kDropBurst, cfg_.start + UniformTime(0, window),
             0.2, sim::Seconds(2));
    AddBurst(FaultType::kCorruptBurst, cfg_.start + UniformTime(0, window),
             0.15, sim::Seconds(2));
    if (rng_.Bernoulli(0.5)) {
      AddNodeCrash(RandomSite(), cfg_.start + UniformTime(0, window),
                   sim::Seconds(2));
    }
  }

  void ByzantineHeavy() {
    // One byzantine node per unit (the f_i budget), with a scripted mix of
    // behaviors. The geo-reorder leader always appears at site 0 node 0 —
    // the initial unit leader — so the quarantine-and-gap-fill defense is
    // exercised on every byzantine-heavy seed.
    AddByzantine(FaultType::kByzReorderGeo, 0, 0, sim::Milliseconds(10));
    static constexpr FaultType kBehaviors[] = {
        FaultType::kByzEquivocate, FaultType::kByzSilent,
        FaultType::kByzBogusVotes, FaultType::kByzWithholdAttest,
        FaultType::kByzForgeReads,
    };
    for (net::SiteId site = 1; site < cfg_.num_sites; ++site) {
      FaultType behavior = kBehaviors[rng_.NextBelow(5)];
      int index = static_cast<int>(rng_.NextBelow(NodesPerUnit()));
      AddByzantine(behavior, site, index,
                   cfg_.start + UniformTime(0, sim::Seconds(1)));
    }
    AddBurst(FaultType::kDuplicateBurst,
             cfg_.start + UniformTime(0, cfg_.horizon - cfg_.start), 0.2,
             sim::Seconds(3));
  }

  void Mixed() {
    sim::SimTime window = cfg_.horizon - cfg_.start;
    // One byzantine unit somewhere (geo-reorder leader half the time).
    net::SiteId byz_site = RandomSite();
    if (rng_.Bernoulli(0.5)) {
      AddByzantine(FaultType::kByzReorderGeo, byz_site, 0,
                   sim::Milliseconds(10));
    } else {
      static constexpr FaultType kBehaviors[] = {
          FaultType::kByzSilent, FaultType::kByzBogusVotes,
          FaultType::kByzWithholdAttest,
      };
      AddByzantine(kBehaviors[rng_.NextBelow(3)], byz_site,
                   static_cast<int>(rng_.NextBelow(NodesPerUnit())),
                   cfg_.start + UniformTime(0, sim::Seconds(1)));
    }
    // Crashes on the other sites.
    for (net::SiteId site = 0; site < cfg_.num_sites; ++site) {
      if (site == byz_site) continue;
      if (rng_.Bernoulli(0.8)) {
        AddNodeCrash(site, cfg_.start + UniformTime(0, window),
                     sim::Seconds(3));
      }
    }
    // A partition and a burst.
    AddPartition(cfg_.start + UniformTime(0, window), sim::Seconds(3),
                 /*one_way=*/rng_.Bernoulli(0.3));
    AddBurst(FaultType::kDropBurst, cfg_.start + UniformTime(0, window),
             0.15, sim::Seconds(2));
    // Half the campaigns also take a full (non-byzantine) site down: with
    // fg = 1 the mirror groups hosted there fall behind the geo stream
    // and must backfill from their peer mirrors after the heal (§V).
    if (rng_.Bernoulli(0.5)) {
      AddSiteOutage(cfg_.start + UniformTime(0, window / 2),
                    sim::Seconds(3), /*avoid=*/byz_site);
    }
  }

  CampaignConfig cfg_;
  sim::Rng rng_;
  std::vector<FaultAction> actions_;
  std::map<net::SiteId, UnitBudget> budgets_;
  sim::SimTime site_outage_free_ = 0;
};

void AppendJsonKV(std::string* out, const char* key, const std::string& value,
                  bool quote, bool trailing_comma = true) {
  *out += "    \"";
  *out += key;
  *out += "\": ";
  if (quote) *out += '"';
  *out += value;
  if (quote) *out += '"';
  if (trailing_comma) *out += ',';
  *out += '\n';
}

}  // namespace

Campaign CompileCampaign(CampaignConfig config) {
  // Template defaults for the deployment shape: byzantine templates need a
  // geo stream (fg > 0) and a pipelined window so the geo-reorder attack
  // has something to reorder; crash/partition templates keep the plain
  // stop-and-wait shape.
  switch (config.schedule) {
    case ScheduleTemplate::kByzantineHeavy:
      config.fg = 1;
      config.pbft_window = std::max<uint64_t>(config.pbft_window, 4);
      config.participant_window =
          std::max<uint64_t>(config.participant_window, 4);
      if (config.reads_per_site == 0) config.reads_per_site = 1;
      break;
    case ScheduleTemplate::kMixed:
      config.fg = 1;
      config.pbft_window = std::max<uint64_t>(config.pbft_window, 2);
      config.participant_window =
          std::max<uint64_t>(config.participant_window, 2);
      break;
    case ScheduleTemplate::kCrashHeavy:
    case ScheduleTemplate::kPartitionHeavy:
      break;
  }
  BP_CHECK(config.num_sites >= 2);
  BP_CHECK(config.horizon > config.start);
  BP_CHECK(config.deadline > config.horizon);
  return Compiler(std::move(config)).Compile();
}

std::string Campaign::ToJson() const {
  std::string out = "{\n  \"config\": {\n";
  AppendJsonKV(&out, "seed", std::to_string(config.seed), false);
  AppendJsonKV(&out, "schedule", ScheduleTemplateName(config.schedule), true);
  AppendJsonKV(&out, "num_sites", std::to_string(config.num_sites), false);
  AppendJsonKV(&out, "fi", std::to_string(config.fi), false);
  AppendJsonKV(&out, "fg", std::to_string(config.fg), false);
  AppendJsonKV(&out, "pbft_window", std::to_string(config.pbft_window),
               false);
  AppendJsonKV(&out, "participant_window",
               std::to_string(config.participant_window), false);
  AppendJsonKV(&out, "adaptive_windows",
               config.adaptive_windows ? "true" : "false", false);
  AppendJsonKV(&out, "rtt_ms", std::to_string(config.rtt_ms), false);
  AppendJsonKV(&out, "start_ms",
               std::to_string(sim::ToMillis(config.start)), false);
  AppendJsonKV(&out, "horizon_ms",
               std::to_string(sim::ToMillis(config.horizon)), false);
  AppendJsonKV(&out, "deadline_ms",
               std::to_string(sim::ToMillis(config.deadline)), false);
  AppendJsonKV(&out, "ops_per_site", std::to_string(config.ops_per_site),
               false);
  AppendJsonKV(&out, "sends_per_site", std::to_string(config.sends_per_site),
               false);
  AppendJsonKV(&out, "reads_per_site", std::to_string(config.reads_per_site),
               false, /*trailing_comma=*/false);
  out += "  },\n  \"actions\": [\n";
  for (size_t i = 0; i < actions.size(); ++i) {
    const FaultAction& a = actions[i];
    out += "    {\"at_ms\": " + std::to_string(sim::ToMillis(a.at));
    out += ", \"type\": \"";
    out += FaultTypeName(a.type);
    out += "\"";
    if (a.site_a >= 0) out += ", \"site_a\": " + std::to_string(a.site_a);
    if (a.site_b >= 0) out += ", \"site_b\": " + std::to_string(a.site_b);
    if (a.node_index >= 0) {
      out += ", \"node_index\": " + std::to_string(a.node_index);
    }
    if (a.probability > 0) {
      out += ", \"probability\": " + std::to_string(a.probability);
    }
    if (a.duration > 0) {
      out += ", \"duration_ms\": " + std::to_string(sim::ToMillis(a.duration));
    }
    out += "}";
    if (i + 1 < actions.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace blockplane::chaos
