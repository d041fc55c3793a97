// Chaos engine regression tests (DESIGN.md §10): campaign compilation is
// deterministic and respects the recoverability constraints, campaign JSON
// embeds the config, and the byzantine-leader geo-reorder campaign — the
// attack the quarantine-and-gap-fill defense exists for — no longer stalls
// the participant.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "chaos/campaign.h"
#include "chaos/engine.h"
#include "common/metrics.h"

namespace blockplane::chaos {
namespace {

bool IsByzantine(FaultType t) {
  switch (t) {
    case FaultType::kByzEquivocate:
    case FaultType::kByzSilent:
    case FaultType::kByzBogusVotes:
    case FaultType::kByzWithholdAttest:
    case FaultType::kByzForgeReads:
    case FaultType::kByzReorderGeo:
      return true;
    case FaultType::kCrashNode:
    case FaultType::kRecoverNode:
    case FaultType::kCrashSite:
    case FaultType::kRecoverSite:
    case FaultType::kPartition:
    case FaultType::kHeal:
    case FaultType::kPartitionOneWay:
    case FaultType::kHealOneWay:
    case FaultType::kDropBurst:
    case FaultType::kCorruptBurst:
    case FaultType::kDuplicateBurst:
    case FaultType::kHealAll:
      return false;
  }
  return false;  // unreachable: all enumerators handled above
}

constexpr ScheduleTemplate kAllTemplates[] = {
    ScheduleTemplate::kCrashHeavy,
    ScheduleTemplate::kPartitionHeavy,
    ScheduleTemplate::kByzantineHeavy,
    ScheduleTemplate::kMixed,
};

TEST(ChaosCampaignTest, CompileIsDeterministic) {
  for (ScheduleTemplate t : kAllTemplates) {
    CampaignConfig config;
    config.seed = 77;
    config.schedule = t;
    Campaign a = CompileCampaign(config);
    Campaign b = CompileCampaign(config);
    EXPECT_EQ(a.ToJson(), b.ToJson()) << ScheduleTemplateName(t);
    config.seed = 78;
    Campaign c = CompileCampaign(config);
    EXPECT_NE(a.ToJson(), c.ToJson())
        << ScheduleTemplateName(t) << ": seed must change the schedule";
  }
}

TEST(ChaosCampaignTest, JsonEmbedsConfigAndActions) {
  CampaignConfig config;
  config.seed = 9001;
  config.schedule = ScheduleTemplate::kMixed;
  Campaign campaign = CompileCampaign(config);
  std::string json = campaign.ToJson();
  EXPECT_NE(json.find("\"seed\": 9001"), std::string::npos);
  EXPECT_NE(json.find("\"schedule\": \"mixed\""), std::string::npos);
  EXPECT_NE(json.find("\"actions\""), std::string::npos);
  EXPECT_NE(json.find("heal_all"), std::string::npos);
}

// The compiler's recoverability constraints: at most f_i simultaneously
// faulty nodes per unit, at most one site outage at a time, everything
// healed by the horizon, and a terminal heal-all sweep.
TEST(ChaosCampaignTest, RespectsRecoverabilityConstraints) {
  for (ScheduleTemplate t : kAllTemplates) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      CampaignConfig config;
      config.seed = seed;
      config.schedule = t;
      Campaign campaign = CompileCampaign(config);
      SCOPED_TRACE(std::string(ScheduleTemplateName(t)) + " seed " +
                   std::to_string(seed));

      ASSERT_FALSE(campaign.actions.empty());
      const FaultAction& last = campaign.actions.back();
      EXPECT_EQ(last.type, FaultType::kHealAll);
      EXPECT_EQ(last.at, campaign.config.horizon);

      // Track per-unit faulty sets and the site-outage count over time;
      // actions are sorted by `at`.
      std::map<net::SiteId, std::set<int>> faulty;  // crashed or byzantine
      std::set<net::SiteId> sites_down;
      for (const FaultAction& a : campaign.actions) {
        EXPECT_LE(a.at, campaign.config.horizon);
        if (a.duration > 0) {
          EXPECT_LE(a.at + a.duration, campaign.config.horizon)
              << FaultTypeName(a.type) << " burst must end by the horizon";
        }
        switch (a.type) {
          case FaultType::kCrashNode:
            faulty[a.site_a].insert(a.node_index);
            break;
          case FaultType::kRecoverNode:
            faulty[a.site_a].erase(a.node_index);
            break;
          case FaultType::kCrashSite:
            sites_down.insert(a.site_a);
            break;
          case FaultType::kRecoverSite:
            sites_down.erase(a.site_a);
            break;
          case FaultType::kByzEquivocate:
          case FaultType::kByzSilent:
          case FaultType::kByzBogusVotes:
          case FaultType::kByzWithholdAttest:
          case FaultType::kByzForgeReads:
          case FaultType::kByzReorderGeo:
            ASSERT_TRUE(IsByzantine(a.type));
            faulty[a.site_a].insert(a.node_index);
            break;
          case FaultType::kPartition:
          case FaultType::kHeal:
          case FaultType::kPartitionOneWay:
          case FaultType::kHealOneWay:
          case FaultType::kDropBurst:
          case FaultType::kCorruptBurst:
          case FaultType::kDuplicateBurst:
          case FaultType::kHealAll:
            break;  // link-level faults consume no per-node budget
        }
        for (const auto& [site, nodes] : faulty) {
          EXPECT_LE(static_cast<int>(nodes.size()), campaign.config.fi)
              << "unit " << site << " exceeds its f_i fault budget at "
              << sim::ToMillis(a.at) << " ms";
        }
        EXPECT_LE(sites_down.size(), 1u) << "more than one site down at "
                                         << sim::ToMillis(a.at) << " ms";
      }
      // Everything healed at the end (byzantine roles are permanent by
      // design — the unit masks them — so only crashes must clear).
      EXPECT_TRUE(sites_down.empty());
    }
  }
}

// Dedicated regression for the ROADMAP's geo-reorder hole: a byzantine unit
// leader censors a request while committing later ones, producing
// non-contiguous geo positions. Quarantine-and-gap-fill must (a) keep the
// stream contiguous for downstream consumers and (b) restore liveness well
// before the campaign deadline — before this PR the participant's geo round
// stalled forever.
TEST(ChaosEngineTest, GeoReorderLeaderNoLongerStallsParticipant) {
  CampaignConfig config;
  config.seed = 4242;
  config.schedule = ScheduleTemplate::kByzantineHeavy;  // label only
  config.num_sites = 3;
  config.fi = 1;
  config.fg = 1;
  config.pbft_window = 4;
  config.participant_window = 4;
  config.ops_per_site = 8;
  config.sends_per_site = 0;  // keep site 0's unit log all-API
  config.horizon = sim::Seconds(12);
  config.deadline = sim::Seconds(40);

  Campaign campaign;
  campaign.config = config;
  campaign.actions.push_back(
      {sim::Milliseconds(10), FaultType::kByzReorderGeo, 0, -1, 0});
  campaign.actions.push_back({config.horizon, FaultType::kHealAll});

  RobustnessStats& rs = robustness_stats();
  rs.Reset();
  ChaosReport report = RunCampaign(campaign);
  EXPECT_TRUE(report.ok) << report.ToString() << "\n" << campaign.ToJson();
  EXPECT_TRUE(report.live);
  EXPECT_EQ(report.completions, report.expected_completions);

  // The attack actually fired and the defense actually ran: later positions
  // were quarantined around the censored one, the unit notified the
  // participant, and every quarantined record was eventually released.
  EXPECT_GT(rs.geo_quarantined, 0) << "attack never produced a geo gap";
  EXPECT_EQ(rs.geo_quarantine_released, rs.geo_quarantined);
  EXPECT_GT(rs.geo_gap_notices, 0);
  // Evicting the censoring leader goes through the view-change path.
  EXPECT_GT(rs.viewchange_attempts, 0);
}

// One quick end-to-end campaign per template — the soak test covers many
// seeds; this keeps a cheap always-on sanity check in the default suite.
TEST(ChaosEngineTest, OneCampaignPerTemplateHoldsInvariants) {
  for (ScheduleTemplate t : kAllTemplates) {
    CampaignConfig config;
    config.seed = 7;
    config.schedule = t;
    Campaign campaign = CompileCampaign(config);
    ChaosReport report = RunCampaign(campaign);
    EXPECT_TRUE(report.ok) << ScheduleTemplateName(t) << "\n"
                           << report.ToString() << "\n"
                           << campaign.ToJson();
  }
}

// Every cross-site proof is a quorum certificate (DESIGN.md §14): safety
// invariants I1–I4 and liveness must hold under every fault template, and
// the campaigns must actually exercise the cert path (certs built, repeat
// verifications elided through the cache). A second seed per template, so
// the two always-on checks do not replay the same campaigns.
TEST(ChaosEngineTest, QuorumCertsHoldInvariantsUnderEveryTemplate) {
  for (ScheduleTemplate t : kAllTemplates) {
    CampaignConfig config;
    config.seed = 11;
    config.schedule = t;
    Campaign campaign = CompileCampaign(config);
    qc_stats().Reset();
    ChaosReport report = RunCampaign(campaign);
    EXPECT_TRUE(report.ok) << ScheduleTemplateName(t) << "\n"
                           << report.ToString() << "\n"
                           << campaign.ToJson();
    EXPECT_GT(qc_stats().certs_built, 0) << ScheduleTemplateName(t);
    EXPECT_GT(qc_stats().verifies_elided, 0) << ScheduleTemplateName(t);
  }
  qc_stats().Reset();
}

}  // namespace
}  // namespace blockplane::chaos
