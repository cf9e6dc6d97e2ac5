// Fault-injection determinism and conservation tests (docs/ROBUSTNESS.md):
// the same seed + profile must produce bit-identical simulation reports at
// any dispatch thread count, the "none" profile must be bit-identical to a
// run without fault support, refunds must conserve money across a seed
// sweep, and the degradation ladder must actually degrade under synthetic
// latency spikes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace auctionride {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridNetworkOptions options;
    options.columns = 15;
    options.rows = 15;
    options.spacing_m = 600;
    options.seed = 4;
    net_ = BuildGridNetwork(options);
    oracle_ = std::make_unique<DistanceOracle>(
        &net_, DistanceOracle::Backend::kContractionHierarchy);
    nearest_ = std::make_unique<NearestNodeIndex>(&net_, 600);
  }

  Workload SmallWorkload(int orders, int vehicles, uint64_t seed = 11) {
    WorkloadOptions options;
    options.seed = seed;
    options.num_orders = orders;
    options.num_vehicles = vehicles;
    options.duration_s = Seconds(300);
    options.gamma = 1.8;
    return GenerateWorkload(options, *oracle_, *nearest_);
  }

  SimResult RunOnce(const EngineOptions& options, int orders = 40,
                    int vehicles = 30, uint64_t wl_seed = 11) {
    return Simulate(oracle_.get(), SmallWorkload(orders, vehicles, wl_seed),
                    options);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<NearestNodeIndex> nearest_;
};

// Asserts bit-identity of everything except wall-clock timing fields.
void ExpectSameResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_utility, b.total_utility);
  EXPECT_EQ(a.platform_utility, b.platform_utility);
  EXPECT_EQ(a.requester_utility, b.requester_utility);
  EXPECT_EQ(a.total_payments, b.total_payments);
  EXPECT_EQ(a.orders_total, b.orders_total);
  EXPECT_EQ(a.orders_dispatched, b.orders_dispatched);
  EXPECT_EQ(a.orders_expired, b.orders_expired);
  EXPECT_EQ(a.orders_completed, b.orders_completed);
  EXPECT_EQ(a.orders_stranded, b.orders_stranded);
  EXPECT_EQ(a.orders_cancelled, b.orders_cancelled);
  EXPECT_EQ(a.orders_redispatched, b.orders_redispatched);
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  EXPECT_EQ(a.truncated_rounds, b.truncated_rounds);
  EXPECT_EQ(a.refunded_payments, b.refunded_payments);
  EXPECT_EQ(a.total_delivery_m, b.total_delivery_m);
  EXPECT_EQ(a.driver_utility, b.driver_utility);
  EXPECT_EQ(a.mean_waiting_s, b.mean_waiting_s);
  EXPECT_EQ(a.mean_detour_s, b.mean_detour_s);
  EXPECT_EQ(a.shared_ride_fraction, b.shared_ride_fraction);
  EXPECT_EQ(a.max_wasted_time_violation_s, b.max_wasted_time_violation_s);

  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].time_s, b.rounds[r].time_s) << r;
    EXPECT_EQ(a.rounds[r].pending_orders, b.rounds[r].pending_orders) << r;
    EXPECT_EQ(a.rounds[r].online_vehicles, b.rounds[r].online_vehicles) << r;
    EXPECT_EQ(a.rounds[r].dispatched, b.rounds[r].dispatched) << r;
    EXPECT_EQ(a.rounds[r].round_utility, b.rounds[r].round_utility) << r;
    EXPECT_EQ(a.rounds[r].dispatch_tier, b.rounds[r].dispatch_tier) << r;
    EXPECT_EQ(a.rounds[r].truncated, b.rounds[r].truncated) << r;
    for (int t = 0; t < kDispatchTierCount; ++t) {
      EXPECT_EQ(a.rounds[r].dispatched_by_tier[t],
                b.rounds[r].dispatched_by_tier[t])
          << r << " tier " << t;
    }
    // dispatch_seconds / pricing_seconds are wall time — excluded.
  }

  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t e = 0; e < a.events.size(); ++e) {
    EXPECT_EQ(a.events[e].time_s, b.events[e].time_s) << e;
    EXPECT_EQ(a.events[e].order, b.events[e].order) << e;
    EXPECT_EQ(a.events[e].kind, b.events[e].kind) << e;
    EXPECT_EQ(a.events[e].vehicle, b.events[e].vehicle) << e;
  }
}

EngineOptions BaseOptions(MechanismKind mechanism) {
  EngineOptions options;
  options.mechanism = mechanism;
  options.run_pricing = true;
  options.verify_dispatch = true;
  options.seed = 7;
  return options;
}

TEST_F(FaultInjectionTest, NoneProfileMatchesFaultFreeRun) {
  EngineOptions plain = BaseOptions(MechanismKind::kRank);
  EngineOptions none = plain;
  none.faults = FaultOptionsForProfile(FaultProfile::kNone, plain.seed);
  const SimResult a = RunOnce(plain);
  const SimResult b = RunOnce(none);
  ExpectSameResult(a, b);
  EXPECT_EQ(b.orders_stranded, 0);
  EXPECT_EQ(b.orders_cancelled, 0);
  EXPECT_EQ(b.refunded_payments, Money(0));
  EXPECT_EQ(b.degraded_rounds, 0);
}

TEST_F(FaultInjectionTest, ProfilesAreBitIdenticalAcrossThreadCounts) {
  for (const FaultProfile profile :
       {FaultProfile::kBreakdowns, FaultProfile::kCancellations,
        FaultProfile::kStorm}) {
    for (const MechanismKind mechanism :
         {MechanismKind::kGreedy, MechanismKind::kRank}) {
      EngineOptions serial = BaseOptions(mechanism);
      serial.faults = FaultOptionsForProfile(profile, serial.seed);
      serial.dispatch_threads = -1;
      EngineOptions threaded = serial;
      threaded.dispatch_threads = 8;
      const SimResult a = RunOnce(serial);
      const SimResult b = RunOnce(threaded);
      SCOPED_TRACE(std::string(FaultProfileName(profile)) + " / " +
                   std::string(MechanismName(mechanism)));
      ExpectSameResult(a, b);
    }
  }
}

TEST_F(FaultInjectionTest, SameSeedReproducesFaultSchedule) {
  EngineOptions options = BaseOptions(MechanismKind::kGreedy);
  options.faults = FaultOptionsForProfile(FaultProfile::kStorm, options.seed);
  const SimResult a = RunOnce(options);
  const SimResult b = RunOnce(options);
  ExpectSameResult(a, b);
}

TEST_F(FaultInjectionTest, StormInjectsAndRecovers) {
  // Boost the rates so a small run reliably exercises every fault path.
  EngineOptions options = BaseOptions(MechanismKind::kRank);
  options.faults = FaultOptionsForProfile(FaultProfile::kStorm, options.seed);
  options.faults.breakdown_prob_per_round = 0.05;
  options.faults.cancel_prob_per_round = 0.3;
  const SimResult result = RunOnce(options, /*orders=*/60, /*vehicles=*/40);
  EXPECT_GT(result.orders_stranded + result.orders_cancelled, 0);
  // Net accounting still holds: every order ends the run in exactly one
  // terminal state.
  EXPECT_EQ(result.orders_dispatched + result.orders_expired,
            result.orders_total);
  EXPECT_GE(result.refunded_payments, Money(0));
  // Recovery happened for at least some victims (re-dispatch or expiry both
  // count as resolution; re-dispatches should appear at these rates).
  EXPECT_GT(result.orders_redispatched, 0);
}

TEST_F(FaultInjectionTest, RefundsConserveMoneyAcrossSeeds) {
  // The always-on conservation contract inside Engine::Finish() aborts on
  // any ledger mismatch; surviving a seed sweep with faults + pricing on is
  // the assertion. Spot-check the aggregates are sane on top.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EngineOptions options = BaseOptions(seed % 2 == 0 ? MechanismKind::kGreedy
                                                   : MechanismKind::kRank);
    options.seed = seed;
    options.faults =
        FaultOptionsForProfile(FaultProfile::kStorm, /*seed=*/seed);
    options.faults.cancel_prob_per_round = 0.2;
    options.faults.breakdown_prob_per_round = 0.02;
    const SimResult result =
        RunOnce(options, /*orders=*/40, /*vehicles=*/30, /*wl_seed=*/seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GE(result.total_payments, Money(0));
    EXPECT_GE(result.refunded_payments, Money(0));
    EXPECT_GE(result.orders_dispatched, 0);
  }
}

TEST_F(FaultInjectionTest, SpikesDriveTheDegradationLadder) {
  // Spike every round with a huge per-query penalty and a tiny budget: Rank
  // and Greedy must fall back (ultimately to FCFS) instead of blowing the
  // budget, and the degraded rounds must be counted.
  EngineOptions options = BaseOptions(MechanismKind::kRank);
  options.faults = FaultOptionsForProfile(FaultProfile::kStorm, options.seed);
  options.faults.breakdown_prob_per_round = 0;
  options.faults.cancel_prob_per_round = 0;
  options.faults.spike_prob_per_round = 1.0;
  options.faults.spike_query_penalty_s = 1.0;  // one query busts the budget
  options.faults.round_budget_s = 0.5;
  const SimResult result = RunOnce(options);
  EXPECT_GT(result.degraded_rounds, 0);
  int fcfs_rounds = 0;
  for (const RoundRecord& r : result.rounds) {
    if (r.dispatch_tier == DispatchTier::kFcfsFallback) ++fcfs_rounds;
  }
  EXPECT_GT(fcfs_rounds, 0);
  // FCFS rounds carry no payments but dispatch still verifies; utility can
  // be anything nonnegative per round.
  EXPECT_EQ(result.orders_dispatched + result.orders_expired,
            result.orders_total);
}

TEST_F(FaultInjectionTest, GenerousBudgetStaysOnPrimaryTier) {
  // Spikes with a big budget and a tiny penalty must not degrade anything,
  // and must not change the dispatch outcome at all.
  EngineOptions plain = BaseOptions(MechanismKind::kRank);
  EngineOptions spiky = plain;
  spiky.faults = FaultOptionsForProfile(FaultProfile::kStorm, plain.seed);
  spiky.faults.breakdown_prob_per_round = 0;
  spiky.faults.cancel_prob_per_round = 0;
  spiky.faults.spike_prob_per_round = 1.0;
  spiky.faults.spike_query_penalty_s = 1e-9;
  spiky.faults.round_budget_s = 1e6;
  const SimResult a = RunOnce(plain);
  const SimResult b = RunOnce(spiky);
  EXPECT_EQ(b.degraded_rounds, 0);
  ExpectSameResult(a, b);
}

TEST_F(FaultInjectionTest, SummaryMentionsFaultsOnlyWhenPresent) {
  EngineOptions plain = BaseOptions(MechanismKind::kGreedy);
  const SimResult fault_free = RunOnce(plain);
  EXPECT_EQ(FormatSummary(fault_free).find("faults:"), std::string::npos);

  EngineOptions faulty = plain;
  faulty.faults =
      FaultOptionsForProfile(FaultProfile::kCancellations, plain.seed);
  faulty.faults.cancel_prob_per_round = 0.3;
  const SimResult with_faults =
      RunOnce(faulty, /*orders=*/60, /*vehicles=*/40);
  ASSERT_GT(with_faults.orders_cancelled, 0);
  EXPECT_NE(FormatSummary(with_faults).find("faults:"), std::string::npos);
}

TEST_F(FaultInjectionTest, ParseFaultProfileRoundTrips) {
  for (const FaultProfile profile :
       {FaultProfile::kNone, FaultProfile::kBreakdowns,
        FaultProfile::kCancellations, FaultProfile::kStorm}) {
    FaultProfile parsed = FaultProfile::kNone;
    ASSERT_TRUE(ParseFaultProfile(FaultProfileName(profile), &parsed));
    EXPECT_EQ(parsed, profile);
  }
  FaultProfile unused = FaultProfile::kNone;
  EXPECT_FALSE(ParseFaultProfile("hurricane", &unused));
}

}  // namespace
}  // namespace auctionride
