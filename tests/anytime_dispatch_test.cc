// Anytime dispatch contract tests (docs/ROBUSTNESS.md "quality curve"):
// budget expiry must finalize best-so-far winners at deterministic cut
// points (bit-identical at any thread count), truncated runs must dispatch
// at least as many orders as the retired cliff did on the same seed (pinned
// floors), fault-free runs must never truncate or degrade, and the
// verifier/conservation contracts must hold on truncated rounds. Plus
// WarmStartCache unit behavior.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "auction/warm_start.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace auctionride {
namespace {

class AnytimeDispatchTest : public ::testing::Test {
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

  SimResult RunOnce(const EngineOptions& options, int orders = 60,
                    int vehicles = 25, uint64_t wl_seed = 11) {
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
  options.verify_dispatch = true;  // verifier contracts on every round
  options.seed = 7;
  return options;
}

// A storm tuned so the synthetic budget expires mid-sweep on spike rounds:
// the per-query penalty is small enough that the first few batches complete
// (keeping partial winners) but large enough that a full round does not fit.
EngineOptions TruncatingStorm(MechanismKind mechanism) {
  EngineOptions options = BaseOptions(mechanism);
  options.faults = FaultOptionsForProfile(FaultProfile::kStorm, options.seed);
  options.faults.spike_prob_per_round = 1.0;
  options.faults.spike_query_penalty_s = 2e-3;
  options.faults.round_budget_s = 0.5;
  return options;
}

TEST_F(AnytimeDispatchTest, WarmStartCacheNotesAndInvalidates) {
  WarmStartCache cache;
  EXPECT_EQ(cache.order_count(), 0u);
  EXPECT_FALSE(cache.HasHints(1));

  // First writers win; distinct vehicles only, capped at kMaxHintsPerOrder.
  for (VehicleId v = 10; v < 20; ++v) cache.Note(1, v);
  cache.Note(1, 10);  // duplicate
  EXPECT_TRUE(cache.HasHints(1));
  EXPECT_EQ(cache.hint_count(1), WarmStartCache::kMaxHintsPerOrder);

  cache.Note(2, 10);
  cache.Note(2, 11);
  EXPECT_EQ(cache.order_count(), 2u);

  // Invalidating a vehicle removes it from every order's list and drops
  // orders whose lists empty out.
  cache.InvalidateVehicle(10);
  EXPECT_EQ(cache.hint_count(1), WarmStartCache::kMaxHintsPerOrder - 1);
  EXPECT_EQ(cache.hint_count(2), 1u);
  cache.InvalidateVehicle(11);
  EXPECT_FALSE(cache.HasHints(2));
  EXPECT_EQ(cache.order_count(), 1u);

  cache.InvalidateOrder(1);
  EXPECT_FALSE(cache.HasHints(1));
  EXPECT_EQ(cache.order_count(), 0u);

  cache.Note(3, 5);
  cache.Clear();
  EXPECT_EQ(cache.order_count(), 0u);
}

TEST_F(AnytimeDispatchTest, ForcedTruncationKeepsPartialWinners) {
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    SCOPED_TRACE(std::string(MechanismName(mechanism)));
    const SimResult result = RunOnce(TruncatingStorm(mechanism));
    // Budgets actually bit: some rounds were cut mid-dispatch...
    EXPECT_GT(result.truncated_rounds, 0);
    // ...and the cut rounds still kept winners from the budgeted (priced)
    // tiers — the anytime contract, not the all-or-nothing cliff.
    int partial_winners = 0;
    for (const RoundRecord& r : result.rounds) {
      if (r.truncated) {
        partial_winners += r.dispatched_by_tier[0] + r.dispatched_by_tier[1];
      }
    }
    EXPECT_GT(partial_winners, 0);
    // Lifecycle accounting still closes (verify_dispatch + the always-on
    // conservation contract already aborted on any violation).
    EXPECT_EQ(result.orders_dispatched + result.orders_expired,
              result.orders_total);
    EXPECT_GE(result.refunded_payments, Money(0));
  }
}

TEST_F(AnytimeDispatchTest, TruncationIsBitIdenticalAcrossThreadCounts) {
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    SCOPED_TRACE(std::string(MechanismName(mechanism)));
    EngineOptions serial = TruncatingStorm(mechanism);
    serial.dispatch_threads = -1;
    EngineOptions threaded = serial;
    threaded.dispatch_threads = 8;
    const SimResult a = RunOnce(serial);
    const SimResult b = RunOnce(threaded);
    EXPECT_GT(a.truncated_rounds, 0);
    ExpectSameResult(a, b);
  }
}

TEST_F(AnytimeDispatchTest, AnytimeDispatchesAtLeastAsManyAsCliff) {
  // Pinned floors: the dispatch counts of the retired all-or-nothing cliff
  // (an expired tier discarded wholly, the next tier restarted with a fresh
  // budget) on this storm. Best-so-far truncation must never fall below
  // them; it dispatched 28 (Rank) and 26 (Greedy) when they were recorded.
  const struct {
    MechanismKind mechanism;
    int cliff_dispatched;
  } kCases[] = {{MechanismKind::kRank, 25}, {MechanismKind::kGreedy, 22}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(std::string(MechanismName(c.mechanism)));
    const SimResult a = RunOnce(TruncatingStorm(c.mechanism));
    EXPECT_GT(a.truncated_rounds, 0);
    EXPECT_GE(a.orders_dispatched, c.cliff_dispatched);
  }
}

TEST_F(AnytimeDispatchTest, FaultFreeRunsNeverTruncateOrDegrade) {
  // Without a budget there is nothing to truncate: every round is decided
  // by the primary tier alone.
  const SimResult a = RunOnce(BaseOptions(MechanismKind::kRank));
  EXPECT_EQ(a.truncated_rounds, 0);
  EXPECT_EQ(a.degraded_rounds, 0);
}

TEST_F(AnytimeDispatchTest, WarmStartSurvivesFaultChurn) {
  // Breakdowns + cancellations churn the warm cache (stranded vehicles and
  // withdrawn orders invalidate hints); determinism must hold regardless.
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    SCOPED_TRACE(std::string(MechanismName(mechanism)));
    EngineOptions serial = TruncatingStorm(mechanism);
    serial.faults.breakdown_prob_per_round = 0.05;
    serial.faults.cancel_prob_per_round = 0.3;
    serial.dispatch_threads = -1;
    EngineOptions threaded = serial;
    threaded.dispatch_threads = 8;
    const SimResult a = RunOnce(serial);
    const SimResult b = RunOnce(threaded);
    EXPECT_GT(a.orders_stranded + a.orders_cancelled, 0);
    ExpectSameResult(a, b);
  }
}

}  // namespace
}  // namespace auctionride
