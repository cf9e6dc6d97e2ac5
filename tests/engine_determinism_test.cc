// Engine determinism regression (docs/ENGINE.md): a one-shard engine must
// reproduce the single-world reference loop (sim_reference.h) bit-for-bit —
// payments, utilities, dispatch counts, per-round records, events — across a
// seed sweep at any engine thread count, under every fault profile with
// pending bid increments and a platform charge;
// and a multi-shard engine must be bit-identical to itself at 1, 2, and 8
// engine threads (with and without faults, with the rebalancer active).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "sim/simulator.h"
#include "sim_reference.h"
#include "workload/generator.h"

namespace auctionride {
namespace {

class EngineDeterminismTest : public ::testing::Test {
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

  Workload MorningPeakWorkload(uint64_t seed) {
    WorkloadOptions options;
    options.seed = seed;
    options.num_orders = 60;
    options.num_vehicles = 40;
    options.duration_s = Seconds(300);
    options.gamma = 1.8;
    return GenerateWorkload(options, *oracle_, *nearest_);
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
    EXPECT_EQ(a.rounds[r].shard, b.rounds[r].shard) << r;
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

EngineOptions BaseOptions(MechanismKind mechanism, uint64_t seed) {
  EngineOptions options;
  options.mechanism = mechanism;
  options.run_pricing = true;
  options.verify_dispatch = true;
  options.seed = seed;
  return options;
}

TEST_F(EngineDeterminismTest, OneShardEngineMatchesLegacySimulatorSeedSweep) {
  // Totals over the fault sweep, so the pin cannot pass vacuously.
  int truncated = 0;
  int stranded = 0;
  int cancelled = 0;
  int redispatched = 0;
  for (const MechanismKind mechanism :
       {MechanismKind::kRank, MechanismKind::kGreedy}) {
    for (const uint64_t seed : {1u, 7u, 23u}) {
      const Workload workload = MorningPeakWorkload(seed);
      const auto reference_run = [&](const EngineOptions& options) {
        return testutil::ReferenceSimulation(oracle_.get(), &workload, options)
            .Run();
      };

      // Fault-free, at every engine thread count.
      const EngineOptions plain = BaseOptions(mechanism, seed);
      const SimResult reference = reference_run(plain);
      for (const int threads : {1, 8, -1}) {
        EngineOptions options = plain;
        options.engine_threads = threads;
        const SimResult engine = Simulate(oracle_.get(), workload, options);
        SCOPED_TRACE(::testing::Message()
                     << "mechanism=" << static_cast<int>(mechanism)
                     << " seed=" << seed << " threads=" << threads);
        ExpectSameResult(reference, engine);
      }

      // Every fault profile, with pending bid increments and a platform
      // charge.
      for (const FaultProfile profile :
           {FaultProfile::kNone, FaultProfile::kBreakdowns,
            FaultProfile::kCancellations, FaultProfile::kStorm}) {
        EngineOptions options = plain;
        options.pending_bid_increment = Money(0.5);
        options.auction.charge_ratio = 0.2;
        options.faults = FaultOptionsForProfile(profile, seed);
        options.engine_threads = 8;
        const SimResult engine = Simulate(oracle_.get(), workload, options);
        SCOPED_TRACE(::testing::Message()
                     << "mechanism=" << static_cast<int>(mechanism)
                     << " seed=" << seed
                     << " profile=" << FaultProfileName(profile));
        ExpectSameResult(reference_run(options), engine);
        truncated += engine.truncated_rounds;
        stranded += engine.orders_stranded;
        cancelled += engine.orders_cancelled;
        redispatched += engine.orders_redispatched;
      }
    }
  }
  EXPECT_GT(truncated, 0);
  EXPECT_GT(stranded, 0);
  EXPECT_GT(cancelled, 0);
  EXPECT_GT(redispatched, 0);
}

TEST_F(EngineDeterminismTest, MultiShardResultsIdenticalAtAnyThreadCount) {
  EngineOptions options = BaseOptions(MechanismKind::kRank, 7);
  const Workload workload = MorningPeakWorkload(7);

  options.num_shards = 4;
  options.engine_threads = 1;
  const SimResult baseline = Simulate(oracle_.get(), workload, options);
  EXPECT_EQ(baseline.orders_total, 60);
  EXPECT_EQ(baseline.orders_dispatched + baseline.orders_expired, 60);

  for (const int threads : {2, 8, -1}) {
    options.engine_threads = threads;
    const SimResult run = Simulate(oracle_.get(), workload, options);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ExpectSameResult(baseline, run);
  }
}

TEST_F(EngineDeterminismTest, MultiShardStormProfileIsThreadCountInvariant) {
  EngineOptions options = BaseOptions(MechanismKind::kRank, 11);
  options.faults = FaultOptionsForProfile(FaultProfile::kStorm, options.seed);
  const Workload workload = MorningPeakWorkload(11);

  options.num_shards = 4;
  options.rebalance_period_rounds = 2;
  options.engine_threads = 1;
  const SimResult baseline = Simulate(oracle_.get(), workload, options);

  for (const int threads : {2, 8}) {
    options.engine_threads = threads;
    const SimResult run = Simulate(oracle_.get(), workload, options);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ExpectSameResult(baseline, run);
  }
}

}  // namespace
}  // namespace auctionride
