// Reference round-based simulation: the straight-line single-world loop
// that the dispatch engine generalises to region shards. One ShardWorld, one
// pending pool, one auction per round, applied in place — no ingestion
// queues, no shard fan-out, no merge barrier. Tests compare the one-shard
// engine (sim/simulator.h's Simulate) against it bit for bit.
//
// Per round: enqueue the orders due by the round clock, inject faults,
// collect the pending pool, run the mechanism on the online vehicles under
// the fault budget, verify, apply the outcome, then advance the world by one
// round. After the horizon, dispatched riders are delivered (movement only,
// capped at 2 h) and the result is finalized with the always-on contracts.

#ifndef AUCTIONRIDE_TESTS_SIM_REFERENCE_H_
#define AUCTIONRIDE_TESTS_SIM_REFERENCE_H_

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "auction/mechanism.h"
#include "auction/verifier.h"
#include "auction/warm_start.h"
#include "common/check.h"
#include "engine/engine.h"
#include "engine/faults.h"
#include "engine/result.h"
#include "engine/world.h"
#include "exec/thread_pool.h"
#include "roadnet/oracle.h"
#include "workload/generator.h"

namespace auctionride {
namespace testutil {

class ReferenceSimulation {
 public:
  /// Single-world options only: one shard, no service-mode budget.
  ReferenceSimulation(const DistanceOracle* oracle, const Workload* workload,
                      const EngineOptions& options)
      : oracle_(oracle),
        workload_(workload),
        options_(options),
        fault_plan_(options.faults) {
    ARIDE_ACHECK(options_.num_shards == 1);
    ARIDE_ACHECK(options_.service_round_budget_ms <= 0);
    if (options_.run_pricing) {
      pricing_pool_ = MakePool(options_.pricing_threads);
    }
    if (options_.dispatch_threads >= 0) {
      dispatch_pool_ = MakePool(options_.dispatch_threads);
    }
    ledger_.resize(workload_->orders.size());
    WorldOptions world_options;
    world_options.round_duration_s = options_.round_duration_s;
    world_options.max_pending_s = options_.max_pending_s;
    world_options.pending_bid_increment = options_.pending_bid_increment;
    world_ = std::make_unique<ShardWorld>(oracle_, &workload_->orders,
                                          &ledger_, world_options,
                                          options_.seed);
    for (const VehicleSpawn& spawn : workload_->vehicles) {
      world_->AddVehicle(spawn);
    }
    warm_enabled_ = options_.faults.round_budget_s > 0;
  }

  SimResult Run() {
    SimResult result;
    result.orders_total = static_cast<int>(workload_->orders.size());
    const std::vector<Order>& orders = workload_->orders;

    Seconds horizon;
    for (const Order& o : orders) {
      horizon = std::max(horizon, o.issue_time_s);
    }
    horizon += options_.max_pending_s + options_.round_duration_s;

    Seconds clock_s;
    std::size_t next_order = 0;  // orders are sorted by issue time
    for (int round = 0; clock_s < horizon; ++round) {
      std::vector<Order> due;
      while (next_order < orders.size() &&
             orders[next_order].issue_time_s <= clock_s) {
        due.push_back(orders[next_order]);
        ++next_order;
      }
      world_->EnqueueBatch(std::move(due));
      if (options_.faults.any()) {
        Apply(world_->InjectFaults(fault_plan_, round, clock_s), &result);
      }
      RunRound(round, clock_s, &result);
      Apply(world_->AdvanceRound(clock_s), &result);
      clock_s += options_.round_duration_s;
    }

    const Seconds drain_cap_s = clock_s + Seconds(7200);
    while (clock_s < drain_cap_s) {
      EffectBatch fx;
      const bool any_busy = world_->AdvanceBusy(clock_s, &fx);
      ApplyEffects(fx, &result);
      clock_s += options_.round_duration_s;
      if (!any_busy) break;
    }

    FinalizeResult(options_.auction, orders, ledger_,
                   world_->DeliveryDistanceSum(), &result);
    return result;
  }

 private:
  static std::unique_ptr<ThreadPool> MakePool(int threads) {
    const int n = threads > 0
                      ? threads
                      : static_cast<int>(std::thread::hardware_concurrency());
    return std::make_unique<ThreadPool>(
        static_cast<std::size_t>(std::max(1, n)));
  }

  // Replays a batch and drops the warm-start hints it invalidates.
  void Apply(const EffectBatch& fx, SimResult* result) {
    ApplyEffects(fx, result);
    if (warm_enabled_) InvalidateWarmStart(fx, &warm_);
  }

  void RunRound(int round, Seconds now_s, SimResult* result) {
    PendingPass pass = world_->CollectPending(now_s);
    Apply(pass.fx, result);
    if (pass.submitted.empty()) return;

    std::vector<std::size_t> online_idx;
    const std::vector<Vehicle> online =
        world_->OnlineSnapshot(now_s, &online_idx);
    if (online.empty()) return;

    AuctionInstance instance;
    instance.orders = &pass.submitted;
    instance.vehicles = &online;
    instance.now_s = now_s;
    instance.oracle = oracle_;
    instance.config = options_.auction;
    instance.warm_start = warm_enabled_ ? &warm_ : nullptr;

    MechanismOptions mech_options;
    mech_options.run_pricing = options_.run_pricing;
    if (options_.faults.round_budget_s > 0) {
      const bool spike = fault_plan_.IsSpikeRound(round);
      if (options_.faults.wall_clock_budget || spike) {
        mech_options.budget.budget_s = options_.faults.round_budget_s;
        mech_options.budget.wall_clock = options_.faults.wall_clock_budget;
        if (spike) {
          mech_options.budget.query_penalty_s =
              options_.faults.spike_query_penalty_s;
        }
      }
    }
    const MechanismOutcome outcome =
        RunMechanism(options_.mechanism, instance, mech_options,
                     pricing_pool_.get(), dispatch_pool_.get());
    if (outcome.tier != DispatchTier::kPrimary) ++result->degraded_rounds;

    if (options_.verify_dispatch) {
      std::vector<Order> deducted = pass.submitted;
      for (Order& o : deducted) {
        o.bid *= (1.0 - options_.auction.charge_ratio);
      }
      AuctionInstance charged = instance;
      charged.orders = &deducted;
      const Status verified = VerifyDispatch(charged, outcome.dispatch);
      ARIDE_ACHECK(verified.ok()) << verified.ToString();
      if (!outcome.payments.empty()) {
        const Status paid =
            VerifyPayments(charged, outcome.dispatch, outcome.payments);
        ARIDE_ACHECK(paid.ok()) << paid.ToString();
      }
    }

    ApplyEffects(world_->ApplyOutcome(outcome.dispatch, outcome.payments,
                                      now_s, online_idx),
                 result);
    if (warm_enabled_) {
      warm_.Clear();
      for (const auto& [order, vehicle] : outcome.dispatch.surviving_pairs) {
        warm_.Note(order, vehicle);
      }
      for (const Assignment& a : outcome.dispatch.assignments) {
        warm_.InvalidateOrder(a.order);
      }
      for (const auto& [veh_idx, plan] : outcome.dispatch.updated_plans) {
        warm_.InvalidateVehicle(online[veh_idx].id);
      }
    }

    result->total_utility += outcome.dispatch.total_utility;
    result->platform_utility += outcome.platform_utility;
    result->requester_utility += outcome.requester_utility;

    RoundRecord record;
    record.time_s = now_s;
    record.pending_orders = static_cast<int>(pass.submitted.size());
    record.online_vehicles = static_cast<int>(online.size());
    record.dispatched = static_cast<int>(outcome.dispatch.assignments.size());
    record.round_utility = outcome.dispatch.total_utility;
    record.dispatch_seconds = outcome.dispatch_seconds;
    record.pricing_seconds = outcome.pricing_seconds;
    record.dispatch_tier = outcome.tier;
    for (int t = 0; t < kDispatchTierCount; ++t) {
      record.dispatched_by_tier[t] = outcome.dispatched_by_tier[t];
    }
    record.truncated = outcome.truncated;
    if (outcome.truncated) ++result->truncated_rounds;
    result->rounds.push_back(record);
  }

  const DistanceOracle* oracle_;
  const Workload* workload_;
  EngineOptions options_;
  FaultPlan fault_plan_;
  std::unique_ptr<ThreadPool> pricing_pool_;
  std::unique_ptr<ThreadPool> dispatch_pool_;
  std::vector<OrderLedgerEntry> ledger_;
  std::unique_ptr<ShardWorld> world_;
  WarmStartCache warm_;
  bool warm_enabled_ = false;
};

}  // namespace testutil
}  // namespace auctionride

#endif  // AUCTIONRIDE_TESTS_SIM_REFERENCE_H_
