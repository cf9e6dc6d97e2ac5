#include "auction/mechanism.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "auction/baselines.h"
#include "auction/dnw.h"
#include "auction/gpri.h"
#include "auction/greedy.h"
#include "common/check.h"
#include "common/timer.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace auctionride {

std::string_view MechanismName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kGreedy:
      return "Greedy+GPri";
    case MechanismKind::kRank:
      return "Rank+DnW";
  }
  return "unknown";
}

namespace {

// Tier sequence of the ladder / quality curve for a primary mechanism.
std::vector<DispatchTier> LadderTiers(MechanismKind kind) {
  std::vector<DispatchTier> tiers = {DispatchTier::kPrimary};
  if (kind == MechanismKind::kRank) {
    tiers.push_back(DispatchTier::kGreedyFallback);
  }
  tiers.push_back(DispatchTier::kFcfsFallback);
  return tiers;
}

}  // namespace

MechanismOutcome RunMechanism(MechanismKind kind,
                              const AuctionInstance& instance,
                              const MechanismOptions& options,
                              ThreadPool* pricing_pool,
                              ThreadPool* dispatch_pool) {
  ARIDE_ACHECK(instance.orders != nullptr);
  const double cr = instance.config.charge_ratio;
  ARIDE_ACHECK(cr >= 0 && cr < 1) << "charge ratio must be in [0, 1)";

  // Deduct the dispatch fee from every bid (§V-C).
  std::vector<Order> deducted = *instance.orders;
  for (Order& o : deducted) o.bid *= (1.0 - cr);
  AuctionInstance charged = instance;
  charged.orders = &deducted;
  if (dispatch_pool != nullptr) charged.dispatch_pool = dispatch_pool;
  OBS_GAUGE_SET("auction.dispatch.pool_threads",
                charged.dispatch_pool != nullptr
                    ? static_cast<double>(charged.dispatch_pool->num_threads())
                    : 0.0);

  // Quality curve (docs/ROBUSTNESS.md): the budgeted tiers share one
  // deadline; a truncated tier keeps its finalized winners and only the
  // unassigned remainder falls through with the residual budget. Without a
  // budget the primary tier runs to completion and is the only tier.
  const DispatchBudget& budget = options.budget;
  Deadline dl = budget.wall_clock
                    ? Deadline::WallClock(budget.budget_s)
                    : Deadline::Synthetic(budget.budget_s,
                                          budget.query_penalty_s);
  Deadline* const round_dl = budget.active() ? &dl : nullptr;
  // Built only when a truncated tier falls through: the remaining orders,
  // and the vehicles with every plan dispatched so far.
  std::vector<Order> residual;
  std::vector<Vehicle> patched;

  MechanismOutcome outcome;
  DispatchResult& merged = outcome.dispatch;
  WallTimer round_timer;
  Seconds pricing_elapsed;
  DispatchTier deepest_ran = DispatchTier::kPrimary;
  const std::vector<DispatchTier> tiers = LadderTiers(kind);
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const DispatchTier tier = tiers[t];
    const bool fcfs = tier == DispatchTier::kFcfsFallback;
    const bool greedy =
        kind == MechanismKind::kGreedy || tier == DispatchTier::kGreedyFallback;
    AuctionInstance sub = charged;
    if (t > 0) {
      sub.orders = &residual;
      sub.vehicles = &patched;
    }
    sub.deadline = fcfs ? nullptr : round_dl;
    deepest_ran = tier;
    DispatchResult tier_result;
    RankArtifacts artifacts;
    {
      OBS_TRACE_SPAN("auction.dispatch");
      if (fcfs) {
        // serve_all=false keeps FCFS inside the mechanism's individual-
        // rationality envelope (only nonnegative-utility pairs dispatch).
        tier_result = FcfsDispatch(sub, /*serve_all=*/false);
      } else if (greedy) {
        tier_result = GreedyDispatch(sub);
      } else {
        RankRunResult run = RankDispatch(sub);
        tier_result = std::move(run.result);
        artifacts = std::move(run.artifacts);
      }
    }
    // Each priced tier is priced before the next tier's plans land: GPri/DnW
    // must see exactly the orders and vehicle plans this tier's dispatch saw.
    // FCFS-tier winners skip pricing: neither GPri nor DnW is defined for an
    // FCFS dispatch, and a degraded round's goal is just to keep serving.
    if (options.run_pricing && !fcfs && !tier_result.assignments.empty()) {
      OBS_TRACE_SPAN("auction.pricing");
      WallTimer pricing_timer;
      AuctionInstance price_in = sub;
      price_in.deadline = nullptr;  // pricing is unbudgeted
      price_in.warm_start = nullptr;
      std::vector<Payment> tier_payments;
      if (greedy) {
        // Greedy-tier winners price with GPri: DnW needs Rank artifacts
        // that a fallback dispatch does not have.
        tier_payments = GPriPriceAll(price_in, tier_result, pricing_pool);
      } else {
        tier_payments =
            DnWPriceAll(price_in, artifacts, tier_result, pricing_pool);
      }
      outcome.payments.insert(outcome.payments.end(), tier_payments.begin(),
                              tier_payments.end());
      pricing_elapsed += Seconds(pricing_timer.ElapsedSeconds());
    }
    if (tier == DispatchTier::kPrimary) {
      outcome.rank_artifacts = std::move(artifacts);
    }
    outcome.dispatched_by_tier[static_cast<int>(tier)] +=
        static_cast<int>(tier_result.assignments.size());
    for (Assignment& a : tier_result.assignments) a.tier = tier;
    const bool complete = tier_result.anytime.complete;
    const std::size_t tier_winners = tier_result.assignments.size();
    if (t == 0) {
      merged = std::move(tier_result);
    } else {
      merged.assignments.insert(merged.assignments.end(),
                                tier_result.assignments.begin(),
                                tier_result.assignments.end());
      merged.total_utility += tier_result.total_utility;
      merged.total_delta_delivery_m += tier_result.total_delta_delivery_m;
      for (auto& [idx, plan] : tier_result.updated_plans) {
        auto it = std::find_if(
            merged.updated_plans.begin(), merged.updated_plans.end(),
            [idx = idx](const auto& entry) { return entry.first == idx; });
        if (it != merged.updated_plans.end()) {
          it->second = std::move(plan);
        } else {
          merged.updated_plans.push_back({idx, std::move(plan)});
        }
      }
      merged.surviving_pairs.insert(merged.surviving_pairs.end(),
                                    tier_result.surviving_pairs.begin(),
                                    tier_result.surviving_pairs.end());
    }
    if (complete) break;  // budget survived the tier

    outcome.truncated = true;
    OBS_COUNTER_ADD("auction.dispatch.anytime.partial_winners",
                    static_cast<int64_t>(tier_winners));
    std::vector<Order> next;
    next.reserve(sub.orders->size());
    for (const Order& o : *sub.orders) {
      if (!merged.IsDispatched(o.id)) next.push_back(o);
    }
    residual = std::move(next);
    OBS_COUNTER_ADD("auction.dispatch.anytime.residual_orders",
                    static_cast<int64_t>(residual.size()));
    if (t == 0) patched = *instance.vehicles;
    for (const auto& [idx, plan] : merged.updated_plans) {
      patched[idx].plan.stops = plan;
    }
    if (residual.empty()) break;
  }
  merged.anytime.complete = !outcome.truncated;
  outcome.dispatch_seconds =
      Seconds(round_timer.ElapsedSeconds()) - pricing_elapsed;
  // Deepest tier that contributed winners — or, when nothing dispatched at
  // all, the deepest tier that ran.
  outcome.tier = deepest_ran;
  for (int t = kDispatchTierCount - 1; t >= 0; --t) {
    if (outcome.dispatched_by_tier[t] > 0) {
      outcome.tier = static_cast<DispatchTier>(t);
      break;
    }
  }
  if (outcome.truncated) {
    OBS_COUNTER_INC("auction.dispatch.anytime.truncated_rounds");
  }
  if (outcome.tier != DispatchTier::kPrimary) {
    OBS_COUNTER_INC("auction.degraded_rounds");
  }
  // Reuse the mechanism's own wall-clock measurements so the telemetry
  // matches what the paper-facing tables report.
  OBS_HISTOGRAM_OBSERVE(
      "auction.dispatch_s",
      outcome.dispatch_seconds.value());  // NOLINT-ARIDE(unsafe-unit-cast)
  OBS_COUNTER_ADD("auction.orders_submitted",
                  static_cast<int64_t>(instance.orders->size()));
  OBS_COUNTER_ADD("auction.assignments",
                  static_cast<int64_t>(outcome.dispatch.assignments.size()));

  if (options.run_pricing && !outcome.payments.empty()) {
    outcome.pricing_seconds = pricing_elapsed;
    OBS_HISTOGRAM_OBSERVE(
        "auction.pricing_s",
        outcome.pricing_seconds.value());  // NOLINT-ARIDE(unsafe-unit-cast)

    std::unordered_map<OrderId, const Order*> by_id;
    for (const Order& o : *instance.orders) by_id[o.id] = &o;
    Money pay_sum;
    Money fee_sum;
    Money val_sum;
    for (const Payment& p : outcome.payments) {
      const Order* original = by_id.at(p.order);
      pay_sum += p.payment;
      fee_sum += cr * original->bid;
      val_sum += original->valuation;
    }
    const MoneyPerMeter beta_per_m{instance.config.beta_d_per_km / 1000.0};
    const Money driver_payout =
        beta_per_m * outcome.dispatch.total_delta_delivery_m;
    outcome.platform_utility = pay_sum + fee_sum - driver_payout;
    outcome.requester_utility = val_sum - pay_sum - fee_sum;
  }
  return outcome;
}

}  // namespace auctionride
