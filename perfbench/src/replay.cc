#include "replay.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "roadnet/builder.h"
#include "roadnet/nearest_node.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using auctionride::DistanceOracle;
using auctionride::Engine;
using auctionride::EngineOptions;
using auctionride::NearestNodeIndex;
using auctionride::RoadNetwork;
using auctionride::Seconds;
using auctionride::WallTimer;
using auctionride::Workload;
using auctionride::WorkloadOptions;

constexpr uint64_t kNetworkSeed = 7;
// The demand layout (hotspots, trips, fleet positions) is one fixed city,
// as in examples/morning_peak; the benchmark seed draws the schedule.
// Seeding the layout as well would make each seed a different city, and the
// outcomes of 800-order runs then spread by about half their median.
constexpr uint64_t kLayoutSeed = 42;
constexpr double kRoundPeriodS = 10;

// Registry counters read around the replay. All are plain striped
// counters; the roadnet.sp.* batch counters are deliberately absent — they
// drop each thread's unflushed remainder, so roadnet query counts come from
// the oracle itself.
constexpr const char* kRegistryCounters[] = {
    "roadnet.ch.queries",
    "roadnet.ch.settled_nodes",
    "planner.insertion.calls",
    "planner.insertion.attempts",
    "planner.insertion.feasible",
    "planner.insertion.pruned.candidates",
    "auction.rank.packs_generated",
    "auction.rank.packs_dispatched",
    "auction.rank.packmemo.hits",
    "auction.rank.packmemo.misses",
    "auction.dispatch.seed_pairs",
    "auction.greedy.heap_pops",
    "auction.greedy.stale_pops",
    "auction.dispatch.anytime.truncated_rounds",
    "auction.dispatch.anytime.partial_winners",
    "auction.dispatch.anytime.residual_orders",
    "auction.dnw.priced_orders",
    "auction.gpri.priced_orders",
};

// Counters sampled around every StepRound() of the traced run.
constexpr const char* kPerRoundCounters[] = {
    "oracle.queries",
    "roadnet.ch.queries",
    "planner.insertion.calls",
};

std::map<std::string, int64_t> ReadCounts(const DistanceOracle& oracle) {
  std::map<std::string, int64_t> counts;
  counts["oracle.queries"] = oracle.num_queries();
  counts["oracle.cache_hits"] = oracle.num_cache_hits();
  counts["oracle.trivial_queries"] = oracle.num_trivial_queries();
  auto& registry = auctionride::obs::MetricRegistry::Global();
  for (const char* name : kRegistryCounters) {
    counts[name] = registry.GetCounter(name)->value();
  }
  return counts;
}

std::map<std::string, int64_t> Delta(std::map<std::string, int64_t> after,
                                     const std::map<std::string, int64_t>&
                                         before) {
  for (auto& [name, value] : after) value -= before.at(name);
  return after;
}

// Draws the Poisson arrival schedule from `seed`: given the order count,
// arrival times are i.i.d. uniform over the window. Vehicles that are not
// online from the start come online at a uniform time in the window's first
// half, as GenerateWorkload does. Orders are re-sorted and re-numbered.
void DrawSchedule(uint64_t seed, const WorkloadOptions& wl,
                  Workload* workload) {
  auctionride::Rng rng(seed);
  const double window_s = wl.duration_s.value();
  for (auctionride::Order& o : workload->orders) {
    o.issue_time_s = Seconds(rng.Uniform(0, window_s));
  }
  std::stable_sort(workload->orders.begin(), workload->orders.end(),
                   [](const auctionride::Order& a,
                      const auctionride::Order& b) {
                     return a.issue_time_s < b.issue_time_s;
                   });
  for (std::size_t j = 0; j < workload->orders.size(); ++j) {
    workload->orders[j].id = static_cast<auctionride::OrderId>(j);
  }
  for (auctionride::VehicleSpawn& v : workload->vehicles) {
    v.online_s = rng.Bernoulli(wl.initially_online_fraction)
                     ? Seconds(0)
                     : Seconds(rng.Uniform(0, 0.5 * window_s));
  }
}

// Replays each order's lifecycle events to its end state.
OrderFates ClassifyOrders(const auctionride::SimResult& result) {
  using auctionride::OrderEventKind;
  struct State {
    bool issued = false;
    bool dispatched = false;  // as of the latest event
    bool ever_dispatched = false;
    bool refunded = false;
    bool expired = false;
  };
  std::vector<State> orders(static_cast<std::size_t>(result.orders_total));
  for (const auctionride::OrderEvent& e : result.events) {
    const auto id = static_cast<std::size_t>(e.order);
    if (id >= orders.size()) continue;
    State& s = orders[id];
    switch (e.kind) {
      case OrderEventKind::kIssued:
        s.issued = true;
        break;
      case OrderEventKind::kDispatched:
        s.dispatched = s.ever_dispatched = true;
        break;
      case OrderEventKind::kStranded:
      case OrderEventKind::kCancelled:
        s.dispatched = false;
        s.refunded = true;
        break;
      case OrderEventKind::kExpired:
        s.expired = true;
        break;
      default:
        break;
    }
  }
  OrderFates fates;
  for (const State& s : orders) {
    if (!s.issued || (!s.dispatched && !s.expired)) {
      ++fates.lost;
    } else if (s.dispatched) {
      ++fates.served;
    } else if (s.refunded) {
      ++fates.refunded_unserved;
    } else if (!s.ever_dispatched) {
      ++fates.declined;
    } else {
      ++fates.lost;  // expired after a dispatch that was never refunded
    }
  }
  return fates;
}

struct City {
  std::optional<RoadNetwork> network;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<NearestNodeIndex> nearest;
  Workload workload;
  std::unique_ptr<Engine> engine;
};

EngineOptions MakeOptions(const WorkloadSpec& spec,
                          const ReplayOptions& options) {
  EngineOptions engine;
  engine.mechanism = spec.mechanism;
  engine.auction.alpha_d_per_km = 3.0;
  engine.auction.charge_ratio = spec.charge_ratio;
  engine.round_duration_s = Seconds(kRoundPeriodS);
  engine.run_pricing = true;
  engine.pricing_threads = options.threads;
  engine.dispatch_threads = options.threads;
  engine.engine_threads = options.threads;
  engine.verify_dispatch = options.mode == ReplayMode::kVerified;
  engine.seed = options.seed;
  engine.num_shards = spec.num_shards;
  engine.faults = auctionride::FaultOptionsForProfile(spec.faults,
                                                      options.seed);
  return engine;
}

// Set-up, timed phase by phase (and traced when `tracer` is set).
std::unique_ptr<City> BuildCity(const WorkloadSpec& spec,
                                const ReplayOptions& options,
                                SetupTimes* times) {
  Tracer* tracer = options.tracer;
  ScopedSpan setup_span(tracer, "setup");
  auto city = std::make_unique<City>();
  WallTimer timer;
  {
    ScopedSpan span(tracer, "setup.roadnet.network_build");
    city->network.emplace(auctionride::BuildBeijingLikeNetwork(kNetworkSeed));
  }
  times->network_s = timer.ElapsedSeconds();
  timer.Reset();
  {
    ScopedSpan span(tracer, "setup.roadnet.ch_build");
    city->oracle = std::make_unique<DistanceOracle>(
        &*city->network, DistanceOracle::Backend::kContractionHierarchy);
  }
  times->ch_s = timer.ElapsedSeconds();
  timer.Reset();
  {
    ScopedSpan span(tracer, "setup.roadnet.nearest_index");
    city->nearest = std::make_unique<NearestNodeIndex>(&*city->network, 400);
  }
  times->nearest_s = timer.ElapsedSeconds();
  timer.Reset();
  {
    ScopedSpan span(tracer, "setup.workload.generate");
    WorkloadOptions wl;
    wl.seed = kLayoutSeed;
    wl.num_orders = spec.num_orders;
    wl.num_vehicles = spec.num_vehicles;
    wl.duration_s = Seconds(spec.duration_s);
    wl.gamma = 1.5;
    city->workload = GenerateWorkload(wl, *city->oracle, *city->nearest);
    DrawSchedule(options.seed, wl, &city->workload);
  }
  times->generate_s = timer.ElapsedSeconds();
  timer.Reset();
  {
    ScopedSpan span(tracer, "setup.engine.construct");
    city->engine = std::make_unique<Engine>(
        city->oracle.get(), &city->workload.orders, city->workload.vehicles,
        MakeOptions(spec, options));
  }
  times->construct_s = timer.ElapsedSeconds();
  return city;
}

ReplayRun ReplayInCity(const WorkloadSpec& spec,
                       const ReplayOptions& options) {
  const bool traced = options.mode == ReplayMode::kTraced;
  ARIDE_ACHECK(!traced || options.tracer != nullptr);
  Tracer* tracer = traced ? options.tracer : nullptr;

  ReplayRun run;
  run.round_period_s = kRoundPeriodS;
  std::unique_ptr<City> city = BuildCity(spec, options, &run.setup);
  Engine& engine = *city->engine;
  const std::vector<auctionride::Order>& orders = city->workload.orders;

  Seconds horizon;
  for (const auctionride::Order& o : orders) {
    horizon = std::max(horizon, o.issue_time_s);
  }
  const EngineOptions engine_options = MakeOptions(spec, options);
  horizon += engine_options.max_pending_s + engine_options.round_duration_s;

  const std::map<std::string, int64_t> before = ReadCounts(*city->oracle);
  std::map<std::string, int64_t> round_before = before;
  std::optional<ScopedSpan> replay_span;
  replay_span.emplace(tracer, "replay");
  WallTimer replay_timer;
  std::size_t next = 0;  // orders are sorted by issue time
  int64_t round = 0;
  while (engine.now_s() < horizon) {
    const Seconds now = engine.now_s();
    {
      ScopedSpan span(tracer, "engine.submit_batch", round);
      WallTimer timer;
      while (next < orders.size() && orders[next].issue_time_s <= now) {
        engine.SubmitOrder(orders[next]);
        ++next;
      }
      run.submit_s += timer.ElapsedSeconds();
    }
    {
      ScopedSpan span(tracer, "engine.step_round", round);
      WallTimer timer;
      engine.StepRound();
      run.round_s.push_back(timer.ElapsedSeconds());
    }
    if (traced) {
      const std::map<std::string, int64_t> now_counts =
          ReadCounts(*city->oracle);
      for (const char* name : kPerRoundCounters) {
        tracer->Count(std::string("round.") + name,
                      static_cast<double>(now_counts.at(name) -
                                          round_before.at(name)));
      }
      round_before = now_counts;
    }
    ++round;
  }
  ARIDE_ACHECK(next == orders.size())
      << "orders issued beyond the replay horizon";
  run.submitted = static_cast<int64_t>(next);
  {
    ScopedSpan span(tracer, "engine.drain_deliveries");
    engine.DrainDeliveries();
  }
  {
    ScopedSpan span(tracer, "engine.finish");
    run.result = engine.Finish();
  }
  run.replay_s = replay_timer.ElapsedSeconds();
  replay_span.reset();
  run.stats = engine.stats();
  run.counts = Delta(ReadCounts(*city->oracle), before);

  Fingerprint& fp = run.fingerprint;
  fp.orders_total = run.result.orders_total;
  fp.dispatched = run.result.orders_dispatched;
  fp.expired = run.result.orders_expired;
  fp.auction_utility = run.result.total_utility.value();
  fp.net_payments = run.result.total_payments.value();
  fp.refunds = run.result.refunded_payments.value();
  fp.truncated_rounds = run.result.truncated_rounds;
  for (int t = 0; t < auctionride::kDispatchTierCount; ++t) {
    fp.tiers[t] = run.stats.tier_counts[t];
  }
  run.fates = ClassifyOrders(run.result);

  if (traced) {
    run.probes = RunProbes(*city->oracle, city->workload, options.seed,
                           tracer);
  }
  return run;
}

}  // namespace

std::string Fingerprint::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "orders=%d dispatched=%d expired=%d U_auc=%a net_payments=%a "
                "refunds=%a truncated_rounds=%d tiers=%llu/%llu/%llu",
                orders_total, dispatched, expired, auction_utility,
                net_payments, refunds, truncated_rounds,
                static_cast<unsigned long long>(tiers[0]),
                static_cast<unsigned long long>(tiers[1]),
                static_cast<unsigned long long>(tiers[2]));
  return buf;
}

SetupTimes SetupOnly(const WorkloadSpec& spec, const ReplayOptions& options) {
  ReplayOptions untraced = options;
  untraced.tracer = nullptr;
  SetupTimes times;
  BuildCity(spec, untraced, &times);
  malloc_trim(0);
  return times;
}

ReplayRun Replay(const WorkloadSpec& spec, const ReplayOptions& options) {
  ReplayRun run = ReplayInCity(spec, options);
  malloc_trim(0);
  return run;
}

}  // namespace perfbench
