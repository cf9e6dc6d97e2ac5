// Losslessness of the pruned/incremental insertion search.
//
// The pruned BestInsertion must be indistinguishable — bit for bit — from
// the brute-force reference at every level: per order-vehicle pair (same
// feasibility, same ΔD, same plan), per dispatcher (same assignments and
// totals with pruning on vs. off, serial and pooled), and per mechanism
// (same payments). Plus the certificates the pruning rests on: the
// min-detour lower bound must be admissible, and the pruned.* counters must
// reconcile with the attempt counters on every exit path.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "auction/baselines.h"
#include "auction/greedy.h"
#include "auction/matching.h"
#include "auction/mechanism.h"
#include "auction/rank.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "planner/insertion.h"
#include "testutil.h"

namespace auctionride {
namespace {

using testutil::BuildFuzzScenario;
using testutil::FuzzScenario;
using testutil::LatticeNetwork;
using testutil::MakeOrder;
using testutil::MakeVehicle;

// Restores the process-wide pruning toggle on scope exit so test order
// cannot leak state.
class PruningGuard {
 public:
  explicit PruningGuard(bool enabled) : saved_(InsertionPruningEnabled()) {
    SetInsertionPruningEnabled(enabled);
  }
  ~PruningGuard() { SetInsertionPruningEnabled(saved_); }

 private:
  bool saved_;
};

void ExpectSameInsertion(const InsertionResult& pruned,
                         const InsertionResult& ref, std::string_view what) {
  ASSERT_EQ(pruned.feasible, ref.feasible) << what;
  if (!pruned.feasible) return;
  // Bit-identical, not approximately equal: EXPECT_EQ on the typed meters
  // is the raw IEEE comparison.
  EXPECT_EQ(pruned.delta_delivery_m, ref.delta_delivery_m) << what;
  ASSERT_EQ(pruned.new_plan.size(), ref.new_plan.size()) << what;
  for (std::size_t s = 0; s < pruned.new_plan.size(); ++s) {
    EXPECT_EQ(pruned.new_plan[s].node, ref.new_plan[s].node) << what;
    EXPECT_EQ(pruned.new_plan[s].order, ref.new_plan[s].order) << what;
    EXPECT_EQ(pruned.new_plan[s].type, ref.new_plan[s].type) << what;
    EXPECT_EQ(pruned.new_plan[s].deadline_s, ref.new_plan[s].deadline_s)
        << what;
  }
}

void ExpectSameDispatch(const DispatchResult& a, const DispatchResult& b,
                        std::string_view what) {
  ASSERT_EQ(a.assignments.size(), b.assignments.size()) << what;
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].order, b.assignments[i].order) << what;
    EXPECT_EQ(a.assignments[i].vehicle, b.assignments[i].vehicle) << what;
    EXPECT_EQ(a.assignments[i].cost, b.assignments[i].cost) << what;
    EXPECT_EQ(a.assignments[i].utility, b.assignments[i].utility) << what;
  }
  ASSERT_EQ(a.updated_plans.size(), b.updated_plans.size()) << what;
  for (std::size_t i = 0; i < a.updated_plans.size(); ++i) {
    EXPECT_EQ(a.updated_plans[i].first, b.updated_plans[i].first) << what;
    const std::vector<PlanStop>& ap = a.updated_plans[i].second;
    const std::vector<PlanStop>& bp = b.updated_plans[i].second;
    ASSERT_EQ(ap.size(), bp.size()) << what;
    for (std::size_t s = 0; s < ap.size(); ++s) {
      EXPECT_EQ(ap[s].node, bp[s].node) << what;
      EXPECT_EQ(ap[s].order, bp[s].order) << what;
      EXPECT_EQ(ap[s].type, bp[s].type) << what;
      EXPECT_EQ(ap[s].deadline_s, bp[s].deadline_s) << what;
    }
  }
  EXPECT_EQ(a.total_utility, b.total_utility) << what;
  EXPECT_EQ(a.total_delta_delivery_m, b.total_delta_delivery_m) << what;
}

class InsertionPruneProperty : public ::testing::TestWithParam<uint64_t> {};

// Every order-vehicle pair of every fuzz scenario: the pruned search and
// the reference search agree bitwise, and the runtime toggle's "off" path
// really is the reference.
TEST_P(InsertionPruneProperty, PrunedMatchesReferencePerPair) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  for (const Vehicle& v : sc.vehicles) {
    for (const Order& o : sc.orders) {
      const InsertionResult ref =
          BestInsertionReference(v, o, sc.now_s, *sc.oracle);
      {
        PruningGuard on(true);
        ExpectSameInsertion(BestInsertion(v, o, sc.now_s, *sc.oracle), ref,
                            "pruning on");
      }
      {
        PruningGuard off(false);
        ExpectSameInsertion(BestInsertion(v, o, sc.now_s, *sc.oracle), ref,
                            "pruning off");
      }
    }
  }
}

// The geometric certificate: the lower bound never exceeds the road
// distance, on any sampled pair of any fuzz network.
TEST_P(InsertionPruneProperty, LowerBoundIsAdmissible) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  Rng rng(GetParam() * 977 + 5);
  const auto num_nodes = static_cast<uint64_t>(sc.net.num_nodes());
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(num_nodes));
    EXPECT_LE(sc.oracle->LowerBoundDistance(s, t), sc.oracle->Distance(s, t))
        << "seed=" << GetParam() << " s=" << s << " t=" << t;
  }
}

// Dispatcher level: every dispatcher produces identical results with
// pruning on and off, serially and on an 8-thread pool; the end-to-end
// mechanisms produce identical payments.
TEST_P(InsertionPruneProperty, DispatchersIdenticalPruningOnOff) {
  const FuzzScenario sc = BuildFuzzScenario(GetParam());
  const AuctionInstance in = sc.Instance();

  DispatchResult greedy_off, rank_off, matching_off, fcfs_off;
  {
    PruningGuard off(false);
    greedy_off = GreedyDispatch(in);
    rank_off = RankDispatch(in).result;
    matching_off = MatchingDispatch(in);
    fcfs_off = FcfsDispatch(in, /*serve_all=*/false);
  }
  {
    PruningGuard on(true);
    ExpectSameDispatch(GreedyDispatch(in), greedy_off, "greedy");
    ExpectSameDispatch(RankDispatch(in).result, rank_off, "rank");
    ExpectSameDispatch(MatchingDispatch(in), matching_off, "matching");
    ExpectSameDispatch(FcfsDispatch(in, /*serve_all=*/false), fcfs_off,
                       "fcfs");
    ThreadPool pool(8);
    AuctionInstance pooled = sc.Instance();
    pooled.dispatch_pool = &pool;
    ExpectSameDispatch(GreedyDispatch(pooled), greedy_off, "greedy@8");
    ExpectSameDispatch(RankDispatch(pooled).result, rank_off, "rank@8");
  }

  for (MechanismKind kind : {MechanismKind::kGreedy, MechanismKind::kRank}) {
    MechanismOutcome off_outcome;
    {
      PruningGuard off(false);
      off_outcome = RunMechanism(kind, in);
    }
    PruningGuard on(true);
    const MechanismOutcome on_outcome = RunMechanism(kind, in);
    ExpectSameDispatch(on_outcome.dispatch, off_outcome.dispatch,
                       MechanismName(kind));
    ASSERT_EQ(on_outcome.payments.size(), off_outcome.payments.size());
    for (std::size_t i = 0; i < on_outcome.payments.size(); ++i) {
      EXPECT_EQ(on_outcome.payments[i].order, off_outcome.payments[i].order);
      EXPECT_EQ(on_outcome.payments[i].payment,
                off_outcome.payments[i].payment)
          << MechanismName(kind) << " i=" << i;
    }
    EXPECT_EQ(on_outcome.platform_utility, off_outcome.platform_utility);
    EXPECT_EQ(on_outcome.requester_utility, off_outcome.requester_utility);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InsertionPruneProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{30}));

// Deep committed plans (6 stops) with mixed tight/loose deadlines exercise
// the row-break, capacity-prune, and window-prune paths far harder than the
// fuzz scenarios' short plans; sweep pickups across the whole lattice with
// tight through generous patience factors.
TEST(InsertionPruneDeepPlanTest, MatchesReferenceOnDeepPlans) {
  const RoadNetwork net = LatticeNetwork(8, 8, 500);
  const DistanceOracle oracle(&net, DistanceOracle::Backend::kDijkstra);
  const Seconds now{100};

  Vehicle v = MakeVehicle(0, /*node=*/9, /*capacity=*/4);
  v.onboard = 1;
  v.in_delivery = true;
  v.extra_distance_m = Meters(120);
  // Onboard rider headed for node 27 on a snug deadline; two more committed
  // orders, one snug and one loose.
  auto deadline = [&](NodeId from, NodeId to, double slack_factor) {
    return now + Seconds(oracle.Distance(from, to) /
                         oracle.speed_mps().value() * slack_factor) +
           Seconds(600);
  };
  v.plan.stops.push_back(
      {27, testutil::kCommittedBase + 0, StopType::kDropoff,
       deadline(9, 27, 1.6)});
  v.plan.stops.push_back(
      {12, testutil::kCommittedBase + 1, StopType::kPickup, Seconds(0)});
  v.plan.stops.push_back(
      {44, testutil::kCommittedBase + 1, StopType::kDropoff,
       deadline(12, 44, 1.4)});
  v.plan.stops.push_back(
      {50, testutil::kCommittedBase + 2, StopType::kPickup, Seconds(0)});
  v.plan.stops.push_back(
      {63, testutil::kCommittedBase + 2, StopType::kDropoff,
       deadline(50, 63, 3.0)});

  int feasible_seen = 0;
  for (NodeId origin = 0; origin < net.num_nodes(); origin += 5) {
    for (NodeId dest : {NodeId{7}, NodeId{31}, NodeId{56}, NodeId{63}}) {
      if (dest == origin) continue;
      for (double gamma : {1.05, 1.4, 2.5}) {
        const Order o = MakeOrder(500 + origin, origin, dest, 25.0, oracle,
                                  gamma);
        const InsertionResult ref =
            BestInsertionReference(v, o, now, oracle);
        PruningGuard on(true);
        const InsertionResult pruned = BestInsertion(v, o, now, oracle);
        ExpectSameInsertion(pruned, ref, "deep plan");
        if (ref.feasible) ++feasible_seen;
      }
    }
  }
  // The sweep must exercise both outcomes or it proves nothing.
  EXPECT_GT(feasible_seen, 0);
}

// Counter reconciliation on every exit path of BestInsertion.
TEST(InsertionPruneCountersTest, CapacityRejectedCountsSeparately) {
#if defined(ARIDE_OBS_DISABLED)
  GTEST_SKIP() << "registry counters are no-ops with ARIDE_OBS=OFF";
#endif
  const RoadNetwork net = LatticeNetwork(4, 4, 500);
  const DistanceOracle oracle(&net, DistanceOracle::Backend::kDijkstra);
  PruningGuard on(true);
  obs::MetricRegistry::Global().ResetAll();

  Vehicle full = MakeVehicle(0, 0, /*capacity=*/1);
  full.onboard = 1;
  full.in_delivery = true;
  full.plan.stops.push_back({5, testutil::kCommittedBase, StopType::kDropoff,
                             Seconds(1e9)});
  const Order o = MakeOrder(1, 2, 10, 20.0, oracle);
  EXPECT_FALSE(BestInsertion(full, o, Seconds(0), oracle).feasible);

  const auto counters = obs::MetricRegistry::Global().Snapshot().counters;
  const auto at = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(at("planner.insertion.calls"), 1);
  EXPECT_EQ(at("planner.insertion.capacity_rejected"), 1);
  // The early return attempted no candidate: the feasibility-rate
  // numerator and denominator both stay untouched.
  EXPECT_EQ(at("planner.insertion.attempts"), 0);
  EXPECT_EQ(at("planner.insertion.infeasible"), 0);
}

TEST(InsertionPruneCountersTest, WindowPrunePaysZeroQueries) {
#if defined(ARIDE_OBS_DISABLED)
  GTEST_SKIP() << "registry counters are no-ops with ARIDE_OBS=OFF";
#endif
  const RoadNetwork net = LatticeNetwork(8, 8, 1000);
  const DistanceOracle oracle(&net, DistanceOracle::Backend::kDijkstra);
  PruningGuard on(true);
  obs::MetricRegistry::Global().ResetAll();

  // Idle vehicle in one corner, order in the far corner with patience far
  // smaller than the approach time: even the geometric best case misses
  // the deadline, so the call must end without any shortest-path query.
  const Vehicle v = MakeVehicle(0, 0);
  Order o = MakeOrder(1, 63, 56, 20.0, oracle);
  o.max_wasted_time_s = Seconds(1.0);

  const int64_t queries_before = oracle.num_queries();
  EXPECT_FALSE(BestInsertion(v, o, Seconds(0), oracle).feasible);
  EXPECT_EQ(oracle.num_queries(), queries_before);

  const auto counters = obs::MetricRegistry::Global().Snapshot().counters;
  const auto at = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(at("planner.insertion.attempts"), 1);
  EXPECT_EQ(at("planner.insertion.infeasible"), 1);
  EXPECT_EQ(at("planner.insertion.pruned.window"), 1);
  EXPECT_EQ(at("planner.insertion.pruned.candidates"), 1);
}

// Across a full dispatch sweep the pruned.* taxonomy must reconcile:
// candidates = window + capacity + deadline, and no counter can exceed the
// infeasible attempts it is a subset of.
TEST(InsertionPruneCountersTest, TaxonomyReconcilesAcrossDispatch) {
#if defined(ARIDE_OBS_DISABLED)
  GTEST_SKIP() << "registry counters are no-ops with ARIDE_OBS=OFF";
#endif
  PruningGuard on(true);
  obs::MetricRegistry::Global().ResetAll();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzScenario sc = BuildFuzzScenario(seed);
    (void)GreedyDispatch(sc.Instance());
  }
  const auto counters = obs::MetricRegistry::Global().Snapshot().counters;
  const auto at = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(at("planner.insertion.pruned.candidates"),
            at("planner.insertion.pruned.window") +
                at("planner.insertion.pruned.capacity") +
                at("planner.insertion.pruned.deadline"));
  EXPECT_LE(at("planner.insertion.pruned.candidates"),
            at("planner.insertion.infeasible"));
  EXPECT_LE(at("planner.insertion.infeasible"),
            at("planner.insertion.attempts"));
  // The sweep has to actually prune something for this test to bite.
  EXPECT_GT(at("planner.insertion.pruned.candidates"), 0);
}

}  // namespace
}  // namespace auctionride
