#include "probes.h"

#include <algorithm>
#include <random>
#include <vector>

#include "common/timer.h"
#include "geo/point.h"
#include "planner/insertion.h"
#include "planner/pack_planner.h"

namespace perfbench {
namespace {

using auctionride::DistanceOracle;
using auctionride::NodeId;
using auctionride::Order;
using auctionride::Seconds;
using auctionride::Vehicle;
using auctionride::WallTimer;

constexpr int kDistancePairs = 4000;
constexpr int kHitPasses = 9;
constexpr int kPlansPerDepth = 24;
constexpr int kOrdersPerPlan = 16;
constexpr int kInsertionPasses = 5;
// Orders considered when growing a plan: those issued within this many
// seconds after the plan's first order.
constexpr double kPlanWindowS = 120;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void ProbeDistance(const DistanceOracle& oracle, uint64_t seed,
                   ProbeResults* out) {
  const auto num_nodes = static_cast<NodeId>(oracle.network().num_nodes());
  std::mt19937_64 rng(seed ^ 0x5eedd15ull);
  std::uniform_int_distribution<NodeId> node(0, num_nodes - 1);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(kDistancePairs);
  while (static_cast<int>(pairs.size()) < kDistancePairs) {
    const NodeId s = node(rng);
    const NodeId t = node(rng);
    if (s != t) pairs.emplace_back(s, t);
  }
  // First pass: time each call that missed the memo cache.
  std::vector<double> miss_s;
  double sink = 0;
  for (const auto& [s, t] : pairs) {
    const int64_t hits = oracle.num_cache_hits();
    WallTimer timer;
    sink += oracle.Distance(s, t);
    const double elapsed = timer.ElapsedSeconds();
    if (oracle.num_cache_hits() == hits) miss_s.push_back(elapsed);
  }
  // Later passes hit the cache on every pair.
  std::vector<double> pass_s;
  for (int p = 0; p < kHitPasses; ++p) {
    WallTimer timer;
    for (const auto& [s, t] : pairs) sink += oracle.Distance(s, t);
    pass_s.push_back(timer.ElapsedSeconds());
  }
  out->distance_miss_us = Median(miss_s) * 1e6;
  out->distance_hit_ns = Median(pass_s) / kDistancePairs * 1e9;
  if (sink < 0) out->distance_hit_ns = -1;  // keeps the calls observable
}

struct PlanFixture {
  Vehicle vehicle;
  Seconds now_s;
  std::size_t first = 0;  // catalog index of the plan's first order
  std::vector<const Order*> members;
};

// Grows a plan from an empty vehicle at `first`'s pickup by inserting later
// orders of the catalog while they fit, up to `depth` orders.
PlanFixture GrowPlan(const DistanceOracle& oracle,
                     const std::vector<Order>& orders, std::size_t first,
                     int depth) {
  PlanFixture fx;
  fx.first = first;
  fx.now_s = orders[first].issue_time_s;
  fx.vehicle.id = 0;
  fx.vehicle.next_node = orders[first].origin;
  for (std::size_t j = first;
       j < orders.size() && static_cast<int>(fx.members.size()) < depth &&
       orders[j].issue_time_s <= fx.now_s + Seconds(kPlanWindowS);
       ++j) {
    const auctionride::InsertionResult ins =
        auctionride::BestInsertion(fx.vehicle, orders[j], fx.now_s, oracle);
    if (!ins.feasible) continue;
    fx.vehicle.plan.stops = ins.new_plan;
    fx.members.push_back(&orders[j]);
  }
  return fx;
}

void ProbePlanner(const DistanceOracle& oracle,
                  const std::vector<Order>& orders, uint64_t seed,
                  ProbeResults* out) {
  if (orders.size() < 2) return;
  std::mt19937_64 rng(seed ^ 0x91a7ull);
  std::uniform_int_distribution<std::size_t> pick(0, orders.size() - 1);
  std::vector<PlanFixture> fixtures[kProbeDepths];
  for (int attempt = 0; attempt < 64 * kPlansPerDepth; ++attempt) {
    bool done = true;
    for (const auto& f : fixtures) done = done && f.size() >= kPlansPerDepth;
    if (done) break;
    PlanFixture fx = GrowPlan(oracle, orders, pick(rng), kProbeDepths - 1);
    // Every prefix of a grown plan is a fixture of its own depth.
    const int reached = static_cast<int>(fx.members.size());
    for (int d = 0; d <= reached; ++d) {
      if (static_cast<int>(fixtures[d].size()) >= kPlansPerDepth) continue;
      fixtures[d].push_back(
          d == reached ? fx : GrowPlan(oracle, orders, fx.first, d));
    }
  }

  const auctionride::RoadNetwork& network = oracle.network();
  for (int d = 0; d < kProbeDepths; ++d) {
    // Each plan is probed with the next orders of the catalog whose pickup
    // lies within their straight-line pickup radius of the vehicle: the
    // candidates a dispatcher would actually try.
    std::vector<std::pair<const PlanFixture*, const Order*>> calls;
    for (const PlanFixture& fx : fixtures[d]) {
      const auctionride::Point& at = network.position(fx.vehicle.next_node);
      int found = 0;
      for (std::size_t k = 1; k < orders.size() && found < kOrdersPerPlan;
           ++k) {
        const Order& o = orders[(fx.first + k) % orders.size()];
        const double radius_m =
            auctionride::EuclideanPickupRadiusM(o, oracle).value();
        if (auctionride::EuclideanDistance(at, network.position(o.origin)) <=
            radius_m) {
          calls.emplace_back(&fx, &o);
          ++found;
        }
      }
    }
    if (calls.empty()) continue;
    std::vector<double> pass_s;
    for (int p = 0; p < kInsertionPasses; ++p) {
      WallTimer timer;
      for (const auto& [fx, order] : calls) {
        auctionride::BestInsertion(fx->vehicle, *order, fx->now_s, oracle);
      }
      pass_s.push_back(timer.ElapsedSeconds());
    }
    out->insertion_us[d] =
        Median(pass_s) / static_cast<double>(calls.size()) * 1e6;
  }

  // Two-order packs that are known to fit, planned onto an empty vehicle.
  std::vector<double> pack_s;
  for (const PlanFixture& fx : fixtures[2]) {
    Vehicle empty;
    empty.id = 0;
    empty.next_node = fx.members[0]->origin;
    std::vector<double> reps;
    for (int p = 0; p < kInsertionPasses; ++p) {
      WallTimer timer;
      auctionride::PlanPack(empty, fx.members, fx.now_s, oracle);
      reps.push_back(timer.ElapsedSeconds());
    }
    pack_s.push_back(Median(reps));
  }
  out->plan_pack_us = Median(pack_s) * 1e6;
}

}  // namespace

ProbeResults RunProbes(const DistanceOracle& oracle,
                       const auctionride::Workload& workload, uint64_t seed,
                       Tracer* tracer) {
  ProbeResults out;
  {
    ScopedSpan span(tracer, "probe.roadnet.distance");
    ProbeDistance(oracle, seed, &out);
  }
  {
    ScopedSpan span(tracer, "probe.planner");
    ProbePlanner(oracle, workload.orders, seed, &out);
  }
  return out;
}

}  // namespace perfbench
