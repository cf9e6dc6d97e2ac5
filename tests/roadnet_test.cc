#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "ch_reference.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "roadnet/astar.h"
#include "roadnet/builder.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/dijkstra.h"
#include "roadnet/distance_memo.h"
#include "roadnet/graph.h"
#include "roadnet/nearest_node.h"
#include "roadnet/oracle.h"
#include "obs/metrics.h"
#include "testutil.h"

namespace auctionride {
namespace {

using NodePairs = std::vector<std::pair<NodeId, NodeId>>;

NodePairs AllOrderedPairs(const RoadNetwork& net) {
  NodePairs pairs;
  for (NodeId s = 0; s < net.num_nodes(); ++s) {
    for (NodeId t = 0; t < net.num_nodes(); ++t) pairs.emplace_back(s, t);
  }
  return pairs;
}

// The production query must return the reference query's double bit for
// bit: stall-on-demand and the rank-ordered layout prune work, never change
// a distance.
void ExpectBitwiseEqualToReference(const RoadNetwork& net,
                                   const NodePairs& pairs) {
  ContractionHierarchy ch(&net);
  ContractionHierarchy::Query query(&ch);
  testutil::ReferenceChQuery reference(&ch);
  int64_t mismatches = 0;
  for (const auto& [s, t] : pairs) {
    const double got = query.ShortestDistance(s, t);
    const double want = reference.ShortestDistance(s, t);
    if (std::memcmp(&got, &want, sizeof got) != 0 && mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch: s=" << s << " t=" << t
                    << " got=" << got << " want=" << want;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << pairs.size() << " pairs";
}

TEST(RoadNetworkTest, BuildAndAdjacency) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({100, 0});
  const NodeId c = net.AddNode({200, 0});
  net.AddEdge(a, b, 100);
  net.AddEdge(b, c, 120);
  net.AddEdge(c, a, 250);
  net.Build();

  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_EQ(net.num_edges(), 3);
  ASSERT_EQ(net.OutArcs(a).size(), 1u);
  EXPECT_EQ(net.OutArcs(a)[0].head, b);
  EXPECT_DOUBLE_EQ(net.OutArcs(a)[0].length_m, 100);
  ASSERT_EQ(net.InArcs(a).size(), 1u);
  EXPECT_EQ(net.InArcs(a)[0].head, c);
}

TEST(RoadNetworkTest, StrongConnectivityDetection) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({1, 0});
  net.AddEdge(a, b, 1);  // one-way: not strongly connected
  net.Build();
  EXPECT_FALSE(net.IsStronglyConnected());

  RoadNetwork net2 = testutil::LineNetwork(5);
  EXPECT_TRUE(net2.IsStronglyConnected());
}

TEST(RoadNetworkTest, ComputeBounds) {
  RoadNetwork net = testutil::LatticeNetwork(3, 2, 500);
  const BoundingBox box = net.ComputeBounds();
  EXPECT_DOUBLE_EQ(box.min.x, 0);
  EXPECT_DOUBLE_EQ(box.max.x, 1000);
  EXPECT_DOUBLE_EQ(box.max.y, 500);
}

TEST(DijkstraTest, LineDistances) {
  RoadNetwork net = testutil::LineNetwork(10, 250);
  DijkstraSearch search(&net);
  EXPECT_DOUBLE_EQ(search.ShortestDistance(0, 9), 9 * 250);
  EXPECT_DOUBLE_EQ(search.ShortestDistance(9, 0), 9 * 250);
  EXPECT_DOUBLE_EQ(search.ShortestDistance(4, 4), 0);
}

TEST(DijkstraTest, LatticeIsManhattan) {
  RoadNetwork net = testutil::LatticeNetwork(6, 6, 100);
  DijkstraSearch search(&net);
  // (0,0) -> (5,5): 10 hops of 100 m.
  EXPECT_DOUBLE_EQ(search.ShortestDistance(0, 35), 1000);
}

TEST(DijkstraTest, PathEndpointsAndLength) {
  RoadNetwork net = testutil::LatticeNetwork(5, 5, 100);
  DijkstraSearch search(&net);
  const std::vector<NodeId> path = search.ShortestPath(0, 24);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 24);
  EXPECT_EQ(path.size(), 9u);  // 8 hops
}

TEST(DijkstraTest, UnreachableReturnsInfinity) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({1, 1});
  net.Build();
  DijkstraSearch search(&net);
  EXPECT_EQ(search.ShortestDistance(0, 1), kInfDistance);
  EXPECT_TRUE(search.ShortestPath(0, 1).empty());
}

TEST(DijkstraTest, DistancesWithinRadius) {
  RoadNetwork net = testutil::LineNetwork(10, 100);
  DijkstraSearch search(&net);
  const std::vector<double>& dist = search.DistancesWithin(0, 350);
  EXPECT_DOUBLE_EQ(dist[0], 0);
  EXPECT_DOUBLE_EQ(dist[3], 300);
  EXPECT_EQ(dist[7], kInfDistance);
}

TEST(DijkstraTest, ReverseDistancesWithinMatchesForwardQueries) {
  // Build a genuinely directed graph: ring + chords.
  RoadNetwork net;
  for (int i = 0; i < 10; ++i) net.AddNode({i * 100.0, 0});
  for (int i = 0; i < 10; ++i) net.AddEdge(i, (i + 1) % 10, 100);
  net.AddEdge(3, 0, 50);
  net.AddEdge(7, 2, 80);
  net.Build();
  DijkstraSearch search(&net);
  DijkstraSearch reference(&net);
  const std::vector<double> to_target =
      search.ReverseDistancesWithin(2, 1e9);
  for (NodeId x = 0; x < net.num_nodes(); ++x) {
    EXPECT_NEAR(to_target[static_cast<std::size_t>(x)],
                reference.ShortestDistance(x, 2), 1e-9)
        << "x=" << x;
  }
}

TEST(DijkstraTest, ReverseDistancesRespectRadius) {
  RoadNetwork net = testutil::LineNetwork(10, 100);
  DijkstraSearch search(&net);
  const std::vector<double>& dist = search.ReverseDistancesWithin(5, 250);
  EXPECT_DOUBLE_EQ(dist[5], 0);
  EXPECT_DOUBLE_EQ(dist[3], 200);
  EXPECT_EQ(dist[0], kInfDistance);  // 500 m > radius
}

TEST(BidirectionalDijkstraTest, MatchesUnidirectional) {
  GridNetworkOptions options;
  options.columns = 12;
  options.rows = 12;
  options.spacing_m = 200;
  options.seed = 3;
  RoadNetwork net = BuildGridNetwork(options);
  DijkstraSearch reference(&net);
  BidirectionalDijkstra bidi(&net);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    EXPECT_NEAR(bidi.ShortestDistance(s, t), reference.ShortestDistance(s, t),
                1e-6);
  }
}

// Property sweep: contraction hierarchies must reproduce Dijkstra exactly on
// randomized grid networks of varying size and irregularity.
struct ChCase {
  int columns;
  int rows;
  double removal;
  uint64_t seed;
};

class ContractionHierarchyPropertyTest
    : public ::testing::TestWithParam<ChCase> {};

RoadNetwork PropertyCaseNetwork(const ChCase& c) {
  GridNetworkOptions options;
  options.columns = c.columns;
  options.rows = c.rows;
  options.spacing_m = 300;
  options.removal_fraction = c.removal;
  options.seed = c.seed;
  return BuildGridNetwork(options);
}

TEST_P(ContractionHierarchyPropertyTest, MatchesDijkstra) {
  const ChCase& c = GetParam();
  RoadNetwork net = PropertyCaseNetwork(c);
  ContractionHierarchy ch(&net);
  ContractionHierarchy::Query query(&ch);
  DijkstraSearch reference(&net);
  Rng rng(c.seed * 7 + 1);
  for (int i = 0; i < 150; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    ASSERT_NEAR(query.ShortestDistance(s, t),
                reference.ShortestDistance(s, t), 1e-6)
        << "s=" << s << " t=" << t;
  }
}

TEST_P(ContractionHierarchyPropertyTest, BitwiseEqualsReferenceOnAllPairs) {
  const RoadNetwork net = PropertyCaseNetwork(GetParam());
  ExpectBitwiseEqualToReference(net, AllOrderedPairs(net));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractionHierarchyPropertyTest,
    ::testing::Values(ChCase{6, 6, 0.0, 1}, ChCase{10, 10, 0.1, 2},
                      ChCase{14, 9, 0.2, 3}, ChCase{20, 20, 0.1, 4},
                      ChCase{25, 12, 0.15, 5}));

// Directed correctness: lattices with extra one-way arcs make distances
// asymmetric; CH must still match Dijkstra in both directions.
class ContractionHierarchyDirectedTest
    : public ::testing::TestWithParam<uint64_t> {};

// A 9 x 9 two-way lattice plus 25 one-way express arcs drawn from `rng`.
RoadNetwork OneWayLattice(Rng& rng) {
  RoadNetwork net;
  const int cols = 9;
  const int rows = 9;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      net.AddNode({c * 400.0, r * 400.0});
    }
  }
  auto id = [cols](int c, int r) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) net.AddBidirectionalEdge(id(c, r), id(c + 1, r), 400);
      if (r + 1 < rows) net.AddBidirectionalEdge(id(c, r), id(c, r + 1), 400);
    }
  }
  // One-way express arcs: strictly directed shortcuts.
  for (int k = 0; k < 25; ++k) {
    const auto a = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const auto b = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    if (a == b) continue;
    net.AddEdge(a, b,
                EuclideanDistance(net.position(a), net.position(b)) * 0.9);
  }
  net.Build();
  return net;
}

TEST_P(ContractionHierarchyDirectedTest, OneWayStreets) {
  Rng rng(GetParam() + 900);
  RoadNetwork net = OneWayLattice(rng);
  ContractionHierarchy ch(&net);
  ContractionHierarchy::Query query(&ch);
  DijkstraSearch reference(&net);
  int asymmetric = 0;
  for (int i = 0; i < 120; ++i) {
    const auto s = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const auto t = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const double forward = reference.ShortestDistance(s, t);
    const double backward = reference.ShortestDistance(t, s);
    if (std::abs(forward - backward) > 1e-9) ++asymmetric;
    ASSERT_NEAR(query.ShortestDistance(s, t), forward, 1e-6);
    ASSERT_NEAR(query.ShortestDistance(t, s), backward, 1e-6);
  }
  EXPECT_GT(asymmetric, 0) << "test graph should be genuinely directed";
}

TEST_P(ContractionHierarchyDirectedTest, BitwiseEqualsReferenceOnAllPairs) {
  Rng rng(GetParam() + 900);
  const RoadNetwork net = OneWayLattice(rng);
  ExpectBitwiseEqualToReference(net, AllOrderedPairs(net));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractionHierarchyDirectedTest,
                         ::testing::Values(1, 2, 3));

TEST(OracleTest, ConcurrentQueriesMatchSerial) {
  RoadNetwork net = BuildGridNetwork(
      {.columns = 12, .rows = 12, .spacing_m = 300, .seed = 77});
  DistanceOracle oracle(&net, DistanceOracle::Backend::kContractionHierarchy);
  DijkstraSearch reference(&net);

  std::vector<std::pair<NodeId, NodeId>> queries;
  Rng rng(123);
  for (int i = 0; i < 400; ++i) {
    queries.push_back(
        {static_cast<NodeId>(
             rng.UniformInt(static_cast<uint64_t>(net.num_nodes()))),
         static_cast<NodeId>(
             rng.UniformInt(static_cast<uint64_t>(net.num_nodes())))});
  }
  std::vector<double> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expected[i] = reference.ShortestDistance(queries[i].first,
                                             queries[i].second);
  }
  std::vector<double> got(queries.size(), -1);
  ThreadPool pool(4);
  pool.ParallelFor(queries.size(), [&](std::size_t i) {
    got[i] = oracle.Distance(queries[i].first, queries[i].second);
  });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-6) << "query " << i;
  }
}

TEST(ContractionHierarchyTest, HandlesLineGraph) {
  RoadNetwork net = testutil::LineNetwork(30, 100);
  ContractionHierarchy ch(&net);
  ContractionHierarchy::Query query(&ch);
  EXPECT_DOUBLE_EQ(query.ShortestDistance(0, 29), 2900);
  EXPECT_DOUBLE_EQ(query.ShortestDistance(29, 0), 2900);
  EXPECT_DOUBLE_EQ(query.ShortestDistance(15, 15), 0);
}

TEST(AStarTest, MatchesDijkstraOnLine) {
  RoadNetwork net = testutil::LineNetwork(15, 200);
  AStarSearch astar(&net);
  EXPECT_DOUBLE_EQ(astar.ShortestDistance(0, 14), 2800);
  EXPECT_DOUBLE_EQ(astar.ShortestDistance(7, 7), 0);
  const std::vector<NodeId> path = astar.ShortestPath(2, 9);
  ASSERT_EQ(path.size(), 8u);
  EXPECT_EQ(path.front(), 2);
  EXPECT_EQ(path.back(), 9);
}

// Property sweep: A* must equal Dijkstra on random irregular networks while
// settling no more nodes.
class AStarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AStarPropertyTest, ExactAndNoLessEfficient) {
  GridNetworkOptions options;
  options.columns = 14;
  options.rows = 14;
  options.spacing_m = 300;
  options.removal_fraction = 0.15;
  options.seed = GetParam();
  RoadNetwork net = BuildGridNetwork(options);
  AStarSearch astar(&net);
  DijkstraSearch reference(&net);
  Rng rng(GetParam() + 55);
  long long settled_total = 0;
  for (int i = 0; i < 100; ++i) {
    const NodeId s = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    const NodeId t = static_cast<NodeId>(
        rng.UniformInt(static_cast<uint64_t>(net.num_nodes())));
    ASSERT_NEAR(astar.ShortestDistance(s, t), reference.ShortestDistance(s, t),
                1e-6);
    settled_total += astar.last_settled();

    // Path legs must exist as edges and sum to the reported distance.
    const std::vector<NodeId> path = astar.ShortestPath(s, t);
    if (!path.empty()) {
      double sum = 0;
      for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        double edge = kInfDistance;
        for (const Arc& a : net.OutArcs(path[k])) {
          if (a.head == path[k + 1]) edge = std::min(edge, a.length_m);
        }
        ASSERT_NE(edge, kInfDistance);
        sum += edge;
      }
      EXPECT_NEAR(sum, reference.ShortestDistance(s, t), 1e-6);
    }
  }
  // The heuristic should focus the search: far fewer than n nodes settled
  // on average.
  EXPECT_LT(settled_total / 100, net.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AStarPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(AStarTest, UnreachableReturnsInfinity) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({10, 10});
  net.Build();
  AStarSearch astar(&net);
  EXPECT_EQ(astar.ShortestDistance(0, 1), kInfDistance);
  EXPECT_TRUE(astar.ShortestPath(0, 1).empty());
}

TEST(NearestNodeIndexTest, FindsExactNearest) {
  RoadNetwork net = testutil::LatticeNetwork(10, 10, 100);
  NearestNodeIndex index(&net, 150);
  // Query near node (3, 4) => id 43.
  EXPECT_EQ(index.Nearest({310, 390}), 43);
  // Far outside the bounds snaps to the closest corner.
  EXPECT_EQ(index.Nearest({-5000, -5000}), 0);
  EXPECT_EQ(index.Nearest({5000, 5000}), 99);
}

TEST(NearestNodeIndexTest, RandomizedAgainstBruteForce) {
  RoadNetwork net = BuildGridNetwork(
      {.columns = 15, .rows = 15, .spacing_m = 200, .seed = 9});
  NearestNodeIndex index(&net, 180);
  Rng rng(4);
  const BoundingBox box = net.ComputeBounds();
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.Uniform(box.min.x, box.max.x),
                  rng.Uniform(box.min.y, box.max.y)};
    NodeId brute = 0;
    double best = kInfDistance;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      const double d = SquaredDistance(p, net.position(n));
      if (d < best) {
        best = d;
        brute = n;
      }
    }
    const NodeId got = index.Nearest(p);
    EXPECT_NEAR(SquaredDistance(p, net.position(got)), best, 1e-9);
    (void)brute;
  }
}

TEST(BuilderTest, GridNetworkIsConnectedAndSized) {
  GridNetworkOptions options;
  options.columns = 20;
  options.rows = 18;
  options.removal_fraction = 0.2;
  options.seed = 17;
  RoadNetwork net = BuildGridNetwork(options);
  EXPECT_EQ(net.num_nodes(), 360);
  EXPECT_TRUE(net.IsStronglyConnected());
}

TEST(BuilderTest, DeterministicInSeed) {
  GridNetworkOptions options;
  options.columns = 8;
  options.rows = 8;
  options.seed = 5;
  RoadNetwork a = BuildGridNetwork(options);
  RoadNetwork b = BuildGridNetwork(options);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.position(n).x, b.position(n).x);
    EXPECT_EQ(a.position(n).y, b.position(n).y);
  }
}

TEST(BuilderTest, BeijingLikeCoversPaperArea) {
  RoadNetwork net = BuildBeijingLikeNetwork(1);
  const BoundingBox box = net.ComputeBounds();
  EXPECT_GT(box.width(), 25000);   // ~29.6 km
  EXPECT_GT(box.height(), 25000);
  EXPECT_TRUE(net.IsStronglyConnected());
}

TEST(OracleTest, ChAndDijkstraBackendsAgree) {
  RoadNetwork net = BuildGridNetwork(
      {.columns = 10, .rows = 10, .spacing_m = 250, .seed = 21});
  DistanceOracle ch_oracle(&net, DistanceOracle::Backend::kContractionHierarchy);
  DistanceOracle dj_oracle(&net, DistanceOracle::Backend::kDijkstra);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(net.num_nodes())));
    EXPECT_NEAR(ch_oracle.Distance(s, t), dj_oracle.Distance(s, t), 1e-6);
  }
}

TEST(OracleTest, CachesRepeatQueries) {
  RoadNetwork net = testutil::LineNetwork(20, 100);
  DistanceOracle oracle(&net, DistanceOracle::Backend::kDijkstra);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 19), 1900);
  const int64_t hits_before = oracle.num_cache_hits();
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 19), 1900);
  EXPECT_EQ(oracle.num_cache_hits(), hits_before + 1);
}

TEST(OracleTest, TravelTimeUsesSpeed) {
  RoadNetwork net = testutil::LineNetwork(3, 500);
  DistanceOracle oracle(&net, DistanceOracle::Backend::kDijkstra,
                        /*speed_mps=*/10.0);
  EXPECT_DOUBLE_EQ(oracle.TravelTime(0, 2).value(), 100.0);
}

TEST(RoadNetworkTest, MinDetourRatioOfStraightEdgesIsOne) {
  // Line and lattice edges run exactly along the segment between their
  // endpoints: length == euclid on every edge.
  EXPECT_DOUBLE_EQ(testutil::LineNetwork(5, 750).min_detour_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(testutil::LatticeNetwork(4, 3, 500).min_detour_ratio(),
                   1.0);
}

TEST(RoadNetworkTest, MinDetourRatioIsTheMinimumOverEdges) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({1000, 0});
  net.AddNode({1000, 1000});
  net.AddBidirectionalEdge(0, 1, 1500);  // ratio 1.5
  net.AddBidirectionalEdge(1, 2, 1200);  // ratio 1.2 — the minimum
  net.Build();
  EXPECT_DOUBLE_EQ(net.min_detour_ratio(), 1.2);
}

TEST(RoadNetworkTest, MinDetourRatioZeroWithoutPositiveEuclidEdges) {
  // Both endpoints at the same position: no edge certifies any bound.
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({0, 0});
  net.AddBidirectionalEdge(0, 1, 100);
  net.Build();
  EXPECT_DOUBLE_EQ(net.min_detour_ratio(), 0.0);
}

TEST(OracleTest, LowerBoundScaleTracksRatioWithSafetyMargin) {
  RoadNetwork net = testutil::LineNetwork(6, 400);
  DistanceOracle oracle(&net, DistanceOracle::Backend::kDijkstra);
  EXPECT_DOUBLE_EQ(oracle.lower_bound_scale(),
                   net.min_detour_ratio() * (1.0 - 1e-9));
  // The bound on a concrete pair: scale × euclid, and admissible.
  EXPECT_DOUBLE_EQ(oracle.LowerBoundDistance(0, 5),
                   oracle.lower_bound_scale() * 2000.0);
  EXPECT_LE(oracle.LowerBoundDistance(0, 5), oracle.Distance(0, 5));
}

TEST(OracleTest, LowerBoundAdmissibleOnGridNetworks) {
  GridNetworkOptions options;
  options.columns = 9;
  options.rows = 9;
  options.seed = 12345;
  RoadNetwork net = BuildGridNetwork(options);
  EXPECT_GT(net.min_detour_ratio(), 0.0);
  DistanceOracle oracle(&net, DistanceOracle::Backend::kDijkstra);
  Rng rng(99);
  const auto num_nodes = static_cast<uint64_t>(net.num_nodes());
  for (int trial = 0; trial < 500; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(num_nodes));
    EXPECT_LE(oracle.LowerBoundDistance(s, t), oracle.Distance(s, t))
        << "s=" << s << " t=" << t;
  }
}

// DistanceBatch must be indistinguishable from the equivalent sequence of
// Distance() calls: same values and the same query/cache-hit/trivial
// accounting, including trivial pairs, in-batch duplicates, and pairs
// already cached by an earlier batch.
class OracleBatchTest
    : public ::testing::TestWithParam<DistanceOracle::Backend> {};

TEST_P(OracleBatchTest, BatchMatchesSequentialValuesAndCounters) {
  GridNetworkOptions options;
  options.columns = 6;
  options.rows = 6;
  options.seed = 4242;
  RoadNetwork net = BuildGridNetwork(options);
  const DistanceOracle batched(&net, GetParam());
  const DistanceOracle sequential(&net, GetParam());

  std::vector<DistanceOracle::NodePair> pairs;
  Rng rng(7);
  const auto num_nodes = static_cast<uint64_t>(net.num_nodes());
  for (int i = 0; i < 40; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.UniformInt(num_nodes)),
                     static_cast<NodeId>(rng.UniformInt(num_nodes))});
  }
  pairs.push_back({3, 3});    // trivial
  pairs.push_back(pairs[0]);  // in-batch duplicate
  pairs.push_back(pairs[0]);  // and again

  const int64_t thread_queries_before = DistanceOracle::ThreadQueryCount();
  std::vector<double> batch_out(pairs.size());
  batched.DistanceBatch(pairs, batch_out);
  // Every pair charges the calling thread exactly one query, same as a
  // Distance() loop would.
  EXPECT_EQ(DistanceOracle::ThreadQueryCount() - thread_queries_before,
            static_cast<int64_t>(pairs.size()));

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batch_out[i],
              sequential.Distance(pairs[i].source, pairs[i].target))
        << "pair " << i;
  }
  EXPECT_EQ(batched.num_queries(), sequential.num_queries());
  EXPECT_EQ(batched.num_cache_hits(), sequential.num_cache_hits());
  EXPECT_EQ(batched.num_trivial_queries(), sequential.num_trivial_queries());

  // Second pass over the same pairs: everything non-trivial is now a cache
  // hit, in both worlds.
  batched.DistanceBatch(pairs, batch_out);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batch_out[i],
              sequential.Distance(pairs[i].source, pairs[i].target));
  }
  EXPECT_EQ(batched.num_queries(), sequential.num_queries());
  EXPECT_EQ(batched.num_cache_hits(), sequential.num_cache_hits());
  EXPECT_EQ(batched.num_trivial_queries(), sequential.num_trivial_queries());
}

INSTANTIATE_TEST_SUITE_P(Backends, OracleBatchTest,
                         ::testing::Values(
                             DistanceOracle::Backend::kDijkstra,
                             DistanceOracle::Backend::kContractionHierarchy));

TEST(ContractionHierarchyTest, BitwiseEqualsReferenceOnBeijingLikeNetwork) {
  const RoadNetwork net = BuildBeijingLikeNetwork(7);
  Rng rng(2024);
  const auto num_nodes = static_cast<uint64_t>(net.num_nodes());
  // Half uniform pairs, half pairs under 3 km apart: the pickup-radius
  // queries that dominate dispatch.
  NodePairs pairs;
  while (pairs.size() < 25000) {
    const auto s = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const auto t = static_cast<NodeId>(rng.UniformInt(num_nodes));
    if (pairs.size() % 2 == 0 ||
        EuclideanDistance(net.position(s), net.position(t)) < 3000) {
      pairs.emplace_back(s, t);
    }
  }
  ExpectBitwiseEqualToReference(net, pairs);
}

TEST(DistanceMemoTest, GrowsAcrossResizesAndKeepsEveryEntry) {
  DistanceMemo memo;
  EXPECT_EQ(memo.Find(42), nullptr);
  auto key = [](int i) {
    return (static_cast<uint64_t>(i % 97) << 32) | static_cast<uint64_t>(i);
  };
  std::size_t last_capacity = 0;
  int resizes = 0;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(memo.Insert(key(i), 0.5 * i));
    if (memo.capacity() != last_capacity) {
      ++resizes;
      last_capacity = memo.capacity();
      // Power of two, at most half full.
      EXPECT_EQ(last_capacity & (last_capacity - 1), 0u);
      EXPECT_LE(2 * memo.size(), last_capacity);
    }
  }
  EXPECT_GE(resizes, 10);
  EXPECT_EQ(memo.size(), 20000u);
  for (int i = 0; i < 20000; ++i) {
    const double* d = memo.Find(key(i));
    ASSERT_NE(d, nullptr) << i;
    EXPECT_EQ(*d, 0.5 * i);
  }
  EXPECT_EQ(memo.Find(key(20000)), nullptr);
}

TEST(DistanceMemoTest, DuplicateInsertKeepsTheFirstValue) {
  DistanceMemo memo;
  EXPECT_TRUE(memo.Insert(7, 1.25));
  EXPECT_FALSE(memo.Insert(7, 9.0));
  ASSERT_NE(memo.Find(7), nullptr);
  EXPECT_EQ(*memo.Find(7), 1.25);
  EXPECT_EQ(memo.size(), 1u);
}

// The oracle's counts and the registry's roadnet.sp.* counters are bumped
// together on every call, so they agree exactly even when four threads mix
// Distance() and DistanceBatch() calls.
TEST(OracleTest, RegistryCountersEqualOracleCountsAcrossFourThreads) {
#if defined(ARIDE_OBS_DISABLED)
  GTEST_SKIP() << "registry counters are no-ops with ARIDE_OBS=OFF";
#endif
  RoadNetwork net = BuildGridNetwork(
      {.columns = 12, .rows = 12, .spacing_m = 300, .seed = 78});
  const DistanceOracle oracle(&net,
                              DistanceOracle::Backend::kContractionHierarchy);
  auto& registry = obs::MetricRegistry::Global();
  obs::Counter* queries = registry.GetCounter("roadnet.sp.queries");
  obs::Counter* hits = registry.GetCounter("roadnet.sp.cache_hits");
  obs::Counter* trivial = registry.GetCounter("roadnet.sp.trivial");
  const int64_t queries_before = queries->value();
  const int64_t hits_before = hits->value();
  const int64_t trivial_before = trivial->value();

  constexpr int kThreads = 4;
  constexpr int kCalls = 3000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&oracle, &net, w] {
      Rng rng(500 + w);
      const auto n = static_cast<uint64_t>(net.num_nodes());
      for (int i = 0; i < kCalls; ++i) {
        const auto s = static_cast<NodeId>(rng.UniformInt(n));
        // Every fifth pair is trivial, and only those.
        const auto t = i % 5 == 0 ? s
                                  : static_cast<NodeId>(
                                        (static_cast<uint64_t>(s) + 1 +
                                         rng.UniformInt(n - 1)) %
                                        n);
        if (i % 2 == 0) {
          oracle.Distance(s, t);
        } else {
          const DistanceOracle::NodePair batch[] = {{s, t}, {t, s}, {s, t}};
          double out[3];
          oracle.DistanceBatch(batch, out);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Per thread: 1500 single calls and 1500 batches of 3 pairs; 600 of the
  // 3000 iterations draw a trivial pair.
  constexpr int64_t kPairs = kThreads * (kCalls / 2 + 3 * (kCalls / 2));
  constexpr int64_t kTrivial = kThreads * (300 + 3 * 300);
  EXPECT_EQ(oracle.num_trivial_queries(), kTrivial);
  EXPECT_EQ(oracle.num_queries(), kPairs - kTrivial);
  EXPECT_GT(oracle.num_cache_hits(), 0);
  EXPECT_EQ(queries->value() - queries_before, oracle.num_queries());
  EXPECT_EQ(hits->value() - hits_before, oracle.num_cache_hits());
  EXPECT_EQ(trivial->value() - trivial_before, oracle.num_trivial_queries());
}

}  // namespace
}  // namespace auctionride
