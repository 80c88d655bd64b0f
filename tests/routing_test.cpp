// Tests for net/routing: next-hop tables must realize shortest paths.
#include <gtest/gtest.h>

#include <memory>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/registry.hpp"

namespace dtm {
namespace {

TEST(Routing, LineNextHops) {
  const Network net = make_line(8);
  const RoutingTable rt(net.graph);
  EXPECT_EQ(rt.next_hop(0, 7), 1);
  EXPECT_EQ(rt.next_hop(7, 0), 6);
  EXPECT_EQ(rt.next_hop(3, 3), 3);
  EXPECT_EQ(rt.dist(0, 7), 7);
}

TEST(Routing, PathEndsAtDestination) {
  const Network net = make_grid({4, 4});
  const RoutingTable rt(net.graph);
  for (NodeId u = 0; u < 16; ++u)
    for (NodeId v = 0; v < 16; ++v) {
      const auto p = rt.path(u, v);
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), u);
      EXPECT_EQ(p.back(), v);
      // Path length (in weight) equals the shortest distance.
      Weight total = 0;
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        total += rt.edge_weight(p[i], p[i + 1]);
      EXPECT_EQ(total, net.dist(u, v));
    }
}

TEST(Routing, MatchesOracleOnWeightedGraph) {
  Rng rng(3);
  const Network net = make_random_connected(24, 30, 5, rng);
  const RoutingTable rt(net.graph);
  for (NodeId u = 0; u < net.num_nodes(); ++u)
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      EXPECT_EQ(rt.dist(u, v), net.dist(u, v));
}

TEST(Routing, EveryHopIsAnEdgeTowardDest) {
  const Network net = make_hypercube(4);
  const RoutingTable rt(net.graph);
  for (NodeId u = 0; u < 16; ++u)
    for (NodeId v = 0; v < 16; ++v) {
      if (u == v) continue;
      const NodeId h = rt.next_hop(u, v);
      // Hop must be adjacent and strictly closer.
      EXPECT_EQ(rt.edge_weight(u, h), 1);
      EXPECT_LT(rt.dist(h, v), rt.dist(u, v));
    }
}

TEST(Routing, EdgeWeightGuard) {
  const Network net = make_line(5);
  const RoutingTable rt(net.graph);
  EXPECT_THROW((void)rt.edge_weight(0, 3), CheckError);  // not adjacent
}

TEST(Routing, Deterministic) {
  const Network net = make_grid({3, 3});
  const RoutingTable a(net.graph), b(net.graph);
  for (NodeId u = 0; u < 9; ++u)
    for (NodeId v = 0; v < 9; ++v)
      EXPECT_EQ(a.next_hop(u, v), b.next_hop(u, v));
}

TEST(Routing, LazyCacheHitAndMiss) {
  const Network net = make_grid({4, 4});
  const RoutingTable rt(net.graph);
  EXPECT_EQ(rt.cached_destinations(), 0u);  // nothing built up front
  EXPECT_EQ(rt.memory_bytes(), 0u);
  (void)rt.dist(0, 7);
  EXPECT_EQ(rt.cache_stats().misses, 1);
  EXPECT_EQ(rt.cache_stats().hits, 0);
  EXPECT_EQ(rt.cached_destinations(), 1u);
  (void)rt.dist(3, 7);       // same destination: resident table
  (void)rt.next_hop(12, 7);  // any query keyed by destination 7
  EXPECT_EQ(rt.cache_stats().misses, 1);
  EXPECT_EQ(rt.cache_stats().hits, 2);
  (void)rt.dist(0, 9);  // new destination
  EXPECT_EQ(rt.cache_stats().misses, 2);
  EXPECT_EQ(rt.cached_destinations(), 2u);
  EXPECT_EQ(rt.memory_bytes(),
            2u * 16u * (sizeof(NodeId) + sizeof(Weight)));
}

TEST(Routing, LazyCacheEvictsLeastRecentlyUsed) {
  const Network net = make_line(8);
  const RoutingTable rt(net.graph, /*max_cached_destinations=*/2);
  (void)rt.dist(0, 1);
  (void)rt.dist(0, 2);
  (void)rt.dist(0, 1);  // 1 is now more recent than 2
  (void)rt.dist(0, 3);  // evicts 2
  EXPECT_EQ(rt.cache_stats().evictions, 1);
  EXPECT_EQ(rt.cached_destinations(), 2u);
  const auto misses_before = rt.cache_stats().misses;
  (void)rt.dist(0, 1);  // survivor: still resident
  EXPECT_EQ(rt.cache_stats().misses, misses_before);
  (void)rt.dist(0, 2);  // evicted: recomputed
  EXPECT_EQ(rt.cache_stats().misses, misses_before + 1);
  EXPECT_EQ(rt.cache_stats().evictions, 2);
}

TEST(Routing, CorrectUnderEvictionThrash) {
  // A capacity-1 cache recomputes constantly but must answer identically.
  Rng rng(11);
  const Network net = make_random_connected(20, 28, 5, rng);
  const RoutingTable thrash(net.graph, 1);
  const RoutingTable roomy(net.graph, 64);
  for (NodeId u = 0; u < net.num_nodes(); ++u)
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      EXPECT_EQ(thrash.dist(u, v), net.dist(u, v));
      EXPECT_EQ(thrash.next_hop(u, v), roomy.next_hop(u, v));
    }
  EXPECT_LE(thrash.cached_destinations(), 1u);
}

TEST(Routing, LazyTieBreaksMatchRegardlessOfQueryOrder) {
  // Tables are built per destination on demand; the order destinations are
  // first touched (and eviction churn) must not change any answer.
  const Network net = make_hypercube(4);
  const RoutingTable forward(net.graph, 3);
  const RoutingTable backward(net.graph, 16);
  for (NodeId v = 0; v < 16; ++v)
    for (NodeId u = 0; u < 16; ++u)
      (void)forward.next_hop(u, v);
  for (NodeId v = 15; v >= 0; --v)
    for (NodeId u = 15; u >= 0; --u)
      (void)backward.next_hop(u, v);
  for (NodeId u = 0; u < 16; ++u)
    for (NodeId v = 0; v < 16; ++v)
      EXPECT_EQ(forward.next_hop(u, v), backward.next_hop(u, v));
}

TEST(Routing, DisconnectedGraphRejectedAtConstruction) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  EXPECT_THROW((void)RoutingTable(g), CheckError);
  EXPECT_THROW((void)LandmarkRouter(g), CheckError);
}

// ---------------------------------------------------------------------------
// Landmark / hierarchical routing

TEST(Landmark, PathsAreValidWalksNoLongerThanReportedDist) {
  Rng rng(5);
  const Network net = make_random_connected(40, 60, 4, rng);
  const LandmarkRouter lr(net.graph);
  for (NodeId u = 0; u < net.num_nodes(); ++u)
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      const Weight d = lr.dist(u, v);
      // Never below the true distance (d' is exact or a via-landmark upper
      // bound), never above the router's own diameter bound.
      EXPECT_GE(d, net.dist(u, v));
      EXPECT_LE(d, lr.diameter_bound());
      const auto p = lr.path(u, v);
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), u);
      EXPECT_EQ(p.back(), v);
      // path_weight asserts every consecutive pair is adjacent; the
      // realized walk must not exceed the reported distance.
      EXPECT_LE(lr.path_weight(p), d);
      if (u != v) {
        EXPECT_EQ(lr.next_hop(u, v), p[1]);
      }
    }
}

TEST(Landmark, SameClusterPairsAnswerExactly) {
  // Differential check of the same-cluster ALT search against the APSP
  // oracle: unit weights (tie-heavy) and wider weights, one cluster, the
  // default landmark count, and every node a landmark.
  for (const Weight maxw : {1, 3, 7}) {
    for (const std::uint64_t seed : {9u, 21u}) {
      Rng rng(seed);
      const Network net = make_random_connected(40, 70, maxw, rng);
      const NodeId n = net.num_nodes();
      for (const std::int32_t landmarks : {1, 0, n}) {
        SCOPED_TRACE(testing::Message() << "maxw " << maxw << " seed " << seed
                                        << " landmarks " << landmarks);
        LandmarkOptions opts;
        opts.num_landmarks = landmarks;
        const LandmarkRouter lr(net.graph, opts);
        std::int64_t same_cluster = 0;
        for (NodeId u = 0; u < n; ++u)
          for (NodeId v = 0; v < n; ++v) {
            if (lr.home(u) != lr.home(v)) {
              // With every node a landmark, via-landmark is exact too.
              if (landmarks == n) {
                EXPECT_EQ(lr.dist(u, v), net.dist(u, v));
              }
              continue;
            }
            if (u != v) ++same_cluster;
            const Weight d = lr.dist(u, v);
            ASSERT_EQ(d, net.dist(u, v)) << u << " -> " << v;
            const auto p = lr.path(u, v);
            ASSERT_FALSE(p.empty());
            EXPECT_EQ(p.front(), u);
            EXPECT_EQ(p.back(), v);
            EXPECT_EQ(lr.path_weight(p), d);  // asserts adjacency per hop
            if (u != v) {
              EXPECT_EQ(lr.next_hop(u, v), p[1]);
            }
          }
        if (landmarks != n) {
          EXPECT_GT(same_cluster, 0);
        }
        // Every same-cluster query above ran one search; nothing is cached.
        EXPECT_EQ(lr.intra_cache_stats().misses, lr.stats().intra_queries);
        EXPECT_EQ(lr.intra_cache_stats().hits, 0);
        EXPECT_EQ(lr.intra_cache_stats().evictions, 0);
      }
    }
  }
}

TEST(Landmark, DeterministicAcrossConstructions) {
  Rng rng(13);
  const Network net = make_random_connected(25, 40, 4, rng);
  const LandmarkRouter a(net.graph);
  const LandmarkRouter b(net.graph);
  ASSERT_EQ(a.num_landmarks(), b.num_landmarks());
  for (std::int32_t l = 0; l < a.num_landmarks(); ++l)
    EXPECT_EQ(a.landmark(l), b.landmark(l));
  for (NodeId u = 0; u < net.num_nodes(); ++u)
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      EXPECT_EQ(a.dist(u, v), b.dist(u, v));
}

TEST(Landmark, AllNodesLandmarksIsExactEverywhere) {
  const Network net = make_line(6);
  LandmarkOptions opts;
  opts.num_landmarks = 6;  // every node its own cluster seed
  const LandmarkRouter lr(net.graph, opts);
  for (NodeId u = 0; u < 6; ++u)
    for (NodeId v = 0; v < 6; ++v)
      EXPECT_EQ(lr.dist(u, v), net.dist(u, v));
}

TEST(Landmark, VerifyOracleSweepsAndChecksQueries) {
  const Network net = make_grid({4, 4});
  auto graph = std::make_shared<Graph>(net.graph);
  LandmarkOracle oracle(graph, {}, net.oracle, /*max_stretch=*/4.0);
  // The construction sweep ran (all pairs on a graph this small).
  EXPECT_TRUE(oracle.verifying());
  EXPECT_GT(oracle.verify_stats().path_checks, 0);
  EXPECT_LE(oracle.verify_stats().max_stretch_seen, 4.0);
  const auto before = oracle.verify_stats().dist_checks;
  for (NodeId u = 0; u < 16; ++u)
    for (NodeId v = 0; v < 16; ++v) {
      const Weight d = oracle.dist(u, v);
      EXPECT_GE(d, net.dist(u, v));
      EXPECT_LE(d, oracle.diameter());
    }
  EXPECT_EQ(oracle.verify_stats().dist_checks, before + 16 * 16);
}

TEST(Landmark, VerifyRejectsImpossibleStretchBound) {
  // A stretch bound below what the landmarks achieve must abort loudly at
  // construction, not silently pass wrong distances downstream.
  const Network net = make_line(12);
  auto graph = std::make_shared<Graph>(net.graph);
  LandmarkOptions opts;
  opts.num_landmarks = 2;
  EXPECT_THROW(
      (void)LandmarkOracle(graph, opts, net.oracle, /*max_stretch=*/1.0),
      CheckError);
}

TEST(Landmark, RegistryRoutingKnobBuildsEachMode) {
  const Network exact = Registry::make_network(parse_spec("grid:dims=4x4"));
  const Network verify = Registry::make_network(
      parse_spec("grid:dims=4x4,routing=verify,stretch=4"));
  EXPECT_EQ(verify.build_params.at("routing"), "verify");
  const auto* lm = dynamic_cast<const LandmarkOracle*>(verify.oracle.get());
  ASSERT_NE(lm, nullptr);
  EXPECT_TRUE(lm->verifying());
  for (NodeId u = 0; u < 16; ++u)
    for (NodeId v = 0; v < 16; ++v)
      EXPECT_GE(verify.dist(u, v), exact.dist(u, v));

  // Landmark mode on a random topology never builds the O(n^2) APSP; the
  // oracle is the landmark router alone.
  const Network lmk = Registry::make_network(
      parse_spec("random:n=50,extra=70,maxw=3,routing=landmark"));
  EXPECT_EQ(lmk.build_params.at("routing"), "landmark");
  const auto* o = dynamic_cast<const LandmarkOracle*>(lmk.oracle.get());
  ASSERT_NE(o, nullptr);
  EXPECT_FALSE(o->verifying());
  EXPECT_GT(o->diameter(), 0);
}

}  // namespace
}  // namespace dtm
