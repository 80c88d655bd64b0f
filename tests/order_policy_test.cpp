// Structural tests of the per-topology batch visiting orders: each policy
// promises a geometric property of its order (sweep monotonicity, snake
// adjacency, Gray one-hop steps, cluster/ray contiguity) — the property
// that makes its chain schedule short on its topology.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "batch/batch_scheduler.hpp"
#include "net/topology.hpp"
#include "ref/batch_rebuild.hpp"

namespace dtm {
namespace {

/// Recovers the visiting order from a schedule of single-object txns: the
/// object's users sorted by exec time ARE the order.
std::vector<NodeId> visiting_order(const Network& net,
                                   const BatchScheduler& algo,
                                   const std::vector<NodeId>& txn_nodes,
                                   std::uint64_t seed = 1) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, txn_nodes.front(), 0, false}};
  for (std::size_t i = 0; i < txn_nodes.size(); ++i)
    p.txns.push_back({static_cast<TxnId>(i), txn_nodes[i], {0}});
  Rng rng(seed);
  const BatchResult r = algo.schedule(p, rng);
  std::vector<std::pair<Time, NodeId>> by_exec;
  for (const auto& t : p.txns)
    by_exec.emplace_back(exec_of(r, t.id), t.node);
  std::sort(by_exec.begin(), by_exec.end());
  std::vector<NodeId> order;
  for (const auto& [_, n] : by_exec) order.push_back(n);
  return order;
}

TEST(OrderPolicy, LineSweepIsMonotone) {
  const Network net = make_line(20);
  const auto order = visiting_order(net, *make_line_batch(),
                                    {7, 2, 19, 11, 3, 0, 15});
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]);
}

TEST(OrderPolicy, GridSnakeStepsAreShort) {
  const Network net = make_grid({4, 4});
  std::vector<NodeId> all;
  for (NodeId u = 0; u < 16; ++u) all.push_back(u);
  const auto order =
      visiting_order(net, *make_grid_snake_batch({4, 4}), all);
  // Boustrophedon over a full grid: consecutive visits are adjacent.
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_EQ(net.dist(order[i - 1], order[i]), 1)
        << order[i - 1] << " -> " << order[i];
}

TEST(OrderPolicy, HypercubeGrayStepsAreOneHop) {
  const Network net = make_hypercube(4);
  std::vector<NodeId> all;
  for (NodeId u = 0; u < 16; ++u) all.push_back(u);
  const auto order = visiting_order(net, *make_hypercube_gray_batch(), all);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_EQ(net.dist(order[i - 1], order[i]), 1);
}

TEST(OrderPolicy, ClusterVisitsCliquesContiguously) {
  const NodeId alpha = 4, beta = 3;
  const Network net = make_cluster(alpha, beta, 5);
  std::vector<NodeId> all;
  for (NodeId u = 0; u < net.num_nodes(); ++u) all.push_back(u);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto order =
        visiting_order(net, *make_cluster_batch(beta), all, seed);
    // Once the order leaves a clique it never returns.
    std::set<NodeId> closed;
    NodeId current = order.front() / beta;
    for (const NodeId n : order) {
      const NodeId c = n / beta;
      if (c != current) {
        EXPECT_TRUE(closed.insert(current).second);
        EXPECT_FALSE(closed.count(c)) << "clique " << c << " revisited";
        current = c;
      }
    }
    // Within each clique the bridge node (member 0) comes first.
    std::set<NodeId> seen_clique;
    for (const NodeId n : order) {
      const NodeId c = n / beta;
      if (seen_clique.insert(c).second) {
        EXPECT_EQ(n % beta, 0);
      }
    }
  }
}

TEST(OrderPolicy, StarVisitsRaysContiguouslyCenterOutward) {
  const NodeId alpha = 4, beta = 3;
  const Network net = make_star(alpha, beta);
  std::vector<NodeId> all;
  for (NodeId u = 0; u < net.num_nodes(); ++u) all.push_back(u);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto order = visiting_order(net, *make_star_batch(beta), all, seed);
    EXPECT_EQ(order.front(), 0);  // the hub first
    std::set<NodeId> closed;
    NodeId current = -1;
    NodeId last_pos = -1;
    for (const NodeId n : order) {
      if (n == 0) continue;
      const NodeId ray = (n - 1) / beta;
      const NodeId pos = (n - 1) % beta;
      if (ray != current) {
        if (current >= 0) {
          EXPECT_TRUE(closed.insert(current).second);
        }
        EXPECT_FALSE(closed.count(ray));
        EXPECT_EQ(pos, 0);  // enter each ray at the hub end
        current = ray;
      } else {
        EXPECT_EQ(pos, last_pos + 1);  // walk outward
      }
      last_pos = pos;
    }
  }
}

TEST(OrderPolicy, ClusterOrderIsSeedSensitive) {
  // The randomization the paper requires: different seeds, different
  // clique permutations (with overwhelming probability over 5 seeds).
  const NodeId alpha = 5, beta = 2;
  const Network net = make_cluster(alpha, beta, 4);
  std::vector<NodeId> all;
  for (NodeId u = 0; u < net.num_nodes(); ++u) all.push_back(u);
  std::set<std::vector<NodeId>> distinct;
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    distinct.insert(visiting_order(net, *make_cluster_batch(beta), all, seed));
  EXPECT_GT(distinct.size(), 1u);
}

TEST(OrderPolicy, TspNearestNeighborStartsNearObject) {
  const Network net = make_line(20);
  // Object at node 10: the NN tour's first transaction is the closest one.
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 10, 0, false}};
  p.txns = {{1, 2, {0}}, {2, 9, {0}}, {3, 18, {0}}};
  Rng rng(1);
  const BatchResult r = make_tsp_batch()->schedule(p, rng);
  EXPECT_LT(exec_of(r, 2), exec_of(r, 1));
  EXPECT_LT(exec_of(r, 2), exec_of(r, 3));
}

}  // namespace
}  // namespace dtm
