// Weighted undirected communication graph G = (V, E, w).
//
// This is the paper's substrate (§II): transactions live at nodes, objects
// travel along shortest paths, and an edge of weight w(e) takes w(e)
// synchronous time steps to cross.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace dtm {

using NodeId = std::int32_t;
using Weight = std::int64_t;

constexpr NodeId kNoNode = -1;
constexpr Weight kInfWeight = std::int64_t{1} << 60;

/// Outgoing half-edge in an adjacency list.
struct HalfEdge {
  NodeId to;
  Weight weight;
};

/// Simple undirected weighted graph with positive integer edge weights.
/// Immutable after construction apart from add_edge; adjacency is stored as
/// per-node vectors for cache-friendly Dijkstra traversal.
class Graph {
 public:
  explicit Graph(NodeId num_nodes) : adj_(static_cast<std::size_t>(num_nodes)) {
    DTM_REQUIRE(num_nodes > 0, "graph needs at least one node");
  }

  /// Adds an undirected edge {u, v} of positive weight w.
  void add_edge(NodeId u, NodeId v, Weight w);

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(adj_.size());
  }
  [[nodiscard]] std::int64_t num_edges() const { return num_edges_; }

  [[nodiscard]] std::span<const HalfEdge> neighbors(NodeId u) const {
    DTM_REQUIRE(valid_node(u), "node " << u);
    return adj_[static_cast<std::size_t>(u)];
  }

  [[nodiscard]] bool valid_node(NodeId u) const {
    return u >= 0 && u < num_nodes();
  }

  /// True iff every node can reach every other node.
  [[nodiscard]] bool connected() const;

  /// Single-source shortest path distances (Dijkstra).
  [[nodiscard]] std::vector<Weight> sssp(NodeId source) const;

  /// Single-source distances truncated at `radius`: nodes farther than
  /// radius get kInfWeight. Used by the sparse-cover ball carving, where
  /// full Dijkstra per center would be wasteful.
  [[nodiscard]] std::vector<Weight> sssp_within(NodeId source,
                                                Weight radius) const;

 private:
  std::vector<std::vector<HalfEdge>> adj_;
  std::int64_t num_edges_ = 0;
};

/// Abstract shortest-path distance oracle for a graph. Named topologies use
/// closed-form O(1) implementations so experiments scale past the O(n^2)
/// all-pairs memory wall; generic graphs fall back to a cached APSP matrix.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Shortest-path distance between u and v in G.
  [[nodiscard]] virtual Weight dist(NodeId u, NodeId v) const = 0;

  /// Graph diameter (max over pairs of dist), or an upper bound on it. The
  /// contract is that it is >= every value dist() returns: the lower
  /// bound's spread cut-off (core/lower_bound.cpp) relies on it. May be
  /// precomputed.
  [[nodiscard]] virtual Weight diameter() const = 0;

  [[nodiscard]] virtual NodeId num_nodes() const = 0;
};

/// All-pairs oracle backed by one Dijkstra per source. O(n * (m log n))
/// build, O(1) queries, O(n^2) memory — fine for generic graphs up to a few
/// thousand nodes.
class ApspOracle final : public DistanceOracle {
 public:
  explicit ApspOracle(const Graph& g);

  [[nodiscard]] Weight dist(NodeId u, NodeId v) const override {
    DTM_REQUIRE(u >= 0 && v >= 0 && u < n_ && v < n_,
                "dist(" << u << "," << v << ") n=" << n_);
    return dist_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(v)];
  }
  [[nodiscard]] Weight diameter() const override { return diameter_; }
  [[nodiscard]] NodeId num_nodes() const override { return n_; }

 private:
  NodeId n_;
  Weight diameter_ = 0;
  std::vector<Weight> dist_;
};

}  // namespace dtm
