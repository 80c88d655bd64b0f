// Explicit shortest-path routing: per-destination next-hop tables, computed
// lazily, plus cluster-level landmark routing for graphs too large for
// exact all-pairs state.
//
// The baseline model (paper §II) abstracts object motion as "arrives after
// dist(u,v) steps". The congestion extension (paper §VI names bounded link
// capacity as an open question) needs objects to physically occupy edges,
// which requires hop-by-hop paths. A destination's table (one Dijkstra,
// O(n) memory) is built on first use and memoized in an LRU-bounded cache,
// so large topologies no longer pay the O(n^2) all-destinations cost up
// front — replays that only ever route toward a few hot destinations stay
// O(hot * n). Tie-breaks are deterministic (smaller parent id wins), so a
// lazily built table answers exactly like an eagerly built one.
//
// LandmarkRouter scales past even the lazy table: L landmark nodes (greedy
// farthest-point, deterministic) each carry one SSSP tree (dist + next-hop
// toward the landmark, O(L * n) memory total, stored node-major so one
// node's L entries are contiguous); every node is assigned to its nearest
// landmark's cluster. Same-cluster queries run an exact point-to-point ALT
// search (A* with the landmark triangle bound, Goldberg & Harrelson, SODA
// 2005) that stops when the target is settled; cross-cluster queries answer
// d'(u,v) = min_l dist(u,l) + dist(l,v) with the realized route
// u -> l* -> v stitched from the two SSSP trees (backtracking trimmed, so
// the walk only gets shorter than the reported distance). This is the
// fog-cloud hierarchical shape of Adhikari/Busch/Poudel (PAPERS.md): exact
// within a cluster, via-landmark between clusters, stretch bounded in
// practice by the cluster radii.
//
// LandmarkOracle adapts the router to the engine's DistanceOracle seam
// behind the topology-spec knob `routing=exact|landmark|verify`
// (sim/registry.cpp). verify keeps the exact oracle alongside and proves,
// per query and in a construction-time sweep, that landmark routes are
// valid walks no longer than the reported distance and that the stretch
// stays within a configured bound — the cross-check mode for pinned small
// graphs; landmark mode drops the exact oracle entirely, which is what lets
// 50k+-node random graphs run without the O(n^2) APSP wall.
//
// RoutingTable is not thread-safe: queries mutate its cache. LandmarkRouter
// queries are: the ALT search keeps its labels in per-thread scratch and
// the query counters are updated atomically, so pool workers may share one
// router (SyncObjectTransport::reroute_many does).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"

namespace dtm {

class RoutingTable {
 public:
  /// `max_cached_destinations` bounds the memo: at most that many
  /// per-destination tables are resident; least-recently-queried tables are
  /// evicted (and transparently recomputed on the next query).
  explicit RoutingTable(const Graph& g,
                        std::size_t max_cached_destinations = 512);

  /// First hop on a shortest path from `u` toward `dest` (u itself when
  /// u == dest). Deterministic: ties broken toward the smaller node id.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest) const;

  /// Full node sequence u -> ... -> dest (inclusive).
  [[nodiscard]] std::vector<NodeId> path(NodeId u, NodeId dest) const;

  /// Shortest-path distance (same metric the hops realize).
  [[nodiscard]] Weight dist(NodeId u, NodeId dest) const;

  [[nodiscard]] NodeId num_nodes() const { return n_; }

  /// Weight of edge {u, v}; u and v must be adjacent. Binary search over
  /// sorted adjacency: O(log deg(u)).
  [[nodiscard]] Weight edge_weight(NodeId u, NodeId v) const;

  // ---- Cache introspection (tests, benchmarks, serve metrics) ----

  struct CacheStats {
    std::int64_t hits = 0;       ///< queries served by a resident table
    std::int64_t misses = 0;     ///< queries that ran a Dijkstra
    std::int64_t evictions = 0;  ///< tables dropped to respect the bound
  };
  [[nodiscard]] const CacheStats& cache_stats() const { return stats_; }
  [[nodiscard]] std::size_t cached_destinations() const {
    return cache_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Bytes held by resident per-destination tables.
  [[nodiscard]] std::size_t memory_bytes() const {
    return cache_.size() * static_cast<std::size_t>(n_) *
           (sizeof(NodeId) + sizeof(Weight));
  }

 private:
  struct DestTable {
    std::vector<NodeId> next;  ///< next[u] = hop from u toward the dest
    std::vector<Weight> dist;  ///< dist[u] = shortest distance to the dest
    std::list<NodeId>::iterator lru_pos;
  };

  /// Returns the (possibly freshly computed) table for `dest`, promoting it
  /// to most-recently-used and evicting the LRU entry past capacity.
  const DestTable& ensure(NodeId dest) const;

  NodeId n_;
  const Graph* graph_;
  /// Per-node adjacency sorted by neighbor id, for edge_weight lookups.
  std::vector<std::vector<HalfEdge>> sorted_adj_;

  std::size_t capacity_;
  mutable std::unordered_map<NodeId, DestTable> cache_;
  mutable std::list<NodeId> lru_;  ///< front = most recently used
  mutable CacheStats stats_;
};

// ---------------------------------------------------------------------------
// Landmark / hierarchical routing

/// Topology-spec routing knob (`routing=` on every topology kind).
enum class RoutingMode : std::uint8_t {
  kExact,       ///< the builder's native oracle (closed-form or APSP)
  kLandmark,    ///< LandmarkOracle only — no exact oracle is built at all
  kCrossCheck,  ///< `verify`: landmark answers checked against exact
};

[[nodiscard]] RoutingMode parse_routing_mode(const std::string& v);
[[nodiscard]] std::string to_string(RoutingMode m);

struct LandmarkOptions {
  /// Landmark count; 0 = ceil(sqrt(n)) clamped to [1, 64].
  std::int32_t num_landmarks = 0;
};

class LandmarkRouter {
 public:
  /// `g` must outlive the router. Requires a connected graph. Build cost:
  /// L Dijkstras (landmark selection is greedy farthest-point from node 0,
  /// deterministic ties toward smaller ids).
  explicit LandmarkRouter(const Graph& g, LandmarkOptions opts = {});

  /// Exact distance for same-cluster pairs; the via-landmark upper bound
  /// min_l dist(u,l) + dist(l,v) otherwise. Always >= the true distance.
  [[nodiscard]] Weight dist(NodeId u, NodeId v) const;

  /// A valid walk u -> ... -> v realizing at most dist(u, v): the ALT
  /// search's shortest path within a cluster, the (trimmed) stitched tree
  /// walk through the best landmark across clusters.
  [[nodiscard]] std::vector<NodeId> path(NodeId u, NodeId v) const;

  /// First hop of path(u, v) (u itself when u == v).
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId v) const;

  /// Sum of edge weights along `p` (the lightest of parallel edges),
  /// asserting every consecutive pair is adjacent — the walk-validity check
  /// verify mode runs.
  [[nodiscard]] Weight path_weight(const std::vector<NodeId>& p) const;

  [[nodiscard]] NodeId num_nodes() const { return n_; }
  [[nodiscard]] std::int32_t num_landmarks() const {
    return static_cast<std::int32_t>(landmarks_.size());
  }
  [[nodiscard]] NodeId landmark(std::int32_t i) const {
    return landmarks_[static_cast<std::size_t>(i)];
  }
  /// Index (into landmarks) of v's home landmark.
  [[nodiscard]] std::int32_t home(NodeId v) const {
    return home_[static_cast<std::size_t>(v)];
  }
  /// max over v of dist(v, home landmark) — the stretch driver.
  [[nodiscard]] Weight radius() const { return radius_; }
  /// Upper bound on the d' metric's diameter: min_l 2 * ecc(l). Valid for
  /// every value this router returns (and >= the true graph diameter).
  [[nodiscard]] Weight diameter_bound() const { return diameter_bound_; }

  struct Stats {
    std::int64_t intra_queries = 0;  ///< same-cluster (exact) answers
    std::int64_t inter_queries = 0;  ///< via-landmark answers
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Same-cluster search counters in the RoutingTable cache shape: `misses`
  /// counts ALT searches (one per same-cluster dist/path/next_hop query);
  /// `hits` and `evictions` are always 0, since nothing is cached. Read
  /// these while no query runs (counters are bumped atomically, read
  /// plainly).
  [[nodiscard]] const RoutingTable::CacheStats& intra_cache_stats() const {
    return searches_;
  }
  /// Bytes held by the landmark tables.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Node v's L landmark entries: ldist(v)[l] = dist(landmark l, v),
  /// lhop(v)[l] = v's next hop toward landmark l.
  [[nodiscard]] const Weight* ldist(NodeId v) const {
    return ldist_.data() + static_cast<std::size_t>(v) * stride();
  }
  [[nodiscard]] const NodeId* lhop(NodeId v) const {
    return lhop_.data() + static_cast<std::size_t>(v) * stride();
  }
  [[nodiscard]] std::size_t stride() const { return landmarks_.size(); }
  /// argmin_l dist(u,l) + dist(l,v), ties toward the smaller index.
  [[nodiscard]] std::int32_t best_landmark(NodeId u, NodeId v) const;
  /// Tree walk u -> ... -> landmark(l) along l's SSSP next-hops.
  [[nodiscard]] std::vector<NodeId> walk_to_landmark(NodeId u,
                                                     std::int32_t l) const;
  /// Exact point-to-point ALT search u -> v over the calling thread's
  /// scratch; returns dist(u, v) and leaves the search's parent pointers
  /// there for path().
  Weight alt_search(NodeId u, NodeId v) const;

  const Graph* graph_;
  NodeId n_;
  std::vector<NodeId> landmarks_;
  std::vector<Weight> ldist_;       ///< node-major n x L
  std::vector<NodeId> lhop_;        ///< node-major n x L
  std::vector<std::int32_t> home_;  ///< n: landmark index
  Weight radius_ = 0;
  Weight diameter_bound_ = 0;
  mutable Stats stats_;
  mutable RoutingTable::CacheStats searches_;
};

/// DistanceOracle adapter over a LandmarkRouter. Owns a copy of the graph
/// (Network moves around by value; the oracle must not dangle into it).
/// With `exact` non-null the oracle runs in verify mode: a construction
/// sweep checks path validity + stretch over all pairs (small graphs) or a
/// deterministic sample, and every dist() query re-checks
/// exact <= landmark <= max_stretch * exact.
class LandmarkOracle final : public DistanceOracle {
 public:
  LandmarkOracle(std::shared_ptr<const Graph> graph, LandmarkOptions opts,
                 std::shared_ptr<const DistanceOracle> exact = nullptr,
                 double max_stretch = 3.0);

  [[nodiscard]] Weight dist(NodeId u, NodeId v) const override;
  /// An upper bound valid for every dist() this oracle returns (consumers
  /// use diameter as a scale: greedy-uniform's beta, dist-bucket timeouts).
  [[nodiscard]] Weight diameter() const override { return diameter_; }
  [[nodiscard]] NodeId num_nodes() const override {
    return router_.num_nodes();
  }

  [[nodiscard]] const LandmarkRouter& router() const { return router_; }
  [[nodiscard]] bool verifying() const { return exact_ != nullptr; }
  [[nodiscard]] double max_stretch() const { return max_stretch_; }

  struct VerifyStats {
    std::int64_t dist_checks = 0;      ///< per-query stretch checks
    std::int64_t path_checks = 0;      ///< construction-sweep path walks
    double max_stretch_seen = 1.0;     ///< over all checked pairs
  };
  [[nodiscard]] const VerifyStats& verify_stats() const { return vstats_; }

 private:
  void check(NodeId u, NodeId v, Weight d) const;
  void construction_sweep();

  std::shared_ptr<const Graph> graph_;
  LandmarkRouter router_;
  std::shared_ptr<const DistanceOracle> exact_;
  double max_stretch_;
  Weight diameter_;
  mutable VerifyStats vstats_;
};

}  // namespace dtm
