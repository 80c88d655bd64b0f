#include "net/routing.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <queue>

namespace dtm {

RoutingTable::RoutingTable(const Graph& g, std::size_t max_cached_destinations)
    : n_(g.num_nodes()),
      graph_(&g),
      capacity_(std::max<std::size_t>(1, max_cached_destinations)) {
  // Fail fast on disconnected inputs (the lazy Dijkstra would only notice
  // when the unreachable destination is first queried).
  DTM_CHECK(g.connected(), "routing table requires a connected graph");
  sorted_adj_.reserve(static_cast<std::size_t>(n_));
  for (NodeId u = 0; u < n_; ++u) {
    const auto nbrs = g.neighbors(u);
    std::vector<HalfEdge> sorted(nbrs.begin(), nbrs.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });
    sorted_adj_.push_back(std::move(sorted));
  }
}

const RoutingTable::DestTable& RoutingTable::ensure(NodeId dest) const {
  const auto it = cache_.find(dest);
  if (it != cache_.end()) {
    ++stats_.hits;
    if (it->second.lru_pos != lru_.begin())
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second;
  }
  ++stats_.misses;
  if (cache_.size() >= capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }

  DestTable t;
  t.next.assign(static_cast<std::size_t>(n_), kNoNode);
  t.dist.assign(static_cast<std::size_t>(n_), kInfWeight);
  // One Dijkstra toward `dest`, recording each node's parent toward the
  // destination; the parent IS the next hop. Identical relaxation and
  // tie-break rules to the original eager build.
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  t.dist[static_cast<std::size_t>(dest)] = 0;
  t.next[static_cast<std::size_t>(dest)] = dest;
  pq.emplace(0, dest);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > t.dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : sorted_adj_[static_cast<std::size_t>(u)]) {
      const Weight nd = d + e.weight;
      auto& cur = t.dist[static_cast<std::size_t>(e.to)];
      auto& hop = t.next[static_cast<std::size_t>(e.to)];
      if (nd < cur) {
        cur = nd;
        hop = u;  // from e.to, step to u to get closer to dest
        pq.emplace(nd, e.to);
      } else if (nd == cur && u < hop) {
        hop = u;  // deterministic tie-break; u is a valid parent (equal d)
      }
    }
  }

  lru_.push_front(dest);
  t.lru_pos = lru_.begin();
  return cache_.emplace(dest, std::move(t)).first->second;
}

NodeId RoutingTable::next_hop(NodeId u, NodeId dest) const {
  DTM_REQUIRE(u >= 0 && u < n_ && dest >= 0 && dest < n_,
              "next_hop(" << u << "," << dest << ")");
  return ensure(dest).next[static_cast<std::size_t>(u)];
}

std::vector<NodeId> RoutingTable::path(NodeId u, NodeId dest) const {
  DTM_REQUIRE(u >= 0 && u < n_ && dest >= 0 && dest < n_,
              "path(" << u << "," << dest << ")");
  const DestTable& t = ensure(dest);
  std::vector<NodeId> p{u};
  while (u != dest) {
    u = t.next[static_cast<std::size_t>(u)];
    p.push_back(u);
    DTM_CHECK(p.size() <= static_cast<std::size_t>(n_) + 1,
              "routing loop between " << p.front() << " and " << dest);
  }
  return p;
}

Weight RoutingTable::dist(NodeId u, NodeId dest) const {
  DTM_REQUIRE(u >= 0 && u < n_ && dest >= 0 && dest < n_,
              "dist(" << u << "," << dest << ")");
  return ensure(dest).dist[static_cast<std::size_t>(u)];
}

Weight RoutingTable::edge_weight(NodeId u, NodeId v) const {
  DTM_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
              "edge_weight(" << u << "," << v << ")");
  const auto& adj = sorted_adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), v,
      [](const HalfEdge& e, NodeId target) { return e.to < target; });
  DTM_CHECK(it != adj.end() && it->to == v,
            "nodes " << u << " and " << v << " are not adjacent");
  return it->weight;
}

// ---------------------------------------------------------------------------
// Landmark / hierarchical routing

RoutingMode parse_routing_mode(const std::string& v) {
  if (v == "exact") return RoutingMode::kExact;
  if (v == "landmark") return RoutingMode::kLandmark;
  if (v == "verify") return RoutingMode::kCrossCheck;
  DTM_CHECK(false, "unknown routing mode '"
                       << v << "' (expected exact|landmark|verify)");
  return RoutingMode::kExact;
}

std::string to_string(RoutingMode m) {
  switch (m) {
    case RoutingMode::kExact: return "exact";
    case RoutingMode::kLandmark: return "landmark";
    case RoutingMode::kCrossCheck: return "verify";
  }
  return "exact";
}

namespace {

/// One Dijkstra from `src`, writing dist and next-hop-toward-src rows with
/// the same relaxation + smaller-parent tie-break as RoutingTable::ensure
/// (so landmark tree walks agree with exact tables wherever both apply).
void sssp_with_hops(const Graph& g, NodeId src, Weight* dist, NodeId* hop) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::fill(dist, dist + n, kInfWeight);
  std::fill(hop, hop + n, kNoNode);
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  hop[static_cast<std::size_t>(src)] = src;
  pq.emplace(0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : g.neighbors(u)) {
      const Weight nd = d + e.weight;
      auto& cur = dist[static_cast<std::size_t>(e.to)];
      auto& h = hop[static_cast<std::size_t>(e.to)];
      if (nd < cur) {
        cur = nd;
        h = u;
        pq.emplace(nd, e.to);
      } else if (nd == cur && u < h) {
        h = u;
      }
    }
  }
}

std::int32_t default_num_landmarks(NodeId n) {
  const auto l = static_cast<std::int32_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  return std::clamp(l, 1, 64);
}

/// Query counters are shared by every thread querying one router.
void bump(std::int64_t& counter) {
  std::atomic_ref<std::int64_t>(counter).fetch_add(1,
                                                   std::memory_order_relaxed);
}

/// The calling thread's ALT search state. Labels are generation-stamped, so
/// a search touches only the nodes it reaches; the arrays grow to the
/// largest graph this thread has searched and are shared by every router.
struct AltScratch {
  struct Item {
    Weight f;  ///< g + h
    Weight g;
    NodeId x;
  };
  std::vector<std::uint32_t> stamp;
  std::vector<Weight> g;
  std::vector<Weight> h;
  std::vector<NodeId> parent;
  std::vector<Item> heap;
  std::uint32_t gen = 0;

  void begin(NodeId n) {
    const auto nn = static_cast<std::size_t>(n);
    if (stamp.size() < nn) {
      stamp.assign(nn, 0);
      g.resize(nn);
      h.resize(nn);
      parent.resize(nn);
      gen = 0;
    }
    if (++gen == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      gen = 1;
    }
    heap.clear();
  }
  [[nodiscard]] bool reached(NodeId x) const {
    return stamp[static_cast<std::size_t>(x)] == gen;
  }
};

AltScratch& alt_scratch() {
  thread_local AltScratch s;
  return s;
}

/// Heap order: smallest f first; among equal f, the deeper label (larger
/// g) first, which settles the target sooner on tie-heavy graphs; then the
/// smaller node id, so the search is deterministic.
bool later(const AltScratch::Item& a, const AltScratch::Item& b) {
  if (a.f != b.f) return a.f > b.f;
  if (a.g != b.g) return a.g < b.g;
  return a.x > b.x;
}

}  // namespace

LandmarkRouter::LandmarkRouter(const Graph& g, LandmarkOptions opts)
    : graph_(&g), n_(g.num_nodes()) {
  std::int32_t want = opts.num_landmarks > 0 ? opts.num_landmarks
                                             : default_num_landmarks(n_);
  want = std::min(want, static_cast<std::int32_t>(n_));
  const auto nn = static_cast<std::size_t>(n_);
  const auto kL = static_cast<std::size_t>(want);
  ldist_.resize(nn * kL);
  lhop_.resize(nn * kL);

  // Greedy farthest-point selection: node 0 seeds; each subsequent landmark
  // is the node maximizing distance to the chosen set (ties: smaller id).
  // Edge weights are positive and want <= n, so that node is never already
  // a landmark. SSSP rows are buffered kBlock at a time and scattered into
  // the node-major tables together, so each node's entries are written a
  // cache line at a time rather than one strided store per landmark.
  constexpr std::size_t kBlock = 8;
  std::vector<Weight> mindist(nn, kInfWeight);
  std::vector<Weight> drows(kBlock * nn);
  std::vector<NodeId> hrows(kBlock * nn);
  for (std::size_t l = 0; l < kL; ++l) {
    NodeId next = 0;
    Weight best = -1;
    for (NodeId v = 0; l > 0 && v < n_; ++v) {
      if (mindist[static_cast<std::size_t>(v)] > best) {
        best = mindist[static_cast<std::size_t>(v)];
        next = v;
      }
    }
    landmarks_.push_back(next);
    const std::size_t j = l % kBlock;
    Weight* drow = drows.data() + j * nn;
    sssp_with_hops(g, next, drow, hrows.data() + j * nn);
    DTM_CHECK(l > 0 || std::find(drow, drow + nn, kInfWeight) == drow + nn,
              "landmark router requires a connected graph");
    for (std::size_t v = 0; v < nn; ++v)
      mindist[v] = std::min(mindist[v], drow[v]);
    if (j + 1 == kBlock || l + 1 == kL) {
      const std::size_t base = l - j;
      for (std::size_t v = 0; v < nn; ++v)
        for (std::size_t k = 0; k <= j; ++k) {
          ldist_[v * kL + base + k] = drows[k * nn + v];
          lhop_[v * kL + base + k] = hrows[k * nn + v];
        }
    }
  }

  // Home-cluster assignment (nearest landmark, ties toward the smaller
  // landmark index) and the metric bounds.
  home_.assign(nn, 0);
  std::vector<Weight> ecc(kL, 0);
  for (NodeId v = 0; v < n_; ++v) {
    const Weight* row = ldist(v);
    auto& hv = home_[static_cast<std::size_t>(v)];
    for (std::size_t l = 0; l < kL; ++l) {
      ecc[l] = std::max(ecc[l], row[l]);
      if (row[l] < row[hv]) hv = static_cast<std::int32_t>(l);
    }
    radius_ = std::max(radius_, row[hv]);
  }
  diameter_bound_ = 2 * *std::min_element(ecc.begin(), ecc.end());
}

Weight LandmarkRouter::alt_search(NodeId u, NodeId v) const {
  bump(stats_.intra_queries);
  bump(searches_.misses);
  AltScratch& s = alt_scratch();
  s.begin(n_);
  const std::size_t kL = stride();
  const Weight* target = ldist(v);
  // h(x) = max_l |d(l,x) - d(l,v)| is a consistent lower bound on
  // dist(x, v), so the first time v is popped its label is exact.
  const auto reach = [&](NodeId x) {
    const Weight* row = ldist(x);
    Weight h = 0;
    for (std::size_t l = 0; l < kL; ++l) {
      const Weight d = row[l] - target[l];
      h = std::max(h, d < 0 ? -d : d);
    }
    const auto xi = static_cast<std::size_t>(x);
    s.stamp[xi] = s.gen;
    s.g[xi] = kInfWeight;
    s.h[xi] = h;
  };
  reach(u);
  s.g[static_cast<std::size_t>(u)] = 0;
  s.parent[static_cast<std::size_t>(u)] = u;
  s.heap.push_back({s.h[static_cast<std::size_t>(u)], 0, u});
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), later);
    const AltScratch::Item it = s.heap.back();
    s.heap.pop_back();
    if (it.g > s.g[static_cast<std::size_t>(it.x)]) continue;  // stale
    if (it.x == v) return it.g;
    for (const auto& e : graph_->neighbors(it.x)) {
      if (!s.reached(e.to)) reach(e.to);
      const auto yi = static_cast<std::size_t>(e.to);
      const Weight nd = it.g + e.weight;
      if (nd < s.g[yi]) {
        s.g[yi] = nd;
        s.parent[yi] = it.x;
        s.heap.push_back({nd + s.h[yi], nd, e.to});
        std::push_heap(s.heap.begin(), s.heap.end(), later);
      }
    }
  }
  DTM_CHECK(false, "ALT search " << u << " -> " << v << " never settled");
  return kInfWeight;
}

Weight LandmarkRouter::dist(NodeId u, NodeId v) const {
  DTM_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
              "dist(" << u << "," << v << ")");
  if (u == v) return 0;
  if (home_[static_cast<std::size_t>(u)] ==
      home_[static_cast<std::size_t>(v)])
    return alt_search(u, v);
  bump(stats_.inter_queries);
  const Weight* du = ldist(u);
  const Weight* dv = ldist(v);
  Weight best = kInfWeight;
  for (std::size_t l = 0; l < stride(); ++l)
    best = std::min(best, du[l] + dv[l]);
  return best;
}

std::int32_t LandmarkRouter::best_landmark(NodeId u, NodeId v) const {
  const Weight* du = ldist(u);
  const Weight* dv = ldist(v);
  std::size_t bl = 0;
  for (std::size_t l = 1; l < stride(); ++l)
    if (du[l] + dv[l] < du[bl] + dv[bl]) bl = l;
  return static_cast<std::int32_t>(bl);
}

std::vector<NodeId> LandmarkRouter::walk_to_landmark(NodeId u,
                                                     std::int32_t l) const {
  const NodeId lm = landmarks_[static_cast<std::size_t>(l)];
  std::vector<NodeId> p{u};
  while (u != lm) {
    u = lhop(u)[l];
    p.push_back(u);
    DTM_CHECK(p.size() <= static_cast<std::size_t>(n_) + 1,
              "landmark tree loop between " << p.front() << " and " << lm);
  }
  return p;
}

std::vector<NodeId> LandmarkRouter::path(NodeId u, NodeId v) const {
  DTM_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
              "path(" << u << "," << v << ")");
  if (u == v) return {u};
  if (home_[static_cast<std::size_t>(u)] ==
      home_[static_cast<std::size_t>(v)]) {
    (void)alt_search(u, v);
    const std::vector<NodeId>& parent = alt_scratch().parent;
    std::vector<NodeId> p{v};
    for (NodeId x = v; x != u;) {
      x = parent[static_cast<std::size_t>(x)];
      p.push_back(x);
    }
    std::reverse(p.begin(), p.end());
    return p;
  }
  bump(stats_.inter_queries);
  const std::int32_t l = best_landmark(u, v);
  std::vector<NodeId> p = walk_to_landmark(u, l);       // u ... landmark
  const std::vector<NodeId> back = walk_to_landmark(v, l);  // v ... landmark
  // Append landmark ... v, trimming immediate backtracking (a, x, a -> a):
  // each trim removes a there-and-back edge pair, so the walk only gets
  // shorter than the reported d(u,l) + d(l,v).
  for (auto it = back.rbegin() + 1; it != back.rend(); ++it) {
    if (p.size() >= 2 && p[p.size() - 2] == *it)
      p.pop_back();
    else
      p.push_back(*it);
  }
  return p;
}

NodeId LandmarkRouter::next_hop(NodeId u, NodeId v) const {
  return u == v ? u : path(u, v)[1];
}

Weight LandmarkRouter::path_weight(const std::vector<NodeId>& p) const {
  DTM_REQUIRE(!p.empty(), "path_weight on empty path");
  Weight total = 0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    Weight w = kInfWeight;
    for (const auto& e : graph_->neighbors(p[i - 1]))
      if (e.to == p[i]) w = std::min(w, e.weight);
    DTM_CHECK(w < kInfWeight,
              "nodes " << p[i - 1] << " and " << p[i] << " are not adjacent");
    total += w;
  }
  return total;
}

std::size_t LandmarkRouter::memory_bytes() const {
  return ldist_.size() * sizeof(Weight) + lhop_.size() * sizeof(NodeId) +
         home_.size() * sizeof(std::int32_t) +
         landmarks_.size() * sizeof(NodeId);
}

// ---------------------------------------------------------------------------
// LandmarkOracle

LandmarkOracle::LandmarkOracle(std::shared_ptr<const Graph> graph,
                               LandmarkOptions opts,
                               std::shared_ptr<const DistanceOracle> exact,
                               double max_stretch)
    : graph_(std::move(graph)),
      router_(*graph_, opts),
      exact_(std::move(exact)),
      max_stretch_(max_stretch) {
  DTM_REQUIRE(max_stretch_ >= 1.0, "max_stretch " << max_stretch_ << " < 1");
  diameter_ = router_.diameter_bound();
  if (exact_) construction_sweep();
}

Weight LandmarkOracle::dist(NodeId u, NodeId v) const {
  const Weight d = router_.dist(u, v);
  if (exact_) check(u, v, d);
  return d;
}

void LandmarkOracle::check(NodeId u, NodeId v, Weight d) const {
  bump(vstats_.dist_checks);
  const Weight e = exact_->dist(u, v);
  DTM_CHECK(d >= e, "landmark dist(" << u << "," << v << ") = " << d
                                     << " below exact " << e);
  if (e == 0) {
    DTM_CHECK(d == 0, "nonzero landmark dist " << d << " for coincident "
                                               << u << "," << v);
    return;
  }
  const double stretch =
      static_cast<double>(d) / static_cast<double>(e);
  std::atomic_ref<double> seen(vstats_.max_stretch_seen);
  double cur = seen.load(std::memory_order_relaxed);
  while (stretch > cur &&
         !seen.compare_exchange_weak(cur, stretch, std::memory_order_relaxed)) {
  }
  DTM_CHECK(stretch <= max_stretch_ + 1e-9,
            "landmark stretch " << stretch << " for (" << u << "," << v
                                << ") exceeds bound " << max_stretch_);
}

void LandmarkOracle::construction_sweep() {
  // Prove route validity once up front: every checked pair's realized path
  // must be a real walk (adjacent hops — path_weight asserts), start and
  // end at the endpoints, and cost no more than the reported distance.
  // All pairs on small graphs; a deterministic stride sample on larger
  // ones (verify mode is for pinned small graphs, but stay bounded).
  const NodeId n = router_.num_nodes();
  const auto check_pair = [&](NodeId u, NodeId v) {
    const Weight d = router_.dist(u, v);
    check(u, v, d);
    const auto p = router_.path(u, v);
    DTM_CHECK(p.front() == u && p.back() == v,
              "path(" << u << "," << v << ") endpoints " << p.front() << ","
                      << p.back());
    const Weight w = router_.path_weight(p);
    DTM_CHECK(w <= d, "path(" << u << "," << v << ") realizes " << w
                              << " above reported dist " << d);
    DTM_CHECK(w >= exact_->dist(u, v), "path weight below exact distance");
    ++vstats_.path_checks;
  };
  if (n <= 128) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = static_cast<NodeId>(u + 1); v < n; ++v)
        check_pair(u, v);
    return;
  }
  // Deterministic pseudo-random pair sample (splitmix64 walk).
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto draw = [&x, n]() {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<NodeId>((z ^ (z >> 31)) % static_cast<std::uint64_t>(n));
  };
  for (int i = 0; i < 4096; ++i) {
    const NodeId u = draw();
    const NodeId v = draw();
    if (u != v) check_pair(u, v);
  }
}

}  // namespace dtm
