#include "batch/batch_scheduler.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace dtm {

Time estimate_fa(const BatchScheduler& a, const BatchProblem& p, Rng& rng) {
  if (p.txns.empty()) {
    // Nothing new to schedule; F_A is the residual availability horizon.
    Time horizon = 0;
    for (const auto& o : p.objects)
      horizon = std::max(horizon, o.ready - p.now);
    return horizon;
  }
  const BatchResult r = a.schedule(p, rng);
  Time f = r.makespan;
  // F_A covers *all* transactions in the combined set, including the pinned
  // ones folded into availability: an object whose ready time lies in the
  // future keeps the system busy until then even if no new txn touches it
  // late.
  for (const auto& o : p.objects) f = std::max(f, o.ready - p.now);
  return f;
}

BatchResult chain_evaluate(const BatchProblem& p,
                           const std::vector<std::size_t>& order,
                           bool validate) {
  DTM_REQUIRE(order.size() == p.txns.size(),
              "order size " << order.size() << " != " << p.txns.size());
  struct Cursor {
    NodeId node;
    Time free_at;
    bool from_txn;
  };
  // One cursor per listed object, reached through an id -> slot table (the
  // last listing of a duplicate id wins): this runs under every F_A
  // estimate, so the thread_local scratch keeps its capacity across calls
  // and the result's assignments are the only allocation.
  static thread_local IdIndex<ObjId> slot_of;
  static thread_local std::vector<Cursor> cur;
  index_objects(p, slot_of);
  cur.clear();
  for (const auto& o : p.objects) cur.push_back({o.node, o.ready, o.from_txn});
  const auto find = [&](ObjId o) -> Cursor& {
    const std::int32_t k = slot_of.find(o);
    DTM_CHECK(k >= 0, "object " << o << " missing from problem");
    return cur[static_cast<std::size_t>(k)];
  };

  BatchResult r;
  r.assignments.reserve(p.txns.size());
  for (const std::size_t idx : order) {
    const BatchTxn& t = p.txns[idx];
    Time e = p.now;
    for (const ObjId o : t.objects) {
      const Cursor& c = find(o);
      Time arrive = c.free_at + p.travel(c.node, t.node);
      if (c.from_txn) arrive = std::max(arrive, c.free_at + 1);
      e = std::max(e, arrive);
    }
    for (const ObjId o : t.objects) find(o) = {t.node, e, true};
    r.assignments.push_back({t.id, e});
    r.makespan = std::max(r.makespan, e - p.now);
  }
  if (validate) detail::check_batch_result(p, r, slot_of);
  return r;
}

BatchResult OrderedChainBatch::schedule(const BatchProblem& p,
                                        Rng& rng) const {
  return chain_evaluate(p, policy_(p, rng));
}

namespace {

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// Sorts transaction indices by a key functor (stable, ties by txn id).
template <typename KeyFn>
std::vector<std::size_t> order_by_key(const BatchProblem& p, KeyFn key) {
  auto order = identity_order(p.txns.size());
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto ka = key(p.txns[a]);
                     const auto kb = key(p.txns[b]);
                     if (ka != kb) return ka < kb;
                     return p.txns[a].id < p.txns[b].id;
                   });
  return order;
}

}  // namespace

std::unique_ptr<BatchScheduler> make_line_batch() {
  return std::make_unique<OrderedChainBatch>(
      "line-sweep", [](const BatchProblem& p, Rng&) {
        // Left-to-right along the line: every object performs one sweep, so
        // its total travel is O(n) against a spread lower bound — the O(1)
        // approximation structure of [SPAA'17]'s line scheduler.
        return order_by_key(p, [](const BatchTxn& t) { return t.node; });
      });
}

std::unique_ptr<BatchScheduler> make_clique_batch() {
  return std::make_unique<OrderedChainBatch>(
      "clique-load", [](const BatchProblem& p, Rng&) {
        // Heaviest transactions (sum of their objects' user counts) first:
        // hot objects start their chains immediately instead of idling.
        std::map<ObjId, std::int64_t> load;
        for (const auto& t : p.txns)
          for (const ObjId o : t.objects) ++load[o];
        return order_by_key(p, [&](const BatchTxn& t) {
          std::int64_t w = 0;
          for (const ObjId o : t.objects) w += load[o];
          return -w;
        });
      });
}

std::unique_ptr<BatchScheduler> make_cluster_batch(NodeId beta) {
  return std::make_unique<OrderedChainBatch>(
      "cluster-random",
      [beta](const BatchProblem& p, Rng& rng) {
        // Random permutation of cliques (the randomized step of [SPAA'17]);
        // within a clique the bridge node (member 0) goes first so inter-
        // clique transfers leave as early as possible.
        std::map<NodeId, NodeId> clique_rank;
        for (const auto& t : p.txns) clique_rank.emplace(t.node / beta, 0);
        std::vector<NodeId> cliques;
        cliques.reserve(clique_rank.size());
        for (const auto& [c, _] : clique_rank) cliques.push_back(c);
        rng.shuffle(cliques);
        for (std::size_t i = 0; i < cliques.size(); ++i)
          clique_rank[cliques[i]] = static_cast<NodeId>(i);
        return order_by_key(p, [&](const BatchTxn& t) {
          return std::pair(clique_rank[t.node / beta], t.node % beta);
        });
      },
      /*is_randomized=*/true);
}

std::unique_ptr<BatchScheduler> make_star_batch(NodeId beta) {
  return std::make_unique<OrderedChainBatch>(
      "star-random",
      [beta](const BatchProblem& p, Rng& rng) {
        // Center first; then rays in random order, each walked center-
        // outward — objects funnel through the hub once per ray.
        std::map<NodeId, NodeId> ray_rank;
        for (const auto& t : p.txns)
          if (t.node != 0) ray_rank.emplace((t.node - 1) / beta, 0);
        std::vector<NodeId> rays;
        rays.reserve(ray_rank.size());
        for (const auto& [r, _] : ray_rank) rays.push_back(r);
        rng.shuffle(rays);
        for (std::size_t i = 0; i < rays.size(); ++i)
          ray_rank[rays[i]] = static_cast<NodeId>(i);
        return order_by_key(p, [&](const BatchTxn& t) {
          if (t.node == 0) return std::pair<NodeId, NodeId>(-1, 0);
          return std::pair(ray_rank[(t.node - 1) / beta],
                           (t.node - 1) % beta);
        });
      },
      /*is_randomized=*/true);
}

std::unique_ptr<BatchScheduler> make_grid_snake_batch(
    std::vector<NodeId> extents) {
  return std::make_unique<OrderedChainBatch>(
      "grid-snake", [extents](const BatchProblem& p, Rng&) {
        // Boustrophedon: row-major, alternating direction per row, so that
        // consecutive transactions are adjacent in the grid.
        return order_by_key(p, [&](const BatchTxn& t) {
          NodeId id = t.node;
          // Decode row-major coordinates, then snake-fold the last axis.
          std::vector<NodeId> c(extents.size());
          for (std::size_t d = extents.size(); d-- > 0;) {
            c[d] = id % extents[d];
            id /= extents[d];
          }
          NodeId key = 0;
          bool flip = false;
          for (std::size_t d = 0; d < extents.size(); ++d) {
            const NodeId v = flip ? extents[d] - 1 - c[d] : c[d];
            key = key * extents[d] + v;
            flip = (c[d] % 2) == 1 ? !flip : flip;
          }
          return key;
        });
      });
}

std::unique_ptr<BatchScheduler> make_hypercube_gray_batch() {
  return std::make_unique<OrderedChainBatch>(
      "hypercube-gray", [](const BatchProblem& p, Rng&) {
        // Inverse Gray code: consecutive ranks differ in one bit, so the
        // visiting order is a Hamiltonian walk of the cube.
        return order_by_key(p, [](const BatchTxn& t) {
          std::uint32_t g = static_cast<std::uint32_t>(t.node);
          std::uint32_t b = 0;
          for (; g; g >>= 1) b ^= g;
          return b;
        });
      });
}

std::unique_ptr<BatchScheduler> make_tsp_batch() {
  return std::make_unique<OrderedChainBatch>(
      "tsp-nn", [](const BatchProblem& p, Rng&) {
        // Nearest-neighbor tour over transaction nodes, starting from the
        // busiest object's position (Zhang et al. route objects along TSP
        // tours; this is the standard constructive heuristic for it).
        const std::size_t n = p.txns.size();
        auto order = identity_order(n);
        if (n <= 2) return order;
        NodeId pos = p.objects.empty() ? p.txns[0].node : p.objects[0].node;
        std::vector<bool> used(n, false);
        std::vector<std::size_t> tour;
        tour.reserve(n);
        for (std::size_t step = 0; step < n; ++step) {
          std::size_t best = n;
          Weight best_d = kInfWeight;
          for (std::size_t i = 0; i < n; ++i) {
            if (used[i]) continue;
            const Weight d = p.oracle->dist(pos, p.txns[i].node);
            if (d < best_d ||
                (d == best_d && best < n && p.txns[i].id < p.txns[best].id)) {
              best_d = d;
              best = i;
            }
          }
          used[best] = true;
          tour.push_back(best);
          pos = p.txns[best].node;
        }
        return tour;
      });
}

namespace {

/// Fully serial schedule: transaction i+1 starts only after transaction i
/// has committed *and* every one of its objects could have been shipped
/// over. Implements the Lemma 3 worst case as an honest baseline.
class SequentialBatch final : public BatchScheduler {
 public:
  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng&) const override {
    struct Cursor {
      NodeId node;
      Time free_at;
      bool from_txn;
    };
    std::map<ObjId, Cursor> cur;
    for (const auto& o : p.objects)
      cur[o.id] = {o.node, o.ready, o.from_txn};
    BatchResult r;
    Time prev = p.now;
    for (const auto& t : p.txns) {
      Time e = prev;
      for (const ObjId o : t.objects) {
        const Cursor& c = cur.at(o);
        Time arrive = c.free_at + p.travel(c.node, t.node);
        if (c.from_txn) arrive = std::max(arrive, c.free_at + 1);
        e = std::max(e, arrive);
      }
      for (const ObjId o : t.objects) cur[o] = {t.node, e, true};
      r.assignments.push_back({t.id, e});
      r.makespan = std::max(r.makespan, e - p.now);
      prev = e + 1;  // full serialization: nobody overlaps
    }
    check_batch_result(p, r);
    return r;
  }
  [[nodiscard]] std::string name() const override { return "sequential"; }
};

}  // namespace

std::unique_ptr<BatchScheduler> make_sequential_batch() {
  return std::make_unique<SequentialBatch>();
}

}  // namespace dtm
