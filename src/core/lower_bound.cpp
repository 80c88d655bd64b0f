#include "core/lower_bound.hpp"

#include <algorithm>
#include <numeric>

#include "util/id_index.hpp"

namespace dtm {

LowerBoundBreakdown makespan_lower_bound(
    const std::vector<Transaction>& txns,
    const std::vector<ObjectOrigin>& origins, const DistanceOracle& oracle,
    std::int64_t latency_factor) {
  static thread_local std::vector<ObjectUse> uses;
  uses.clear();
  for (const auto& t : txns)
    for (const auto& a : t.accesses) uses.push_back({a.obj, t.node});
  return makespan_lower_bound(uses, origins, oracle, latency_factor);
}

LowerBoundBreakdown makespan_lower_bound(
    std::span<const ObjectUse> uses, std::span<const ObjectOrigin> origins,
    const DistanceOracle& oracle, std::int64_t latency_factor) {
  // thread_local scratch: a warm call allocates nothing.
  static thread_local IdIndex<ObjId> origin_slot;  // last listing wins
  static thread_local std::vector<std::size_t> start, fill;
  static thread_local std::vector<NodeId> grouped, sampled;
  origin_slot.reset(origins.size());
  for (std::size_t i = 0; i < origins.size(); ++i)
    origin_slot.slot(origins[i].id) = static_cast<std::int32_t>(i);

  // Stable counting sort of the uses by origin slot: users of slot k are
  // grouped[start[k] .. start[k + 1]) in use order, which the spread sample
  // depends on. Of the used ids with no origin, the smallest is named.
  start.assign(origins.size() + 1, 0);
  ObjId missing = kNoObj;
  for (const ObjectUse& u : uses) {
    const std::int32_t k = origin_slot.find(u.obj);
    if (k >= 0)
      ++start[static_cast<std::size_t>(k) + 1];
    else if (missing == kNoObj || u.obj < missing)
      missing = u.obj;
  }
  DTM_CHECK(missing == kNoObj, "object " << missing << " has no origin");
  std::partial_sum(start.begin(), start.end(), start.begin());
  fill.assign(start.begin(), start.end() - 1);
  grouped.resize(uses.size());
  for (const ObjectUse& u : uses)
    grouped[fill[static_cast<std::size_t>(origin_slot.find(u.obj))]++] =
        u.node;

  // Every certificate is a max over objects, so the visiting order (origin
  // order) does not change the result.
  const Time diameter = oracle.diameter();
  LowerBoundBreakdown lb;
  for (std::size_t k = 0; k < origins.size(); ++k) {
    if (start[k] == start[k + 1]) continue;
    const std::span<const NodeId> nodes(grouped.data() + start[k],
                                        start[k + 1] - start[k]);
    const NodeId origin = origins[k].node;
    const Time created = origins[k].created;

    Time nearest = kInfWeight;
    for (const NodeId u : nodes) {
      const Time travel =
          created + latency_factor * oracle.dist(origin, u);
      nearest = std::min(nearest, travel);
      lb.reach = std::max(lb.reach, travel);
    }
    const auto m = static_cast<Time>(nodes.size());
    lb.lmax = std::max(lb.lmax, m);
    lb.load = std::max(lb.load, nearest + (m - 1));

    // Spread over the users at the sampled positions (every step-th, so
    // giant hotspot objects stay cheap while the certificate stays valid).
    // No pair exceeds `ceiling` because diameter() bounds every dist(), so
    // an object that cannot raise the spread is skipped and the pair loop
    // stops once the spread reaches it. Two sampled users on one node give
    // created + 0; the rest is the max over distinct sampled nodes.
    const Time ceiling = created + latency_factor * diameter;
    if (nodes.size() < 2 || ceiling <= lb.spread) continue;
    const std::size_t cap = 512;
    const std::size_t step = nodes.size() > cap ? nodes.size() / cap + 1 : 1;
    sampled.clear();
    for (std::size_t i = 0; i < nodes.size(); i += step)
      sampled.push_back(nodes[i]);
    std::sort(sampled.begin(), sampled.end());
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    lb.spread = std::max(lb.spread, created);
    for (std::size_t i = 0; i < sampled.size() && lb.spread < ceiling; ++i)
      for (std::size_t j = i + 1; j < sampled.size() && lb.spread < ceiling;
           ++j)
        lb.spread = std::max(
            lb.spread,
            created + latency_factor * oracle.dist(sampled[i], sampled[j]));
  }
  return lb;
}

Time single_txn_lower_bound(NodeId txn_node, std::span<const AvailPoint> objs,
                            const DistanceOracle& oracle,
                            std::int64_t latency_factor) {
  // The transaction executes no earlier than the latest of its objects'
  // earliest possible arrivals. If another transaction uses the object
  // first, triangle inequality keeps the bound valid: routing via that
  // user's node is never shorter than the direct trip, and a commit en
  // route only adds (+1 when from_txn).
  Time lb = 0;
  for (const AvailPoint& a : objs) {
    Time arrive = a.ready_rel + latency_factor * oracle.dist(a.node, txn_node);
    if (a.from_txn) arrive = std::max(arrive, a.ready_rel + 1);
    lb = std::max(lb, arrive);
  }
  return lb;
}

}  // namespace dtm
