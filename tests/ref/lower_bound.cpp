#include "ref/lower_bound.hpp"

#include <algorithm>
#include <map>

namespace dtm {

LowerBoundBreakdown map_makespan_lower_bound(
    const std::vector<Transaction>& txns,
    const std::vector<ObjectOrigin>& origins, const DistanceOracle& oracle,
    std::int64_t latency_factor) {
  std::map<ObjId, ObjectOrigin> origin_of;
  for (const auto& o : origins) origin_of[o.id] = o;

  std::map<ObjId, std::vector<NodeId>> users;
  for (const auto& t : txns)
    for (const auto& a : t.accesses) users[a.obj].push_back(t.node);

  LowerBoundBreakdown lb;
  for (const auto& [obj, nodes] : users) {
    const auto it = origin_of.find(obj);
    DTM_CHECK(it != origin_of.end(), "object " << obj << " has no origin");
    const NodeId origin = it->second.node;
    const Time created = it->second.created;

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

    // Pairwise spread: O(m^2) oracle lookups; sampled cap keeps giant
    // hotspot objects cheap while staying a valid (smaller) certificate.
    const std::size_t cap = 512;
    const std::size_t step = nodes.size() > cap ? nodes.size() / cap + 1 : 1;
    for (std::size_t i = 0; i < nodes.size(); i += step)
      for (std::size_t j = i + step; j < nodes.size(); j += step)
        lb.spread = std::max(
            lb.spread, created + latency_factor * oracle.dist(nodes[i],
                                                              nodes[j]));
  }
  return lb;
}

}  // namespace dtm
