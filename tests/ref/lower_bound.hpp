// Map-based, all-pairs reference version of makespan_lower_bound
// (core/lower_bound.cpp), kept as a differential oracle: one std::map from
// object id to origin (of duplicate ids the last one listed wins), one from
// object id to its users' nodes in transaction order, and the sampled
// spread loop over every pair of sampled positions with no cut-off. The
// production bound must return exactly the same breakdown on every input
// and throw the same message for a used object that has no origin.
#pragma once

#include <cstdint>
#include <vector>

#include "core/lower_bound.hpp"

namespace dtm {

[[nodiscard]] LowerBoundBreakdown map_makespan_lower_bound(
    const std::vector<Transaction>& txns,
    const std::vector<ObjectOrigin>& origins, const DistanceOracle& oracle,
    std::int64_t latency_factor = 1);

}  // namespace dtm
