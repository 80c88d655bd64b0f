// Certified lower bounds on the optimal makespan t* (paper §II / §III-C).
//
// Computing t* is NP-hard (the paper cites [5]); the competitive ratios we
// report in experiments are makespan / LB with LB <= t*, so every reported
// ratio *upper-bounds* the true competitive ratio. Three certificates are
// combined, all of which the paper's own analyses use implicitly:
//   load:   an object used by m transactions needs >= m-1 steps between its
//           first and last commit, plus the travel to its nearest first user
//           (Theorem 3's l_max argument);
//   reach:  every user of an object must wait for it to arrive from its
//           origin at least once;
//   spread: the object must visit both endpoints of its farthest user pair.
//
// The bound runs over a flat buffer of (object, user node) uses, grouped
// per object by a stable counting sort: O(uses + origins) plus the spread
// loop, allocation-free once warm. The spread pairs the *distinct* nodes
// among each object's sampled users and stops at the ceiling
// created + latency_factor * diameter(), skipping objects already at it.
// Both cuts are exact: the result equals the all-pairs map version's
// (tests/ref/lower_bound.*) on every input.
#pragma once

#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"

namespace dtm {

struct LowerBoundBreakdown {
  Time load = 0;    ///< max over objects: (m_o - 1) + min_u travel(origin, u)
  Time reach = 0;   ///< max over objects, users: travel(origin, u)
  Time spread = 0;  ///< max over objects: max pairwise travel among users
  Time lmax = 0;    ///< max over objects: number of users (paper's l_max)

  [[nodiscard]] Time best() const {
    return std::max({load, reach, spread, Time{1}});
  }
};

/// One use of an object: a transaction at `node` requests `obj`.
struct ObjectUse {
  ObjId obj = kNoObj;
  NodeId node = kNoNode;
};

/// Lower bound for executing the transactions behind `uses` given object
/// `origins` (of a duplicate id the last one listed wins), measured from
/// time 0 (origins' creation times shift the certificates). For dynamic
/// instances this is a valid bound on the optimal offline makespan of the
/// whole arrival sequence started at time 0. A used object with no origin
/// is a CheckError naming the smallest such id.
[[nodiscard]] LowerBoundBreakdown makespan_lower_bound(
    std::span<const ObjectUse> uses, std::span<const ObjectOrigin> origins,
    const DistanceOracle& oracle, std::int64_t latency_factor = 1);

/// The same bound over the accesses of `txns`, in order.
[[nodiscard]] LowerBoundBreakdown makespan_lower_bound(
    const std::vector<Transaction>& txns,
    const std::vector<ObjectOrigin>& origins, const DistanceOracle& oracle,
    std::int64_t latency_factor = 1);

/// Availability point of one object relative to a batch problem's `now`:
/// the object sits at `node`, free of commitments from `ready_rel` steps in
/// the future; `from_txn` marks availability points that are transaction
/// commits (the next user then executes at least one step later even at
/// distance zero).
struct AvailPoint {
  NodeId node = kNoNode;
  Time ready_rel = 0;
  bool from_txn = false;
};

/// Lower bound (relative to now) on the execution time of a single
/// transaction at `txn_node` requesting exactly the objects in `objs`: every
/// feasible schedule must route each object from its availability point to
/// the transaction, no matter what else is scheduled around it. Chain
/// feasibility and the triangle inequality make this a valid bound on
/// F_A(B ∪ {t}) for EVERY bucket B and every batch algorithm A, which is
/// what lets the bucket fast path start its level scan at ceil(log2(LB))
/// instead of level 0 (batch/bucket_insertion.hpp).
[[nodiscard]] Time single_txn_lower_bound(NodeId txn_node,
                                          std::span<const AvailPoint> objs,
                                          const DistanceOracle& oracle,
                                          std::int64_t latency_factor);

}  // namespace dtm
