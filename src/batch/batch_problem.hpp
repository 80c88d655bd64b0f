// Offline batch scheduling problems (paper §IV): the input format consumed
// by the offline algorithms A that the bucket scheduler converts to online.
//
// A batch problem is a set of transactions to schedule from scratch, given
// per-object availability (where each object is, and from when it is free of
// commitments to already-scheduled transactions). This encodes the paper's
// first "basic modification" of A: pinned transactions are folded into
// object availability, so A appends the new schedule after them.
#pragma once

#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/types.hpp"
#include "net/graph.hpp"
#include "util/id_index.hpp"

namespace dtm {

/// Availability of one object: free at `node` from time `ready` on. `ready`
/// already accounts for any pinned (already-scheduled) user of the object.
struct BatchObject {
  ObjId id = kNoObj;
  NodeId node = kNoNode;
  Time ready = 0;
  /// True if the availability point is a transaction commit (then the next
  /// user must execute at least one step later even at distance zero).
  bool from_txn = false;
};

/// A transaction to be scheduled by the batch algorithm.
struct BatchTxn {
  TxnId id = kNoTxn;
  NodeId node = kNoNode;
  std::vector<ObjId> objects;
};

struct BatchProblem {
  const DistanceOracle* oracle = nullptr;
  std::int64_t latency_factor = 1;
  Time now = 0;  ///< schedule times must be >= now
  std::vector<BatchObject> objects;
  std::vector<BatchTxn> txns;

  [[nodiscard]] Time travel(NodeId u, NodeId v) const {
    return latency_factor * oracle->dist(u, v);
  }
};

struct BatchResult {
  std::vector<Assignment> assignments;  ///< one per problem transaction
  Time makespan = 0;                    ///< max exec - problem.now
};

/// Refills `index` with object id -> position in p.objects; of an id listed
/// twice the last listing wins. The batch walks' O(1) object lookup.
void index_objects(const BatchProblem& p, IdIndex<ObjId>& index);

/// The exec of every t in p.txns, indexed like p.txns (the first assignment
/// of a txn listed twice wins). Throws CheckError if a txn is unassigned.
[[nodiscard]] std::vector<Time> exec_per_txn(const BatchProblem& p,
                                             const BatchResult& r);

/// Verifies that `r` is feasible for `p` (object chains from availability,
/// all txns assigned, exec >= now) and that makespan matches. Throws
/// CheckError on violation — batch algorithms call this before returning.
void check_batch_result(const BatchProblem& p, const BatchResult& r);

namespace detail {
/// The same check with `obj_slot` already filled by index_objects(p, ·):
/// a validated chain_evaluate shares its one fill with the check. In
/// namespace detail so that `dtm::check_batch_result` stays one function.
void check_batch_result(const BatchProblem& p, const BatchResult& r,
                        const IdIndex<ObjId>& obj_slot);
}  // namespace detail

}  // namespace dtm
