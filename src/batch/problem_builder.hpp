// Bridge from the live system state to an offline batch problem.
//
// Implements the paper's first "basic modification" of A (§IV-A): already-
// scheduled transactions are folded into per-object availability, so the
// batch algorithm appends new work after them without touching their times.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "batch/batch_problem.hpp"
#include "core/scheduler.hpp"

namespace dtm {

/// Assignments made earlier in the same step that the view cannot see yet.
/// A sorted small-vector: per-step populations are tiny (one entry per
/// activation assignment), so binary search over contiguous memory beats
/// the former std::map in both lookup cost and allocation count.
class ExtraAssignments {
 public:
  ExtraAssignments() = default;
  ExtraAssignments(std::initializer_list<std::pair<TxnId, Time>> init) {
    for (const auto& [id, exec] : init) set(id, exec);
  }

  /// Insert-or-overwrite the assignment for `id`.
  void set(TxnId id, Time exec) {
    const auto it = lower_bound(id);
    if (it != v_.end() && it->first == id) {
      it->second = exec;
      return;
    }
    v_.insert(it, {id, exec});
  }

  /// Execution time assigned to `id` this step, or kNoTime.
  [[nodiscard]] Time find(TxnId id) const {
    const auto it = lower_bound(id);
    return (it != v_.end() && it->first == id) ? it->second : kNoTime;
  }

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

 private:
  [[nodiscard]] std::vector<std::pair<TxnId, Time>>::iterator lower_bound(
      TxnId id) {
    return std::lower_bound(
        v_.begin(), v_.end(), id,
        [](const std::pair<TxnId, Time>& a, TxnId b) { return a.first < b; });
  }
  [[nodiscard]] std::vector<std::pair<TxnId, Time>>::const_iterator
  lower_bound(TxnId id) const {
    return std::lower_bound(
        v_.begin(), v_.end(), id,
        [](const std::pair<TxnId, Time>& a, TxnId b) { return a.first < b; });
  }

  std::vector<std::pair<TxnId, Time>> v_;
};

/// Availability of object `o` right now: the position/time at which it runs
/// out of commitments to scheduled transactions — the latest assigned live
/// user if any (the view's latest_scheduled_user, or a later one in
/// `extra`), otherwise the object's current (possibly in-transit)
/// position. This is the per-object kernel of
/// build_batch_problem, exposed so the bucket fast path can refresh cached
/// problems without rebuilding them. Callers scheduling UNSCHEDULED
/// transactions need no "exclude our batch" filtering: unscheduled ids have
/// no exec time and never pin anything.
[[nodiscard]] BatchObject object_availability(const SystemView& view, ObjId o,
                                              const ExtraAssignments& extra);

/// Reusable builder: identical output to build_batch_problem, but scratch
/// buffers persist across calls (the bucket schedulers build one problem
/// per probed level per arrival — the per-call set/map churn used to
/// dominate insertion cost).
class ProblemBuilder {
 public:
  /// Builds the batch problem for `txns` plus, when `candidate != kNoTxn`,
  /// one appended candidate transaction — the bucket probe "B_i ∪ {t}"
  /// WITHOUT materializing a copied membership vector. Results are written
  /// into `out` (cleared first).
  void build(const SystemView& view, std::span<const TxnId> txns,
             TxnId candidate, const ExtraAssignments& extra,
             BatchProblem& out);

 private:
  std::vector<ObjId> objs_;  ///< sorted distinct object ids (scratch)
};

/// Builds the batch problem for scheduling `txns` (live, unscheduled) given
/// the current system state. Convenience wrapper over ProblemBuilder.
[[nodiscard]] BatchProblem build_batch_problem(
    const SystemView& view, std::span<const TxnId> txns,
    const ExtraAssignments& extra_assigned);

}  // namespace dtm
