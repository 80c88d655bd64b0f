// Map-based, sorted-table and rebuild-per-start reference versions of the
// batch layer's chain walk, validity check and suffix wrapper, kept as
// differential oracles for the production code (batch/batch_problem.cpp,
// batch/batch_scheduler.cpp, batch/suffix_wrapper.cpp).
//
//  - batch_object / exec_of: linear id lookups (first match) for tests that
//    check hand-built problems and results.
//  - sorted_chain_evaluate: chain_evaluate over an id-sorted cursor table
//    with a binary search per access (of duplicate object ids the last one
//    listed wins). Must return exactly what chain_evaluate returns.
//  - map_check_batch_result: check_batch_result over std::map tables
//    (txn -> exec, obj -> cursor, obj -> users). Must accept and reject
//    exactly the inputs the production check does.
//  - rebuild_exec_order / rebuild_availability_after_prefix: the suffix
//    wrapper's per-start picture built from scratch (map + stable sort).
//  - RebuildSuffixWrapper: SuffixWrapper::schedule with the whole picture
//    rebuilt for every suffix start. Same inner calls, same inputs, same
//    adoption rule, so on every input it returns the production result.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "batch/suffix_wrapper.hpp"

namespace dtm {

[[nodiscard]] const BatchObject& batch_object(const BatchProblem& p,
                                              ObjId id);
[[nodiscard]] Time exec_of(const BatchResult& r, TxnId id);

[[nodiscard]] BatchResult sorted_chain_evaluate(
    const BatchProblem& p, const std::vector<std::size_t>& order);

void map_check_batch_result(const BatchProblem& p, const BatchResult& r);

/// Indices into p.txns ordered by assigned execution time (ties by id).
[[nodiscard]] std::vector<std::size_t> rebuild_exec_order(
    const BatchProblem& p, const BatchResult& r);

/// Availability each object has after the first `prefix_len` transactions
/// of `r` (ordered by execution time) have run, sorted by object id.
[[nodiscard]] std::vector<BatchObject> rebuild_availability_after_prefix(
    const BatchProblem& p, const BatchResult& r, std::size_t prefix_len);

class RebuildSuffixWrapper final : public BatchScheduler {
 public:
  explicit RebuildSuffixWrapper(std::shared_ptr<const BatchScheduler> inner,
                                SuffixWrapperOptions opts = {})
      : inner_(std::move(inner)), opts_(opts) {}

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override;
  [[nodiscard]] std::string name() const override {
    return inner_->name() + "+suffix-rebuild";
  }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }

 private:
  std::shared_ptr<const BatchScheduler> inner_;
  SuffixWrapperOptions opts_;
};

}  // namespace dtm
