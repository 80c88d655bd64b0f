// NaiveInsertion — the paper's Algorithm 2 insertion rule transcribed
// verbatim, as a differential oracle for the production insertion core
// (batch/bucket_insertion).
//
// Every probe rebuilds B_i ∪ {t} from scratch with ProblemBuilder and runs
// A from level 0 upward: no cached problems, no memo, no lower-bound start
// level, no wave probing. Estimates draw from the same derived streams as
// the core (probe_seed over the fresh build's fingerprint), so on every
// input the two must choose the same level.
//
// Plugged into a scheduler as its BucketInsertionCore::Audit, the oracle
// re-derives every level choice and DTM_CHECKs the core's; at every
// activation it checks that the core's cached problem fingerprints equal
// to a fresh build. A divergence throws CheckError naming the transaction
// or bucket. The check counters let a suite prove it was not vacuous.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "batch/bucket_insertion.hpp"

namespace dtm {

class NaiveInsertion final : public BucketInsertionCore::Audit {
 public:
  /// `seed` must be the audited scheduler's seed (its probe streams).
  NaiveInsertion(std::shared_ptr<const BatchScheduler> algo,
                 std::uint64_t seed);

  /// Lowest level i in [0, top] with F_A(B_i ∪ {t}) <= 2^i, or top when
  /// none fits — each probe a fresh build.
  [[nodiscard]] std::int32_t choose_level(
      const SystemView& view, const Transaction& t, std::int32_t top,
      const BucketInsertionCore::LevelFn& levels,
      const ExtraAssignments& extra);

  /// Fresh build of the activation problem for `members`. The reference
  /// stays valid until the next call.
  [[nodiscard]] const BatchProblem& activation_problem(
      const SystemView& view, std::span<const TxnId> members,
      const ExtraAssignments& extra);

  void on_level(const SystemView& view, const Transaction& t,
                std::int32_t top, const BucketInsertionCore::LevelFn& levels,
                const ExtraAssignments& extra, std::int32_t chosen) override;
  void on_activation(const SystemView& view, std::span<const TxnId> members,
                     const ExtraAssignments& extra,
                     const BatchProblem& p) override;

  [[nodiscard]] std::int64_t level_checks() const { return level_checks_; }
  [[nodiscard]] std::int64_t activation_checks() const {
    return activation_checks_;
  }

 private:
  std::shared_ptr<const BatchScheduler> algo_;
  std::uint64_t seed_;
  ProblemBuilder builder_;
  BatchProblem scratch_;
  std::int64_t level_checks_ = 0;
  std::int64_t activation_checks_ = 0;
};

}  // namespace dtm
