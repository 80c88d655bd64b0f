#include "ref/naive_insertion.hpp"

#include "util/check.hpp"

namespace dtm {

NaiveInsertion::NaiveInsertion(std::shared_ptr<const BatchScheduler> algo,
                               std::uint64_t seed)
    : algo_(std::move(algo)), seed_(seed) {
  DTM_REQUIRE(algo_ != nullptr, "naive insertion needs a batch algo");
}

std::int32_t NaiveInsertion::choose_level(
    const SystemView& view, const Transaction& t, std::int32_t top,
    const BucketInsertionCore::LevelFn& levels,
    const ExtraAssignments& extra) {
  for (std::int32_t i = 0; i <= top; ++i) {
    builder_.build(view, levels(i).members, t.id, extra, scratch_);
    const Time f = estimate_fa_seeded(
        *algo_, scratch_, probe_seed(seed_, problem_fingerprint(scratch_)));
    if (f <= (Time{1} << i)) return i;
  }
  return top;
}

const BatchProblem& NaiveInsertion::activation_problem(
    const SystemView& view, std::span<const TxnId> members,
    const ExtraAssignments& extra) {
  builder_.build(view, members, kNoTxn, extra, scratch_);
  return scratch_;
}

void NaiveInsertion::on_level(const SystemView& view, const Transaction& t,
                              std::int32_t top,
                              const BucketInsertionCore::LevelFn& levels,
                              const ExtraAssignments& extra,
                              std::int32_t chosen) {
  ++level_checks_;
  const std::int32_t naive = choose_level(view, t, top, levels, extra);
  DTM_CHECK(naive == chosen, "insertion core chose level "
                                 << chosen << " for txn " << t.id
                                 << ", the verbatim scan chose " << naive);
}

void NaiveInsertion::on_activation(const SystemView& view,
                                   std::span<const TxnId> members,
                                   const ExtraAssignments& extra,
                                   const BatchProblem& p) {
  ++activation_checks_;
  const BatchProblem& fresh = activation_problem(view, members, extra);
  DTM_CHECK(problem_fingerprint(fresh) == problem_fingerprint(p),
            "cached activation problem of " << members.size()
                                            << " members diverged from a "
                                               "fresh build at step "
                                            << view.now());
}

}  // namespace dtm
