#include "batch/suffix_wrapper.hpp"

#include <algorithm>
#include <map>

namespace dtm {

namespace {

/// Indices into p.txns ordered by assigned execution time (ties by id).
std::vector<std::size_t> exec_order(const BatchProblem& p,
                                    const BatchResult& r) {
  std::map<TxnId, Time> exec;
  for (const auto& a : r.assignments) exec[a.txn] = a.exec;
  std::vector<std::size_t> order(p.txns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Time ea = exec.at(p.txns[a].id);
                     const Time eb = exec.at(p.txns[b].id);
                     if (ea != eb) return ea < eb;
                     return p.txns[a].id < p.txns[b].id;
                   });
  return order;
}

}  // namespace

std::vector<BatchObject> SuffixWrapper::availability_after_prefix(
    const BatchProblem& p, const BatchResult& r, std::size_t prefix_len) {
  const auto order = exec_order(p, r);
  DTM_REQUIRE(prefix_len <= order.size(), "prefix " << prefix_len);
  std::map<ObjId, BatchObject> avail;
  for (const auto& o : p.objects) avail[o.id] = o;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    const BatchTxn& t = p.txns[order[i]];
    const Time e = r.exec_of(t.id);
    for (const ObjId o : t.objects) avail[o] = {o, t.node, e, true};
  }
  std::vector<BatchObject> out;
  out.reserve(avail.size());
  for (const auto& [_, o] : avail) out.push_back(o);
  return out;
}

BatchResult SuffixWrapper::schedule(const BatchProblem& p, Rng& rng) const {
  BatchResult cur = inner_->schedule(p, rng);
  const std::size_t n = p.txns.size();
  if (n <= 1) return cur;
  std::int32_t budget = opts_.max_inner_calls > 0
                            ? opts_.max_inner_calls
                            : static_cast<std::int32_t>(4 * n + 8);

  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    const auto order = exec_order(p, cur);
    // Longest proper suffix first, as in the paper.
    for (std::size_t start = 1; start < n && budget > 0; ++start) {
      BatchProblem sub;
      sub.oracle = p.oracle;
      sub.latency_factor = p.latency_factor;
      sub.now = p.now;
      sub.objects = availability_after_prefix(p, cur, start);
      for (std::size_t i = start; i < n; ++i)
        sub.txns.push_back(p.txns[order[i]]);
      --budget;
      const BatchResult redo = inner_->schedule(sub, rng);
      Time span = 0;
      for (std::size_t i = start; i < n; ++i)
        span = std::max(span, cur.exec_of(p.txns[order[i]].id) - p.now);
      if (redo.makespan < span) {
        // Adopt the tighter suffix schedule; prefix stays untouched.
        std::map<TxnId, Time> exec;
        for (const auto& a : cur.assignments) exec[a.txn] = a.exec;
        for (const auto& a : redo.assignments) exec[a.txn] = a.exec;
        cur.assignments.clear();
        cur.makespan = 0;
        for (const auto& t : p.txns) {
          cur.assignments.push_back({t.id, exec.at(t.id)});
          cur.makespan = std::max(cur.makespan, exec.at(t.id) - p.now);
        }
        check_batch_result(p, cur);
        changed = true;
        break;  // exec order changed: restart from the longest suffix
      }
    }
  }
  check_batch_result(p, cur);
  return cur;
}

}  // namespace dtm
