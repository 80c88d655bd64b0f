#include "batch/suffix_wrapper.hpp"

#include <algorithm>
#include <numeric>

namespace dtm {

BatchResult SuffixWrapper::schedule(const BatchProblem& p, Rng& rng) const {
  BatchResult cur = inner_->schedule(p, rng);
  const std::size_t n = p.txns.size();
  if (n <= 1) return cur;
  std::int32_t budget = opts_.max_inner_calls > 0
                            ? opts_.max_inner_calls
                            : static_cast<std::int32_t>(4 * n + 8);

  // Availability before any prefix, id-sorted (object ids are distinct, as
  // ProblemBuilder emits them).
  std::vector<BatchObject> initial = p.objects;
  std::sort(initial.begin(), initial.end(),
            [](const BatchObject& a, const BatchObject& b) {
              return a.id < b.id;
            });

  std::vector<std::size_t> order(n);
  std::vector<Time> span(n + 1);
  BatchProblem sub;
  sub.oracle = p.oracle;
  sub.latency_factor = p.latency_factor;
  sub.now = p.now;

  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    // One sweep per pass: the execution order, the suffix spans, and the
    // sub-problem are computed once and advanced by one prefix txn per
    // suffix start, instead of being rebuilt for every start.
    std::vector<Time> exec = exec_per_txn(p, cur);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (exec[a] != exec[b]) return exec[a] < exec[b];
      if (p.txns[a].id != p.txns[b].id) return p.txns[a].id < p.txns[b].id;
      return a < b;
    });
    span[n] = 0;
    for (std::size_t i = n; i-- > 0;)
      span[i] = std::max(span[i + 1], exec[order[i]] - p.now);
    sub.objects = initial;
    sub.txns.clear();
    for (std::size_t i = 1; i < n; ++i) sub.txns.push_back(p.txns[order[i]]);

    // Longest proper suffix first, as in the paper.
    for (std::size_t start = 1; start < n && budget > 0; ++start) {
      if (start > 1) sub.txns.erase(sub.txns.begin());
      const BatchTxn& done = p.txns[order[start - 1]];
      for (const ObjId o : done.objects) {
        const auto it = std::lower_bound(
            sub.objects.begin(), sub.objects.end(), o,
            [](const BatchObject& x, ObjId v) { return x.id < v; });
        const BatchObject moved{o, done.node, exec[order[start - 1]], true};
        if (it != sub.objects.end() && it->id == o)
          *it = moved;
        else
          sub.objects.insert(it, moved);
      }
      --budget;
      const BatchResult redo = inner_->schedule(sub, rng);
      if (redo.makespan < span[start]) {
        // Adopt the tighter suffix schedule; prefix stays untouched.
        const std::vector<Time> redo_exec = exec_per_txn(sub, redo);
        for (std::size_t i = start; i < n; ++i)
          exec[order[i]] = redo_exec[i - start];
        cur.assignments.clear();
        cur.makespan = 0;
        for (std::size_t i = 0; i < n; ++i) {
          cur.assignments.push_back({p.txns[i].id, exec[i]});
          cur.makespan = std::max(cur.makespan, exec[i] - p.now);
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
