#include "batch/batch_problem.hpp"

#include <algorithm>

namespace dtm {

const BatchObject& BatchProblem::object(ObjId id) const {
  const auto it =
      std::find_if(objects.begin(), objects.end(),
                   [id](const BatchObject& o) { return o.id == id; });
  DTM_CHECK(it != objects.end(), "batch problem missing object " << id);
  return *it;
}

Time BatchResult::exec_of(TxnId id) const {
  const auto it =
      std::find_if(assignments.begin(), assignments.end(),
                   [id](const Assignment& a) { return a.txn == id; });
  DTM_CHECK(it != assignments.end(), "batch result missing txn " << id);
  return it->exec;
}

std::vector<Time> exec_per_txn(const BatchProblem& p, const BatchResult& r) {
  std::vector<Assignment> by_id = r.assignments;
  // Stable by id so the first assignment of a txn wins, as in exec_of.
  std::stable_sort(
      by_id.begin(), by_id.end(),
      [](const Assignment& a, const Assignment& b) { return a.txn < b.txn; });
  std::vector<Time> out;
  out.reserve(p.txns.size());
  for (const auto& t : p.txns) {
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(), t.id,
        [](const Assignment& a, TxnId id) { return a.txn < id; });
    DTM_CHECK(it != by_id.end() && it->txn == t.id,
              "batch result missing txn " << t.id);
    out.push_back(it->exec);
  }
  return out;
}

void check_batch_result(const BatchProblem& p, const BatchResult& r) {
  DTM_CHECK(r.assignments.size() == p.txns.size(),
            "batch result has " << r.assignments.size() << " assignments for "
                                << p.txns.size() << " txns");
  // Sorted flat tables with thread_local scratch, like chain_evaluate's
  // cursors: this check runs on every batch result, and the former
  // std::map version was the largest single cost of a bucket run.
  static thread_local std::vector<Assignment> exec;
  exec.clear();
  for (const auto& a : r.assignments) {
    DTM_CHECK(a.exec >= p.now,
              "txn " << a.txn << " scheduled at " << a.exec << " < now "
                     << p.now);
    exec.push_back(a);
  }
  std::sort(exec.begin(), exec.end(),
            [](const Assignment& a, const Assignment& b) {
              return a.txn < b.txn;
            });
  for (std::size_t i = 1; i < exec.size(); ++i)
    DTM_CHECK(exec[i - 1].txn != exec[i].txn,
              "duplicate assignment for txn " << exec[i].txn);

  // Per-object chain feasibility from the availability point. Objects are
  // id-sorted; of duplicate ids the last one listed wins.
  struct Cursor {
    ObjId id;
    NodeId node;
    Time free_at;
    bool from_txn;
  };
  static thread_local std::vector<Cursor> cur;
  cur.clear();
  for (const auto& o : p.objects)
    cur.push_back({o.id, o.node, o.ready, o.from_txn});
  std::stable_sort(
      cur.begin(), cur.end(),
      [](const Cursor& a, const Cursor& b) { return a.id < b.id; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cur.size(); ++i) {
    if (i + 1 < cur.size() && cur[i + 1].id == cur[i].id) continue;
    cur[kept++] = cur[i];
  }
  cur.resize(kept);

  // Walk the txns in (exec, id) order, so each object's cursor meets its
  // users in chain order — the per-object sort, done once for all objects.
  struct Slot {
    Time exec;
    TxnId id;
    std::size_t idx;
  };
  static thread_local std::vector<Slot> order;
  order.clear();
  Time max_exec = p.now;
  for (std::size_t i = 0; i < p.txns.size(); ++i) {
    const TxnId id = p.txns[i].id;
    const auto it = std::lower_bound(
        exec.begin(), exec.end(), id,
        [](const Assignment& a, TxnId v) { return a.txn < v; });
    DTM_CHECK(it != exec.end() && it->txn == id,
              "txn " << id << " not assigned");
    max_exec = std::max(max_exec, it->exec);
    order.push_back({it->exec, id, i});
  }
  std::sort(order.begin(), order.end(), [](const Slot& a, const Slot& b) {
    if (a.exec != b.exec) return a.exec < b.exec;
    if (a.id != b.id) return a.id < b.id;
    return a.idx < b.idx;
  });
  for (const Slot& s : order) {
    const BatchTxn& t = p.txns[s.idx];
    for (const ObjId o : t.objects) {
      const auto c = std::lower_bound(
          cur.begin(), cur.end(), o,
          [](const Cursor& x, ObjId v) { return x.id < v; });
      DTM_CHECK(c != cur.end() && c->id == o,
                "object " << o << " not in problem");
      Time needed = c->free_at + p.travel(c->node, t.node);
      if (c->from_txn) needed = std::max(needed, c->free_at + 1);
      DTM_CHECK(s.exec >= needed,
                "object " << o << ": txn " << t.id << " at " << s.exec
                          << " unreachable before " << needed);
      *c = {o, t.node, s.exec, true};
    }
  }
  DTM_CHECK(r.makespan == max_exec - p.now,
            "makespan " << r.makespan << " != " << max_exec - p.now);
}

}  // namespace dtm
