#include "batch/batch_problem.hpp"

#include <algorithm>

namespace dtm {

void index_objects(const BatchProblem& p, IdIndex<ObjId>& index) {
  index.reset(p.objects.size());
  for (std::size_t i = 0; i < p.objects.size(); ++i)
    index.slot(p.objects[i].id) = static_cast<std::int32_t>(i);
}

std::vector<Time> exec_per_txn(const BatchProblem& p, const BatchResult& r) {
  static thread_local IdIndex<TxnId> slot_of;
  slot_of.reset(r.assignments.size());
  for (std::size_t i = 0; i < r.assignments.size(); ++i) {
    std::int32_t& s = slot_of.slot(r.assignments[i].txn);
    if (s < 0) s = static_cast<std::int32_t>(i);
  }
  std::vector<Time> out;
  out.reserve(p.txns.size());
  for (const auto& t : p.txns) {
    const std::int32_t s = slot_of.find(t.id);
    DTM_CHECK(s >= 0, "batch result missing txn " << t.id);
    out.push_back(r.assignments[static_cast<std::size_t>(s)].exec);
  }
  return out;
}

void check_batch_result(const BatchProblem& p, const BatchResult& r) {
  static thread_local IdIndex<ObjId> obj_slot;
  index_objects(p, obj_slot);
  detail::check_batch_result(p, r, obj_slot);
}

void detail::check_batch_result(const BatchProblem& p, const BatchResult& r,
                                const IdIndex<ObjId>& obj_slot) {
  DTM_CHECK(r.assignments.size() == p.txns.size(),
            "batch result has " << r.assignments.size() << " assignments for "
                                << p.txns.size() << " txns");
  // Id -> slot tables with thread_local scratch, like chain_evaluate's
  // cursors: this check runs on every batch result, so after warm-up it
  // allocates nothing and looks every id up in O(1).
  static thread_local IdIndex<TxnId> txn_slot;
  txn_slot.reset(r.assignments.size());
  for (std::size_t i = 0; i < r.assignments.size(); ++i) {
    const Assignment& a = r.assignments[i];
    DTM_CHECK(a.exec >= p.now,
              "txn " << a.txn << " scheduled at " << a.exec << " < now "
                     << p.now);
    std::int32_t& s = txn_slot.slot(a.txn);
    DTM_CHECK(s < 0, "duplicate assignment for txn " << a.txn);
    s = static_cast<std::int32_t>(i);
  }

  // Per-object chain feasibility from the availability point, one cursor
  // per listing; of duplicate ids the last one listed wins.
  struct Cursor {
    NodeId node;
    Time free_at;
    bool from_txn;
  };
  static thread_local std::vector<Cursor> cur;
  cur.clear();
  for (const auto& o : p.objects) cur.push_back({o.node, o.ready, o.from_txn});

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
    const std::int32_t s = txn_slot.find(id);
    DTM_CHECK(s >= 0, "txn " << id << " not assigned");
    const Time e = r.assignments[static_cast<std::size_t>(s)].exec;
    max_exec = std::max(max_exec, e);
    order.push_back({e, id, i});
  }
  std::sort(order.begin(), order.end(), [](const Slot& a, const Slot& b) {
    if (a.exec != b.exec) return a.exec < b.exec;
    if (a.id != b.id) return a.id < b.id;
    return a.idx < b.idx;
  });
  for (const Slot& s : order) {
    const BatchTxn& t = p.txns[s.idx];
    for (const ObjId o : t.objects) {
      const std::int32_t k = obj_slot.find(o);
      DTM_CHECK(k >= 0, "object " << o << " not in problem");
      Cursor& c = cur[static_cast<std::size_t>(k)];
      Time needed = c.free_at + p.travel(c.node, t.node);
      if (c.from_txn) needed = std::max(needed, c.free_at + 1);
      DTM_CHECK(s.exec >= needed,
                "object " << o << ": txn " << t.id << " at " << s.exec
                          << " unreachable before " << needed);
      c = {t.node, s.exec, true};
    }
  }
  DTM_CHECK(r.makespan == max_exec - p.now,
            "makespan " << r.makespan << " != " << max_exec - p.now);
}

}  // namespace dtm
