#include "ref/batch_rebuild.hpp"

#include <algorithm>
#include <map>

namespace dtm {

const BatchObject& batch_object(const BatchProblem& p, ObjId id) {
  const auto it =
      std::find_if(p.objects.begin(), p.objects.end(),
                   [id](const BatchObject& o) { return o.id == id; });
  DTM_CHECK(it != p.objects.end(), "batch problem missing object " << id);
  return *it;
}

Time exec_of(const BatchResult& r, TxnId id) {
  const auto it =
      std::find_if(r.assignments.begin(), r.assignments.end(),
                   [id](const Assignment& a) { return a.txn == id; });
  DTM_CHECK(it != r.assignments.end(), "batch result missing txn " << id);
  return it->exec;
}

BatchResult sorted_chain_evaluate(const BatchProblem& p,
                                  const std::vector<std::size_t>& order) {
  DTM_REQUIRE(order.size() == p.txns.size(),
              "order size " << order.size() << " != " << p.txns.size());
  struct Cursor {
    ObjId id;
    NodeId node;
    Time free_at;
    bool from_txn;
  };
  std::vector<Cursor> cur;
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
  const auto find = [&](ObjId o) -> Cursor& {
    const auto it = std::lower_bound(
        cur.begin(), cur.end(), o,
        [](const Cursor& c, ObjId v) { return c.id < v; });
    DTM_CHECK(it != cur.end() && it->id == o,
              "object " << o << " missing from problem");
    return *it;
  };

  BatchResult r;
  for (const std::size_t idx : order) {
    const BatchTxn& t = p.txns[idx];
    Time e = p.now;
    for (const ObjId o : t.objects) {
      const Cursor& c = find(o);
      Time arrive = c.free_at + p.travel(c.node, t.node);
      if (c.from_txn) arrive = std::max(arrive, c.free_at + 1);
      e = std::max(e, arrive);
    }
    for (const ObjId o : t.objects) find(o) = {o, t.node, e, true};
    r.assignments.push_back({t.id, e});
    r.makespan = std::max(r.makespan, e - p.now);
  }
  return r;
}

void map_check_batch_result(const BatchProblem& p, const BatchResult& r) {
  DTM_CHECK(r.assignments.size() == p.txns.size(),
            "batch result has " << r.assignments.size() << " assignments for "
                                << p.txns.size() << " txns");
  std::map<TxnId, Time> exec;
  for (const auto& a : r.assignments) {
    DTM_CHECK(a.exec >= p.now,
              "txn " << a.txn << " scheduled at " << a.exec << " < now "
                     << p.now);
    DTM_CHECK(exec.emplace(a.txn, a.exec).second,
              "duplicate assignment for txn " << a.txn);
  }
  Time max_exec = p.now;

  struct Cursor {
    NodeId node;
    Time free_at;
    bool from_txn;
  };
  std::map<ObjId, Cursor> cur;
  for (const auto& o : p.objects)
    cur[o.id] = {o.node, o.ready, o.from_txn};

  struct User {
    Time exec;
    TxnId id;
    NodeId node;
  };
  std::map<ObjId, std::vector<User>> users;
  for (const auto& t : p.txns) {
    const auto it = exec.find(t.id);
    DTM_CHECK(it != exec.end(), "txn " << t.id << " not assigned");
    max_exec = std::max(max_exec, it->second);
    for (const ObjId o : t.objects)
      users[o].push_back({it->second, t.id, t.node});
  }
  for (auto& [obj, list] : users) {
    const auto cit = cur.find(obj);
    DTM_CHECK(cit != cur.end(), "object " << obj << " not in problem");
    std::sort(list.begin(), list.end(), [](const User& a, const User& b) {
      return a.exec < b.exec || (a.exec == b.exec && a.id < b.id);
    });
    Cursor c = cit->second;
    for (const auto& u : list) {
      Time needed = c.free_at + p.travel(c.node, u.node);
      if (c.from_txn) needed = std::max(needed, c.free_at + 1);
      DTM_CHECK(u.exec >= needed,
                "object " << obj << ": txn " << u.id << " at " << u.exec
                          << " unreachable before " << needed);
      c = {u.node, u.exec, true};
    }
  }
  DTM_CHECK(r.makespan == max_exec - p.now,
            "makespan " << r.makespan << " != " << max_exec - p.now);
}

std::vector<std::size_t> rebuild_exec_order(const BatchProblem& p,
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

std::vector<BatchObject> rebuild_availability_after_prefix(
    const BatchProblem& p, const BatchResult& r, std::size_t prefix_len) {
  const auto order = rebuild_exec_order(p, r);
  DTM_REQUIRE(prefix_len <= order.size(), "prefix " << prefix_len);
  std::map<ObjId, BatchObject> avail;
  for (const auto& o : p.objects) avail[o.id] = o;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    const BatchTxn& t = p.txns[order[i]];
    const Time e = exec_of(r, t.id);
    for (const ObjId o : t.objects) avail[o] = {o, t.node, e, true};
  }
  std::vector<BatchObject> out;
  out.reserve(avail.size());
  for (const auto& [_, o] : avail) out.push_back(o);
  return out;
}

BatchResult RebuildSuffixWrapper::schedule(const BatchProblem& p,
                                           Rng& rng) const {
  BatchResult cur = inner_->schedule(p, rng);
  const std::size_t n = p.txns.size();
  if (n <= 1) return cur;
  std::int32_t budget = opts_.max_inner_calls > 0
                            ? opts_.max_inner_calls
                            : static_cast<std::int32_t>(4 * n + 8);

  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    const auto order = rebuild_exec_order(p, cur);
    for (std::size_t start = 1; start < n && budget > 0; ++start) {
      BatchProblem sub;
      sub.oracle = p.oracle;
      sub.latency_factor = p.latency_factor;
      sub.now = p.now;
      sub.objects = rebuild_availability_after_prefix(p, cur, start);
      for (std::size_t i = start; i < n; ++i)
        sub.txns.push_back(p.txns[order[i]]);
      --budget;
      const BatchResult redo = inner_->schedule(sub, rng);
      Time span = 0;
      for (std::size_t i = start; i < n; ++i)
        span = std::max(span, exec_of(cur, p.txns[order[i]].id) - p.now);
      if (redo.makespan < span) {
        std::map<TxnId, Time> exec;
        for (const auto& a : cur.assignments) exec[a.txn] = a.exec;
        for (const auto& a : redo.assignments) exec[a.txn] = a.exec;
        cur.assignments.clear();
        cur.makespan = 0;
        for (const auto& t : p.txns) {
          cur.assignments.push_back({t.id, exec.at(t.id)});
          cur.makespan = std::max(cur.makespan, exec.at(t.id) - p.now);
        }
        map_check_batch_result(p, cur);
        changed = true;
        break;
      }
    }
  }
  map_check_batch_result(p, cur);
  return cur;
}

}  // namespace dtm
