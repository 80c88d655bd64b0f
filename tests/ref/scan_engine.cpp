#include "ref/scan_engine.hpp"

#include <algorithm>
#include <set>

namespace dtm {

ScanEngine::ScanEngine(std::shared_ptr<const DistanceOracle> oracle,
                       std::vector<ObjectOrigin> origins, EngineOptions opts)
    : oracle_(std::move(oracle)),
      opts_(opts),
      store_(std::move(origins), *oracle_),
      stall_rng_(opts_.fault.transport_rng()) {}

const ObjectState& ScanEngine::object(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  DTM_REQUIRE(e != nullptr, "unknown object " << o);
  return e->state;
}

const Transaction& ScanEngine::txn(TxnId t) const {
  return store_.live().at(t).txn;
}

Time ScanEngine::assigned_exec(TxnId t) const {
  return store_.live().at(t).exec;
}

std::span<const TxnId> ScanEngine::live_users_of(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  if (e == nullptr) return {};
  return e->users;
}

void ScanEngine::begin_step(std::span<const Transaction> arrivals) {
  for (const Transaction& t : arrivals) store_.add_live(t);
}

void ScanEngine::apply(std::span<const Assignment> assignments) {
  auto& live = store_.live();
  for (const Assignment& a : assignments) {
    auto& lt = live.at(a.txn);
    DTM_CHECK(lt.exec == kNoTime && a.exec >= now_,
              "scan oracle: bad assignment for txn " << a.txn);
    lt.exec = a.exec;
  }
  for (const Assignment& a : assignments)
    for (const auto& acc : live.at(a.txn).txn.accesses) reroute(acc.obj);
}

std::vector<SyncEngine::Commit> ScanEngine::finish_step() {
  auto& live = store_.live();
  for (auto& e : store_.objects()) e.state.settle(now_);
  std::vector<TxnId> due;
  for (const auto& [id, lt] : live) {
    DTM_CHECK(lt.exec == kNoTime || lt.exec >= now_,
              "scan oracle: txn " << id << " missed its execution step "
                                  << lt.exec << " (now " << now_ << ")");
    if (lt.exec == now_) due.push_back(id);
  }

  std::vector<SyncEngine::Commit> commits;
  std::vector<ObjId> released;
  std::set<ObjId> consumed_this_step;
  for (const TxnId id : due) {
    const auto lit = live.find(id);
    const TxnStore::LiveTxn& lt = lit->second;
    for (const auto& acc : lt.txn.accesses) {
      DTM_CHECK(consumed_this_step.insert(acc.obj).second,
                "scan oracle: object " << acc.obj << " used twice at step "
                                       << now_);
      ObjectState& s = store_.obj_entry(acc.obj).state;
      DTM_CHECK(!s.in_transit() && s.at() == lt.txn.node,
                "scan oracle: txn " << id << " at step " << now_
                                    << " lacks object " << acc.obj);
      s.set_last_txn(id);
      released.push_back(acc.obj);
    }
    commits.push_back({id, lt.txn.node, lt.txn.gen_time, lt.exec});
    store_.commit(lit, lt.exec);
  }
  for (const ObjId o : released) reroute(o);
  ++now_;
  return commits;
}

void ScanEngine::advance_to(Time t) {
  const Time due = next_exec_due();
  DTM_CHECK(t >= now_ && (due == kNoTime || due >= t),
            "scan oracle: advance_to(" << t << ") from " << now_
                                       << " with execution due at " << due);
  now_ = t;
}

Time ScanEngine::next_exec_due() const {
  Time due = kNoTime;
  for (const auto& [_, lt] : store_.live()) {
    if (lt.exec == kNoTime) continue;
    due = due == kNoTime ? lt.exec : std::min(due, lt.exec);
  }
  return due;
}

void ScanEngine::reroute(ObjId o) {
  TxnStore::ObjEntry& e = store_.obj_entry(o);
  const auto& live = store_.live();
  TxnId best = kNoTxn;
  Time best_exec = kNoTime;
  for (const TxnId uid : e.users) {
    const Time ex = live.at(uid).exec;
    if (ex == kNoTime) continue;
    if (best == kNoTxn || ex < best_exec || (ex == best_exec && uid < best)) {
      best = uid;
      best_exec = ex;
    }
  }
  if (best == kNoTxn) return;
  ObjectState& s = e.state;
  const bool was_transit = s.in_transit();
  const NodeId old_to = was_transit ? s.dest() : kNoNode;
  const Time old_depart = was_transit ? s.depart_time() : kNoTime;
  const Time old_arrive = was_transit ? s.arrive_time() : kNoTime;
  s.route_to(live.at(best).txn.node, now_, *oracle_, opts_.latency_factor);
  const bool fresh_leg =
      s.in_transit() && (!was_transit || s.dest() != old_to ||
                         s.depart_time() != old_depart ||
                         s.arrive_time() != old_arrive);
  // One stall draw per fresh leg, capped by the slack before `best` runs.
  if (opts_.fault.stall <= 0.0 || !fresh_leg ||
      !stall_rng_.bernoulli(opts_.fault.stall))
    return;
  const Time slack = best_exec - s.arrive_time();
  if (slack <= 0) return;
  s.delay_arrival(
      std::min<Time>(slack, stall_rng_.uniform_int(1, opts_.fault.stall_max)));
}

}  // namespace dtm
