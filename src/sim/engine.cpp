#include "sim/engine.hpp"

#include <algorithm>

namespace dtm {

SyncEngine::SyncEngine(std::shared_ptr<const DistanceOracle> oracle,
                       std::vector<ObjectOrigin> origins, Options opts)
    : oracle_([&] {
        DTM_REQUIRE(oracle != nullptr, "engine needs a distance oracle");
        return std::move(oracle);
      }()),
      opts_(opts),
      store_(std::move(origins), *oracle_),
      transport_(
          std::make_unique<SyncObjectTransport>(store_, *oracle_, opts_)) {
  DTM_REQUIRE(opts_.latency_factor >= 1,
              "latency factor " << opts_.latency_factor);
  DTM_REQUIRE(opts_.threads >= 0, "engine threads " << opts_.threads);
}

const ObjectState& SyncEngine::object(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  DTM_REQUIRE(e != nullptr, "unknown object " << o);
  return e->state;
}

const Transaction& SyncEngine::txn(TxnId t) const {
  const auto it = store_.live().find(t);
  DTM_REQUIRE(it != store_.live().end(), "txn " << t << " is not live");
  return it->second.txn;
}

Time SyncEngine::assigned_exec(TxnId t) const {
  const auto it = store_.live().find(t);
  DTM_REQUIRE(it != store_.live().end(), "txn " << t << " is not live");
  return it->second.exec;
}

std::span<const TxnId> SyncEngine::live_users_of(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  if (e == nullptr) return {};
  return e->users;
}

ScheduledUser SyncEngine::latest_scheduled_user(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  if (e == nullptr) return {};
  return {e->pin_user, e->pin_exec, e->pin_node};
}

void SyncEngine::begin_step(std::span<const Transaction> arrivals) {
  const Time now = clock_.now();
  for (const Transaction& t : arrivals) {
    DTM_REQUIRE(t.gen_time == now, "arrival " << t.id << " gen "
                                              << t.gen_time << " at step "
                                              << now);
    DTM_REQUIRE(t.node >= 0 && t.node < oracle_->num_nodes(),
                "txn " << t.id << " node " << t.node);
    DTM_REQUIRE(!t.accesses.empty(), "txn " << t.id << " requests nothing");
    for (const auto& a : t.accesses)
      DTM_REQUIRE(store_.find_obj(a.obj) != nullptr,
                  "txn " << t.id << " requests unknown object " << a.obj);
    store_.add_live(t);
  }
}

void SyncEngine::apply(std::span<const Assignment> assignments) {
  auto& live = store_.live();
  const Time now = clock_.now();
  for (const Assignment& a : assignments) {
    const auto it = live.find(a.txn);
    DTM_REQUIRE(it != live.end(), "assignment for non-live txn " << a.txn);
    DTM_REQUIRE(it->second.exec == kNoTime,
                "txn " << a.txn << " already scheduled (schedules are "
                       "irrevocable)");
    DTM_REQUIRE(a.exec >= now, "txn " << a.txn << " scheduled in the past ("
                                      << a.exec << " < " << now << ")");
    it->second.exec = a.exec;
    clock_.schedule(a.exec, a.txn);
    for (const auto& acc : it->second.txn.accesses) {
      auto& e = store_.obj_entry(acc.obj);
      // A fresh entry can only lower the cached min; an empty heap means no
      // live scheduled user existed, so the entry IS the min (see the
      // ObjEntry invariant).
      const bool was_empty = e.sched.empty();
      e.sched.emplace(a.exec, a.txn);
      if (was_empty ||
          (e.best_user != kNoTxn &&
           (a.exec < e.best_exec ||
            (a.exec == e.best_exec && a.txn < e.best_user)))) {
        e.best_user = a.txn;
        e.best_exec = a.exec;
        e.best_node = it->second.txn.node;
      }
      if (a.exec > e.pin_exec) {
        e.pin_user = a.txn;
        e.pin_exec = a.exec;
        e.pin_node = it->second.txn.node;
      }
    }
  }
  // Re-route after all assignments land so each object sees the final
  // earliest-deadline user of this step. The request list goes through
  // reroute_many so the transport can shard it by object ownership.
  reroute_scratch_.clear();
  for (const Assignment& a : assignments)
    for (const auto& acc : live.at(a.txn).txn.accesses)
      reroute_scratch_.push_back(acc.obj);
  transport_->reroute_many(reroute_scratch_, now);
}

std::vector<SyncEngine::Commit> SyncEngine::finish_step() {
  const Time now = clock_.now();
  auto& live = store_.live();
  due_scratch_.clear();
  transport_->settle_arrivals(now);
  // Equal-time entries pop in ascending id order; pop_due also asserts no
  // entry missed its step.
  clock_.pop_due(due_scratch_);

  // Fire everyone due now. Two due transactions sharing an object would be
  // an invalid schedule — the presence check below can only pass for one of
  // them, and the engine flags the other.
  std::vector<Commit> commits;
  commits.reserve(due_scratch_.size());
  std::vector<ObjId>& released = released_scratch_;
  released.clear();
  for (const TxnId id : due_scratch_) {
    const auto lit = live.find(id);
    const TxnStore::LiveTxn& lt = lit->second;
    for (const auto& acc : lt.txn.accesses) {
      TxnStore::ObjEntry& e = store_.obj_entry(acc.obj);
      // One commit per object per step: even two transactions on the same
      // node must serialize on a shared object (the model's conflict
      // semantics; matches validate_schedule's tie rule).
      DTM_CHECK(e.consumed_at != now,
                "object " << acc.obj << " used by two transactions at step "
                          << now << " (txn " << id << ")");
      e.consumed_at = now;
      e.state.settle(now);
      DTM_CHECK(!e.state.in_transit() && e.state.at() == lt.txn.node,
                "txn " << id << " executing at step " << now << " on node "
                       << lt.txn.node << " lacks object " << acc.obj
                       << (e.state.in_transit()
                               ? " (in transit)"
                               : " (resting at node " +
                                     std::to_string(e.state.at()) + ")"));
      e.state.set_last_txn(id);
      released.push_back(acc.obj);
    }
    commits.push_back({id, lt.txn.node, lt.txn.gen_time, lt.exec});
    store_.commit(lit, lt.exec);
  }
  // Forward released objects to their next scheduled user.
  transport_->reroute_many(released, now);
  clock_.tick();
  return commits;
}

void SyncEngine::advance_to(Time t) {
  DTM_REQUIRE(t >= clock_.now(),
              "advance_to(" << t << ") before now " << clock_.now());
  const Time due = next_exec_due();
  DTM_CHECK(due == kNoTime || due >= t,
            "advance_to(" << t << ") would skip execution at " << due);
  clock_.advance_to(t);
}

}  // namespace dtm
