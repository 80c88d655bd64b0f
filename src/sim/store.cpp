#include "sim/store.hpp"

#include <algorithm>

namespace dtm {

TxnStore::TxnStore(std::vector<ObjectOrigin> origins,
                   const DistanceOracle& oracle)
    : origins_(std::move(origins)) {
  objects_.reserve(origins_.size());
  for (const auto& o : origins_) {
    DTM_REQUIRE(o.node >= 0 && o.node < oracle.num_nodes(),
                "object " << o.id << " origin node " << o.node);
    DTM_REQUIRE(o.created <= 0, "objects must exist from the start of the "
                                "simulation (object " << o.id << ")");
    ObjEntry e;
    e.id = o.id;
    e.state = ObjectState(o.id, o.node, o.created);
    objects_.push_back(std::move(e));
  }
  std::sort(objects_.begin(), objects_.end(),
            [](const ObjEntry& a, const ObjEntry& b) { return a.id < b.id; });
  index_.reset(objects_.size());
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    std::int32_t& slot = index_.slot(objects_[i].id);
    DTM_CHECK(slot < 0, "duplicate object id " << objects_[i].id);
    slot = static_cast<std::int32_t>(i);
  }
}

void TxnStore::add_live(const Transaction& t) {
  const bool inserted = live_.emplace(t.id, LiveTxn{t, kNoTime}).second;
  DTM_CHECK(inserted, "duplicate txn id " << t.id);
  live_ids_dirty_ = true;
  for (const auto& a : t.accesses) obj_entry(a.obj).users.push_back(t.id);
}

void TxnStore::commit(std::map<TxnId, LiveTxn>::iterator it, Time exec) {
  LiveTxn lt = std::move(it->second);
  const TxnId id = lt.txn.id;
  for (const auto& acc : lt.txn.accesses) {
    auto& e = obj_entry(acc.obj);
    e.users.erase(std::remove(e.users.begin(), e.users.end(), id),
                  e.users.end());
    if (e.best_user == id) {
      // The cached reroute target was the committing transaction: the next
      // lookup re-derives the min from the heap.
      e.best_user = kNoTxn;
      e.best_exec = kNoTime;
      e.best_node = kNoNode;
    }
    if (e.pin_user == id) {
      e.pin_user = kNoTxn;
      e.pin_exec = kNoTime;
      e.pin_node = kNoNode;
    }
  }
  committed_.push_back({std::move(lt.txn), exec});
  live_.erase(it);
  live_ids_dirty_ = true;
}

std::span<const TxnId> TxnStore::live_ids() const {
  if (live_ids_dirty_) {
    live_ids_.clear();
    live_ids_.reserve(live_.size());
    for (const auto& [id, _] : live_) live_ids_.push_back(id);
    live_ids_dirty_ = false;
  }
  return live_ids_;
}

}  // namespace dtm
