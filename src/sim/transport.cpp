#include "sim/transport.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace dtm {

TxnId SyncObjectTransport::reroute_target(TxnStore::ObjEntry& e) {
  // O(1) hit path: the cache, when set, IS the min (exec, id) over live
  // scheduled users (maintained by the engine on assignment and cleared by
  // the store when the cached transaction commits — see ObjEntry).
  if (e.best_user != kNoTxn) return e.best_user;
  // Miss: re-derive from the heap. Entries go stale only when their
  // transaction commits (assignments are irrevocable), so the first live
  // top is the earliest scheduled user — ties broken by id through the
  // (exec, id) heap order — and it refills the cache.
  while (!e.sched.empty()) {
    const auto [exec, uid] = e.sched.top();
    const auto it = store_->live().find(uid);
    if (it != store_->live().end()) {
      e.best_user = uid;
      e.best_exec = exec;
      e.best_node = it->second.txn.node;
      return uid;
    }
    e.sched.pop();
  }
  return kNoTxn;
}

void SyncObjectTransport::reroute(ObjId o, Time now) {
  reroute_impl(store_->obj_entry(o), now, nullptr);
}

void SyncObjectTransport::reroute_impl(TxnStore::ObjEntry& e, Time now,
                                       SettleBuffer* out) {
  const TxnId best = reroute_target(e);
  if (best == kNoTxn) return;
  // Leg signature before routing, to detect a genuinely new/redirected leg.
  const bool was_transit = e.state.in_transit();
  const NodeId old_to = was_transit ? e.state.dest() : kNoNode;
  const Time old_depart = was_transit ? e.state.depart_time() : kNoTime;
  const Time old_arrive = was_transit ? e.state.arrive_time() : kNoTime;
  // reroute_target always leaves the cache holding `best`, so its node
  // spares the live-map lookup.
  e.state.route_to(e.best_node, now, *oracle_, opts_.latency_factor);
  if (stalling_ && e.state.in_transit() &&
      (!was_transit || e.state.dest() != old_to ||
       e.state.depart_time() != old_depart ||
       e.state.arrive_time() != old_arrive))
    maybe_stall(e, best);
  if (e.state.in_transit()) {
    if (out != nullptr)
      out->emplace_back(e.state.arrive_time(), store_->obj_index(e));
    else
      settle_queue_.emplace(e.state.arrive_time(), store_->obj_index(e));
  }
}

void SyncObjectTransport::reroute_many(std::span<const ObjId> objs, Time now) {
  const unsigned shards = std::min<std::uint64_t>(
      {resolve_threads(opts_.threads), objs.size(), 64});
  // Stall injection draws one RNG value per fresh leg in request order —
  // a shared sequential stream — so an active stall plan forces the serial
  // path (chaos runs are thread-count-invariant by construction).
  if (shards <= 1 || stalling_) {
    for (const ObjId o : objs) reroute(o, now);
    return;
  }
  // Ownership sharding: object with dense index i belongs to worker
  // i % shards. Every worker scans the full request list and handles only
  // its own objects, preserving each object's request order, so the final
  // per-object state is identical to the serial loop's. Settle pushes are
  // buffered per worker and merged after the barrier — the queue is a heap
  // keyed on unique (time, index) pairs, so insertion order is invisible.
  shard_idx_.clear();
  shard_idx_.reserve(objs.size());
  for (const ObjId o : objs)
    shard_idx_.push_back(store_->obj_index(store_->obj_entry(o)));
  if (shard_settles_.size() < shards) shard_settles_.resize(shards);
  ThreadPool::shared().run(
      shards,
      [&](std::int64_t w) {
        SettleBuffer& buf = shard_settles_[static_cast<std::size_t>(w)];
        buf.clear();
        for (std::size_t r = 0; r < shard_idx_.size(); ++r) {
          if (shard_idx_[r] % static_cast<std::int32_t>(shards) != w)
            continue;
          reroute_impl(store_->obj_at(shard_idx_[r]), now, &buf);
        }
      },
      shards, 1);
  for (unsigned w = 0; w < shards; ++w)
    for (const auto& [at, idx] : shard_settles_[w])
      settle_queue_.emplace(at, idx);
}

void SyncObjectTransport::maybe_stall(TxnStore::ObjEntry& e, TxnId best) {
  // One draw per fresh leg (no-op reroutes never reach here, so repeated
  // reroutes toward an unchanged target cannot compound stalls). Reroute
  // order is fixed by the engine, so the draw sequence — and hence the whole
  // simulation — is reproducible from the plan alone.
  if (!stall_rng_.bernoulli(opts_.fault.stall)) return;
  // The stall may consume at most the slack before the earliest scheduled
  // user runs: schedules already committed to by ANY policy remain feasible,
  // and time_to()'s two-route bound stays valid on the stretched leg.
  const Time slack = store_->live().at(best).exec - e.state.arrive_time();
  if (slack <= 0) return;
  const Time extra =
      std::min<Time>(slack, stall_rng_.uniform_int(1, opts_.fault.stall_max));
  e.state.delay_arrival(extra);
  ++stalls_;
  stall_steps_ += extra;
}

void SyncObjectTransport::settle_arrivals(Time now) {
  while (!settle_queue_.empty() && settle_queue_.top().first <= now) {
    store_->obj_at(settle_queue_.top().second).state.settle(now);
    settle_queue_.pop();
  }
}

}  // namespace dtm
