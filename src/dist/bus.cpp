#include "dist/bus.hpp"

#include <algorithm>

namespace dtm {

void MessageBus::send(NodeId from, NodeId to, Time now, Payload payload) {
  deliver_at(from, to, now, now + oracle_->dist(from, to),
             std::move(payload));
}

void MessageBus::deliver_at(NodeId from, NodeId to, Time sent, Time deliver,
                            Payload payload) {
  DTM_REQUIRE(deliver >= sent, "bus delivery at " << deliver
                                                  << " before send " << sent);
  // The wheel additionally refuses deliver < its cursor (a time already
  // drained past) — the monotone-bus-time invariant documented in the
  // header.
  Message m;
  m.from = from;
  m.to = to;
  m.sent = sent;
  m.deliver = deliver;
  m.seq = seq_++;
  m.payload = std::move(payload);
  ++sent_;
  distance_ += oracle_->dist(from, to);
  wheel_.schedule(deliver, std::move(m));
}

void MessageBus::drain_into(Time now, std::vector<Message>& out) {
  out.clear();  // keeps capacity — persistent scratch stays warm
  // Wheel order is (time, insertion); seq is the insertion counter, so this
  // is exactly the old heap's (deliver, seq) order.
  wheel_.drain_until(now, out);
}

Time MessageBus::next_delivery() const { return wheel_.next_time(); }

// ---------------------------------------------------------------------------
// FaultyBus

namespace {

/// Heap payload bytes a duplicate deep copy would have carried.
std::int64_t dup_heap_bytes(const Payload& p) {
  if (const auto* reply = std::get_if<ReplyMsg>(&p))
    return static_cast<std::int64_t>(reply->users.size() *
                                     sizeof(ReplyUsers::value_type));
  return 0;
}

/// The duplicate's payload: full copy for trivially-copyable alternatives
/// (both probe copies chase, both report copies count), but a ReplyMsg
/// duplicate shares storage — it keeps the header fields the receiver's
/// dedup logic reads (requester, object, epoch, position) and leaves the
/// user list empty. Safe because the receiver identifies and drops every
/// non-first reply for an object *before* reading users, and the
/// first-processed copy — min (deliver, seq) — always carries the real
/// list (see FaultyBus::send).
Payload dup_shadow(const Payload& p) {
  if (const auto* reply = std::get_if<ReplyMsg>(&p)) {
    ReplyMsg shadow;
    shadow.requester = reply->requester;
    shadow.object = reply->object;
    shadow.object_node = reply->object_node;
    shadow.object_free_at = reply->object_free_at;
    shadow.epoch = reply->epoch;
    return shadow;
  }
  return p;
}

}  // namespace

FaultyBus::FaultyBus(const DistanceOracle& oracle, const FaultPlan& plan)
    : MessageBus(oracle),
      plan_(&plan),
      rng_(plan.bus_rng()),
      pauses_(plan.pause_windows(oracle.num_nodes())) {
  DTM_REQUIRE(!plan.is_null(),
              "FaultyBus needs a non-null plan (use MessageBus for the "
              "no-fault path)");
  plan.validate();
}

Time FaultyBus::release_time(NodeId node, Time t) const {
  Time out = t;
  // Windows can overlap; iterate to a fixed point (bounded by the window
  // count, which is tiny).
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& w : pauses_) {
      if (w.node == node && out >= w.start && out < w.end) {
        out = w.end;
        moved = true;
      }
    }
  }
  return out;
}

void FaultyBus::send(NodeId from, NodeId to, Time now, Payload payload) {
  ++fstats_.offered;
  // Draw order is fixed (drop, dup, then per-copy jitter) so the fault
  // sequence depends only on (plan seed, send sequence) — never on which
  // engine mode or drain order produced the sends.
  const bool dropped = plan_->drop > 0.0 && rng_.bernoulli(plan_->drop);
  const bool duplicated = plan_->dup > 0.0 && rng_.bernoulli(plan_->dup);
  const int copies = dropped ? (duplicated ? 1 : 0) : (duplicated ? 2 : 1);
  if (dropped) ++fstats_.dropped;
  if (duplicated) ++fstats_.duplicated;
  if (copies == 0) return;

  // Sender paused: the message leaves when the node resumes.
  Time depart = release_time(from, now);
  if (depart > now) ++fstats_.pause_deferred;

  Weight base = oracle().dist(from, to);
  if (plan_->link_degraded(from, to)) {
    base += plan_->degrade;
    ++fstats_.degraded;
  }

  // Per-copy jitter first (the draws must stay in copy order), then the
  // enqueues — so a duplicated reply can give its real payload to whichever
  // copy the receiver processes first.
  Time deliver[2] = {kNoTime, kNoTime};
  for (int c = 0; c < copies; ++c) {
    Time extra = 0;
    if (plan_->jitter > 0) {
      extra = rng_.uniform_int(0, plan_->jitter);
      fstats_.jitter_total += extra;
    }
    Time d = depart + base + extra;
    // Receiver paused at arrival: the delivery waits out the window.
    const Time released = release_time(to, d);
    if (released > d) {
      ++fstats_.pause_deferred;
      d = released;
    }
    deliver[c] = d;
  }

  if (copies == 1) {
    deliver_at(from, to, now, deliver[0], std::move(payload));
    return;
  }
  // Two copies. The receiver processes min (deliver, seq) first, and copy 0
  // takes the smaller seq below — so copy 0 wins ties. The winner carries
  // the real payload; the shadow shares (never copies) any heap storage.
  const int winner = deliver[0] <= deliver[1] ? 0 : 1;
  fstats_.bytes_duplicated += dup_heap_bytes(payload);
  Payload shadow = dup_shadow(payload);
  if (winner == 0) {
    deliver_at(from, to, now, deliver[0], std::move(payload));
    deliver_at(from, to, now, deliver[1], std::move(shadow));
  } else {
    deliver_at(from, to, now, deliver[0], std::move(shadow));
    deliver_at(from, to, now, deliver[1], std::move(payload));
  }
}

}  // namespace dtm
