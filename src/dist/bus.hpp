// Typed message bus for the distributed scheduling protocol (paper §V).
//
// Messages travel point-to-point at one distance unit per step (the
// network's native speed; objects travel at half that, which is what makes
// probe chases terminate). Delivery is exact: a message sent at time t
// from u to v arrives at t + dist(u, v) and is handed to the recipient the
// first time the owner drains the bus at or after that step.
//
// The pending queue is a util/timing_wheel.hpp ring wheel (shared with the
// EventClock calendar — ARCHITECTURE.md §11): insert and pop are O(1) slot
// appends instead of heap percolation, and slot storage plus the caller's
// drain_into scratch retain capacity, so the steady-state send → drain loop
// performs zero heap allocations (the DTM_ALLOC_TRACK pins assert this).
// Pop order is byte-identical to the old (deliver, seq) priority queue —
// the wheel drains in (time, insertion) order and seq is the insertion
// counter. The one new constraint the wheel adds: deliveries cannot be
// scheduled before a time the bus has already drained past. The protocol
// always satisfies this (sends happen at the current step, drains are
// monotone), and deliver_at enforces it. The original heap implementation
// lives on in tests/ref/ as the equivalence-fuzz oracle.
//
// FaultyBus is the chaos decorator: it keeps the same queue/drain machinery
// but perturbs each send according to a FaultPlan — dropping, duplicating,
// jittering, adding per-link degradation, and deferring traffic touching a
// paused node. All perturbations are drawn from the plan's seeded RNG
// stream, so a (plan, send-sequence) pair is fully reproducible. A null
// plan is rejected at construction: callers pick the plain MessageBus for
// the no-fault path, which keeps it literally unchanged.
#pragma once

#include <variant>
#include <vector>

#include "core/event_source.hpp"
#include "core/types.hpp"
#include "fault/plan.hpp"
#include "net/graph.hpp"
#include "util/small_vector.hpp"
#include "util/timing_wheel.hpp"

namespace dtm {

/// Discovery probe chasing an object's forwarding trail (Algorithm 3
/// line 2). Carries the requester so the reply can find its way back.
struct ProbeMsg {
  TxnId requester = kNoTxn;
  NodeId requester_node = kNoNode;
  ObjId object = kNoObj;
  Weight travelled = 0;  ///< accumulated chase distance (for stats)
  /// Departure time of the last pointer followed: the chase only follows
  /// pointers laid at or after this time, so it walks the trail forward in
  /// time and cannot cycle through revisited nodes.
  Time min_depart = kNoTime;
  /// Re-probe generation for this (requester, object): 0 for the initial
  /// probe, incremented by every timeout-driven retry. Replies echo it, so
  /// duplicates and stale generations are identifiable at the requester.
  std::int32_t epoch = 0;
};

/// A reply's conflicting-user list. Inline capacity covers the typical
/// conflict degree, so building and moving a reply allocates nothing; the
/// dist-bucket recycles spilled buffers through a small pool.
using ReplyUsers = SmallVector<std::pair<TxnId, NodeId>, 8>;

/// Reply from the node currently holding (or about to receive) the object:
/// the object's position and the live transactions known to use it
/// ("the object carries the information of all the transaction locations
/// that will use it").
struct ReplyMsg {
  TxnId requester = kNoTxn;
  ObjId object = kNoObj;
  NodeId object_node = kNoNode;  ///< where the object is / will next rest
  Time object_free_at = kNoTime;  ///< when it is there
  ReplyUsers users;  ///< conflicting txns
  std::int32_t epoch = 0;  ///< echo of the answered probe's epoch
};

/// Transaction -> cluster leader report (Algorithm 3 line 6).
struct ReportMsg {
  TxnId txn = kNoTxn;
  std::int32_t attempt = 0;  ///< 0 first send, +1 per timeout retransmission
};

using Payload = std::variant<ProbeMsg, ReplyMsg, ReportMsg>;

struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Time sent = kNoTime;
  Time deliver = kNoTime;
  std::int64_t seq = 0;  ///< FIFO tie-break
  Payload payload;
};

class MessageBus : public EventSource {
 public:
  explicit MessageBus(const DistanceOracle& oracle) : oracle_(&oracle) {}
  ~MessageBus() override = default;

  /// Sends a message; it will be delivered at now + dist(from, to).
  /// FaultyBus overrides this with the chaos-perturbed delivery.
  virtual void send(NodeId from, NodeId to, Time now, Payload payload);

  /// Pops every message with deliver <= now, in (deliver, seq) order, into
  /// `out` (cleared first, capacity kept — callers pass persistent scratch
  /// so the steady state allocates nothing). Drain times must be monotone
  /// non-decreasing over the bus's lifetime.
  void drain_into(Time now, std::vector<Message>& out);

  /// Earliest pending delivery, kNoTime if none.
  [[nodiscard]] Time next_delivery() const;

  /// EventSource: pending deliveries are runner wake-ups.
  [[nodiscard]] Time next_event_time() const override {
    return next_delivery();
  }

  [[nodiscard]] std::int64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::int64_t total_distance() const { return distance_; }

 protected:
  /// Enqueues one delivery at an explicit time (>= sent, and not before any
  /// time already drained past), charging stats. The fault decorator routes
  /// every surviving copy through here.
  void deliver_at(NodeId from, NodeId to, Time sent, Time deliver,
                  Payload payload);

  [[nodiscard]] const DistanceOracle& oracle() const { return *oracle_; }

 private:
  const DistanceOracle* oracle_;
  TimingWheel<Message> wheel_;
  std::int64_t seq_ = 0;
  std::int64_t sent_ = 0;
  std::int64_t distance_ = 0;
};

/// What the decorator did to the traffic, for the chaos bench and tests.
struct FaultBusStats {
  std::int64_t offered = 0;     ///< send() calls (pre-fault message count)
  std::int64_t dropped = 0;     ///< messages lost outright
  std::int64_t duplicated = 0;  ///< extra copies injected
  std::int64_t degraded = 0;    ///< deliveries over a degraded link
  std::int64_t jitter_total = 0;  ///< sum of random extra latency
  std::int64_t pause_deferred = 0;  ///< deliveries held by a pause window
  /// Heap payload bytes duplication would have deep-copied and the
  /// storage-sharing optimization instead kept with the first-processed
  /// copy (ReplyMsg user lists; trivially copyable payloads contribute 0).
  std::int64_t bytes_duplicated = 0;
};

class FaultyBus final : public MessageBus {
 public:
  /// `plan` must be non-null (`!plan.is_null()`) and outlive the bus; the
  /// no-fault path uses the plain MessageBus so its behavior is untouched
  /// by construction, not by runtime checks.
  FaultyBus(const DistanceOracle& oracle, const FaultPlan& plan);

  void send(NodeId from, NodeId to, Time now, Payload payload) override;

  [[nodiscard]] const FaultBusStats& fault_stats() const { return fstats_; }

 private:
  /// End of the latest pause window covering (node, t), or t if none.
  [[nodiscard]] Time release_time(NodeId node, Time t) const;

  const FaultPlan* plan_;
  Rng rng_;
  std::vector<FaultPlan::PauseWindow> pauses_;
  FaultBusStats fstats_;
};

}  // namespace dtm
