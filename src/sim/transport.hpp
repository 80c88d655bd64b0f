// ObjectTransport — object motion policy (engine layering, layer 2).
//
// Decides where objects travel and when they arrive: routing toward the
// earliest pending scheduled user, in-flight redirects, and the settle
// queue that materializes arrivals. This is the seam where alternative
// substrates plug in — a congestion-aware transport charging per-edge
// capacity (unifying the sim/congestion.* replay with live execution) or
// an async batched mover — without touching the store or the clock.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "sim/store.hpp"

namespace dtm {

struct EngineOptions {
  /// Steps per unit distance for object motion (2 = half-speed objects,
  /// the distributed setting of §V).
  std::int64_t latency_factor = 1;

  /// Worker threads for the sharded reroute fan-out: 1 = serial
  /// (default), 0 = all hardware threads, N = exactly N participants.
  /// Every thread count produces byte-identical commit sequences —
  /// sharding is by object ownership, and per-worker results merge in
  /// canonical order (ARCHITECTURE.md §8).
  std::int32_t threads = 1;

  /// Fault-injection plan for the transport's stall hook (and, through the
  /// RunSpec, the distributed protocol's FaultyBus). The default null plan
  /// takes the exact pre-fault code path — zero draws, zero delays — so
  /// golden sequences stay byte-identical without a plan.
  FaultPlan fault;
};

class ObjectTransport {
 public:
  virtual ~ObjectTransport() = default;

  /// Sends object `o` toward the pending scheduled user with the earliest
  /// execution time (no-op when already heading there / resting there).
  virtual void reroute(ObjId o, Time now) = 0;

  /// Reroutes every object in `objs`, duplicates included, preserving the
  /// per-object request order. The default loops serially; parallel
  /// transports shard the list by object ownership (each object's requests
  /// are handled by exactly one worker, so the final state is
  /// worker-count-invariant).
  virtual void reroute_many(std::span<const ObjId> objs, Time now) {
    for (const ObjId o : objs) reroute(o, now);
  }

  /// Materializes every arrival due by `now`: afterwards no object is
  /// still in transit past its arrival time.
  virtual void settle_arrivals(Time now) = 0;

  /// Live fault-plan swap (serve-mode resilience drills). Transports that
  /// inject faults re-arm their stall hook from the new plan; the default
  /// is a no-op for fault-free substrates.
  virtual void set_fault(const FaultPlan& /*plan*/) {}
};

/// The synchronous shortest-path transport: objects move one unit of
/// distance per latency_factor steps along oracle distances, exactly the
/// paper's motion model. Arrivals are materialized from a settle queue, so
/// a step touches only the objects that move.
class SyncObjectTransport final : public ObjectTransport {
 public:
  SyncObjectTransport(TxnStore& store, const DistanceOracle& oracle,
                      EngineOptions opts)
      : store_(&store),
        oracle_(&oracle),
        opts_(opts),
        stall_rng_(opts_.fault.transport_rng()),
        stalling_(opts_.fault.stall > 0.0) {}

  /// Transfer stalls applied / extra steps added (chaos bench observability).
  [[nodiscard]] std::int64_t stalls_applied() const { return stalls_; }
  [[nodiscard]] std::int64_t stall_steps() const { return stall_steps_; }

  void reroute(ObjId o, Time now) override;
  /// Sharded parallel fan-out when EngineOptions::threads > 1 (serial
  /// under an active stall plan: the stall stream draws in request order,
  /// and chaos golden pins depend on that exact sequence).
  void reroute_many(std::span<const ObjId> objs, Time now) override;
  void settle_arrivals(Time now) override;

  /// Swaps the stall knobs in place and reseeds the stall stream from the
  /// new plan (site-salted, so toggling to the same plan replays the same
  /// stall sequence from the start). In-flight transfers keep the legs they
  /// were already charged.
  void set_fault(const FaultPlan& plan) override {
    opts_.fault = plan;
    stall_rng_ = plan.transport_rng();
    stalling_ = plan.stall > 0.0;
  }

 private:
  /// (arrive time, object index) pairs buffered by one worker during a
  /// parallel reroute phase, merged into settle_queue_ after the barrier.
  using SettleBuffer = std::vector<std::pair<Time, std::int32_t>>;

  /// The earliest scheduled user (min (exec, id)) from the cache or the
  /// heap, pruning committed users; kNoTxn when none.
  [[nodiscard]] TxnId reroute_target(TxnStore::ObjEntry& e);

  /// The reroute body. `out == nullptr` pushes settle entries straight into
  /// settle_queue_ (serial path, stall hook armed); non-null buffers them
  /// per worker (parallel path, which only runs with the stall hook off).
  void reroute_impl(TxnStore::ObjEntry& e, Time now, SettleBuffer* out);

  /// Fault hook: maybe stretches a freshly laid transit leg for `e`, bounded
  /// by the slack before `best`'s execution so commitments stay feasible.
  void maybe_stall(TxnStore::ObjEntry& e, TxnId best);

  TxnStore* store_;
  const DistanceOracle* oracle_;
  EngineOptions opts_;

  /// Transfer-stall injection state. The RNG stream is salted per the
  /// FaultPlan; with stall == 0 the hook is a single branch and zero draws,
  /// keeping the no-fault path byte-identical.
  Rng stall_rng_;
  bool stalling_ = false;
  std::int64_t stalls_ = 0;
  std::int64_t stall_steps_ = 0;

  /// Pending object arrivals: (arrive time, index into the store's object
  /// array). Entries outlive redirects; settle() is idempotent, so early
  /// pops are no-ops.
  EventClock::MinHeap<std::int32_t> settle_queue_;

  /// Parallel reroute scratch: dense object indices of the current request
  /// list and the per-worker settle buffers.
  std::vector<std::int32_t> shard_idx_;
  std::vector<SettleBuffer> shard_settles_;
};

}  // namespace dtm
