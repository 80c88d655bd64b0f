// ScanEngine — the full-scan reference engine, kept as a test oracle.
//
// Same model and same observable behaviour as SyncEngine (sim/engine.*),
// derived the slow, obvious way over a plain TxnStore:
//  - every object is settled every step;
//  - the due set is a scan of the live transactions;
//  - an object's reroute target is the minimum (exec, id) over its users;
//  - next_exec_due is a scan of the live transactions.
// It ignores the store's calendar-side fields (the per-object scheduled
// heap and best-user cache) and EngineOptions::threads. Transfer stalls
// draw from the same FaultPlan stream in the same order as the production
// transport, so chaos runs stay comparable.
//
// LockstepEngine (ref/lockstep.hpp) steps this oracle next to the
// production engine and compares every step.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/store.hpp"
#include "util/rng.hpp"

namespace dtm {

class ScanEngine final : public SystemView {
 public:
  ScanEngine(std::shared_ptr<const DistanceOracle> oracle,
             std::vector<ObjectOrigin> origins, EngineOptions opts = {});

  // ---- SystemView ----
  [[nodiscard]] Time now() const override { return now_; }
  [[nodiscard]] const DistanceOracle& oracle() const override {
    return *oracle_;
  }
  [[nodiscard]] std::int64_t latency_factor() const override {
    return opts_.latency_factor;
  }
  [[nodiscard]] const ObjectState& object(ObjId o) const override;
  [[nodiscard]] const Transaction& txn(TxnId t) const override;
  [[nodiscard]] Time assigned_exec(TxnId t) const override;
  [[nodiscard]] std::span<const TxnId> live_users_of(ObjId o) const override;
  [[nodiscard]] std::span<const TxnId> live_txns() const override {
    return store_.live_ids();
  }

  // ---- Stepping API (mirrors SyncEngine) ----
  void begin_step(std::span<const Transaction> arrivals);
  void apply(std::span<const Assignment> assignments);
  std::vector<SyncEngine::Commit> finish_step();
  void advance_to(Time t);
  [[nodiscard]] Time next_exec_due() const;

  [[nodiscard]] bool all_done() const { return store_.live().empty(); }
  [[nodiscard]] const TxnStore& store() const { return store_; }

 private:
  /// Sends `o` toward its earliest scheduled user (min (exec, id) over
  /// `users`), stalling a fresh leg per the fault plan.
  void reroute(ObjId o);

  std::shared_ptr<const DistanceOracle> oracle_;
  const EngineOptions opts_;
  TxnStore store_;
  Time now_ = 0;
  Rng stall_rng_;
};

}  // namespace dtm
