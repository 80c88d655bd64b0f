// LockstepEngine — the production SyncEngine and the ScanEngine oracle
// stepped side by side with the same arrivals and the same scheduler
// decisions.
//
// Reads (the SystemView a scheduler sees) come from the production engine.
// Every stepping call is forwarded to both, and the wrapper DTM_CHECKs that
// they agree: each finish_step's commits (txn, node, gen, exec, in order),
// every object's position state and latest scheduled user (the engine's
// O(1) pin against the SystemView default scan) after apply and after
// finish_step, and next_exec_due after every step and on every query. A
// divergence throws CheckError naming the step.
//
// run_lockstep is run_experiment (sim/runner.*) with the engine swapped for
// a LockstepEngine: same fast-forward loop, same post-hoc validation, and
// the same RunResult fields, so its result hashes equal the golden pins.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ref/scan_engine.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace dtm {

class LockstepEngine final : public SystemView {
 public:
  LockstepEngine(std::shared_ptr<const DistanceOracle> oracle,
                 std::vector<ObjectOrigin> origins, EngineOptions opts = {});

  // ---- SystemView (the production engine's) ----
  [[nodiscard]] Time now() const override { return prod_.now(); }
  [[nodiscard]] const DistanceOracle& oracle() const override {
    return prod_.oracle();
  }
  [[nodiscard]] std::int64_t latency_factor() const override {
    return prod_.latency_factor();
  }
  [[nodiscard]] const ObjectState& object(ObjId o) const override {
    return prod_.object(o);
  }
  [[nodiscard]] const Transaction& txn(TxnId t) const override {
    return prod_.txn(t);
  }
  [[nodiscard]] Time assigned_exec(TxnId t) const override {
    return prod_.assigned_exec(t);
  }
  [[nodiscard]] std::span<const TxnId> live_users_of(ObjId o) const override {
    return prod_.live_users_of(o);
  }
  [[nodiscard]] std::span<const TxnId> live_txns() const override {
    return prod_.live_txns();
  }
  [[nodiscard]] ScheduledUser latest_scheduled_user(ObjId o) const override {
    return prod_.latest_scheduled_user(o);
  }

  // ---- Stepping: both engines, compared ----
  void begin_step(std::span<const Transaction> arrivals);
  void apply(std::span<const Assignment> assignments);
  std::vector<SyncEngine::Commit> finish_step();
  void advance_to(Time t);
  [[nodiscard]] Time next_exec_due() const;

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] const std::vector<ScheduledTxn>& committed() const {
    return prod_.committed();
  }

  [[nodiscard]] const SyncEngine& production() const { return prod_; }

 private:
  void compare_objects(const char* phase) const;

  SyncEngine prod_;
  ScanEngine ref_;
};

/// run_experiment over a LockstepEngine. Windowed ratios and log draining
/// are not supported (opts.ratio_window and opts.drain_every must be 0).
[[nodiscard]] RunResult run_lockstep(const Network& net, Workload& workload,
                                     OnlineScheduler& scheduler,
                                     const RunOptions& opts = {});

}  // namespace dtm
