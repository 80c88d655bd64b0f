#include "ref/lockstep.hpp"

#include <algorithm>

namespace dtm {

LockstepEngine::LockstepEngine(std::shared_ptr<const DistanceOracle> oracle,
                               std::vector<ObjectOrigin> origins,
                               EngineOptions opts)
    : prod_(oracle, origins, opts), ref_(oracle, std::move(origins), opts) {}

void LockstepEngine::begin_step(std::span<const Transaction> arrivals) {
  prod_.begin_step(arrivals);
  ref_.begin_step(arrivals);
}

void LockstepEngine::apply(std::span<const Assignment> assignments) {
  prod_.apply(assignments);
  ref_.apply(assignments);
  compare_objects("apply");
}

std::vector<SyncEngine::Commit> LockstepEngine::finish_step() {
  const Time step = prod_.now();
  std::vector<SyncEngine::Commit> got = prod_.finish_step();
  const std::vector<SyncEngine::Commit> want = ref_.finish_step();
  DTM_CHECK(got.size() == want.size(),
            "lockstep: engine committed " << got.size() << " txns at step "
                                          << step << ", scan oracle "
                                          << want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    DTM_CHECK(got[i].txn == want[i].txn && got[i].node == want[i].node &&
                  got[i].gen == want[i].gen && got[i].exec == want[i].exec,
              "lockstep: commit " << i << " at step " << step << " is txn "
                                  << got[i].txn << "@" << got[i].exec
                                  << ", scan oracle " << want[i].txn << "@"
                                  << want[i].exec);
  compare_objects("finish_step");
  (void)next_exec_due();
  return got;
}

void LockstepEngine::advance_to(Time t) {
  prod_.advance_to(t);
  ref_.advance_to(t);
}

Time LockstepEngine::next_exec_due() const {
  const Time got = prod_.next_exec_due();
  const Time want = ref_.next_exec_due();
  DTM_CHECK(got == want, "lockstep: next_exec_due " << got << " vs scan oracle "
                                                    << want << " (now "
                                                    << prod_.now() << ")");
  return got;
}

bool LockstepEngine::all_done() const {
  DTM_CHECK(prod_.all_done() == ref_.all_done(),
            "lockstep: live sets diverge at " << prod_.now());
  return prod_.all_done();
}

void LockstepEngine::compare_objects(const char* phase) const {
  DTM_CHECK(prod_.now() == ref_.now(), "lockstep: clocks diverge after "
                                           << phase << ": " << prod_.now()
                                           << " vs " << ref_.now());
  for (const auto& e : ref_.store().objects()) {
    const ObjectState& want = e.state;
    const ObjectState& got = prod_.object(e.id);
    bool same = got.in_transit() == want.in_transit() &&
                got.last_txn() == want.last_txn();
    if (same && want.in_transit())
      same = got.leg_from() == want.leg_from() && got.dest() == want.dest() &&
             got.depart_time() == want.depart_time() &&
             got.arrive_time() == want.arrive_time();
    else if (same)
      same = got.at() == want.at();
    DTM_CHECK(same, "lockstep: object " << e.id << " diverges after " << phase
                                        << " at step " << ref_.now());
    const ScheduledUser pin = prod_.latest_scheduled_user(e.id);
    const ScheduledUser want_pin = ref_.latest_scheduled_user(e.id);
    DTM_CHECK(pin.txn == want_pin.txn && pin.exec == want_pin.exec &&
                  pin.node == want_pin.node,
              "lockstep: object " << e.id << " latest scheduled user "
                                  << pin.txn << "@" << pin.exec << " on node "
                                  << pin.node << ", scan oracle "
                                  << want_pin.txn << "@" << want_pin.exec
                                  << " on node " << want_pin.node << " after "
                                  << phase << " at step " << ref_.now());
  }
}

RunResult run_lockstep(const Network& net, Workload& workload,
                       OnlineScheduler& scheduler, const RunOptions& opts) {
  DTM_REQUIRE(opts.ratio_window == 0 && opts.drain_every == 0,
              "run_lockstep: windows and draining are not supported");
  LockstepEngine engine(net.oracle, workload.objects(), opts.engine);

  std::int64_t iterations = 0;
  while (true) {
    const auto arrivals = workload.arrivals_at(engine.now());
    engine.begin_step(arrivals);
    const auto assignments = scheduler.on_step(engine, arrivals);
    engine.apply(assignments);
    for (const auto& c : engine.finish_step())
      workload.on_commit(c.txn, c.exec);

    if (workload.finished() && engine.all_done()) break;
    DTM_CHECK(++iterations < opts.max_steps,
              "run exceeded " << opts.max_steps << " active steps");

    const Time now = engine.now();
    const std::vector<const EventSource*> sources =
        scheduler.event_sources();
    const Time next = engine.production().clock().next_event(
        {workload.next_arrival_time(), engine.next_exec_due(),
         scheduler.next_event_hint(now)},
        sources);
    DTM_CHECK(next != kNoTime && next >= now,
              "lockstep run: no valid next event (now=" << now << ")");
    if (next > now) engine.advance_to(next);
  }

  RunResult r;
  r.scheduler = scheduler.name();
  r.network = net.name;
  r.active_steps = iterations + 1;
  const auto& committed = engine.committed();
  r.num_txns = static_cast<std::int64_t>(committed.size());
  for (const auto& s : committed) {
    r.makespan = std::max(r.makespan, s.exec);
    r.latency.add(static_cast<double>(s.exec - s.txn.gen_time));
  }
  const auto& origins = engine.production().origins();
  if (opts.validate) {
    const auto err = validate_schedule(committed, origins, *net.oracle,
                                       opts.engine.latency_factor);
    DTM_CHECK(!err.has_value(), "invalid schedule: " << *err);
  }
  r.lb = makespan_lower_bound(workload.generated(), origins, *net.oracle,
                              opts.engine.latency_factor);
  r.ratio = static_cast<double>(r.makespan) /
            static_cast<double>(std::max<Time>(r.lb.best(), 1));
  if (opts.collect_schedule) {
    r.origins = origins;
    r.committed = committed;
  }
  return r;
}

}  // namespace dtm
