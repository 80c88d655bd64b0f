#include "sim/runner.hpp"

#include <algorithm>

namespace dtm {

namespace {

/// Per-window bookkeeping for the Definition-1 ratio proxy.
struct WindowTracker {
  Time window = 0;
  Time next_boundary = 0;
  std::vector<std::vector<ObjectOrigin>> snapshots;  ///< per window start

  void maybe_snapshot(const SyncEngine& engine,
                      const std::vector<ObjectOrigin>& origins) {
    if (window <= 0) return;
    while (engine.now() >= next_boundary) {
      std::vector<ObjectOrigin> snap;
      snap.reserve(origins.size());
      for (const auto& o : origins) {
        const ObjectState& s = engine.object(o.id);
        // In-transit objects are attributed to their destination — by the
        // window's end they will be at or past it; a coarser position only
        // weakens (never invalidates) the lower bound's certificate role.
        snap.push_back({o.id, s.in_transit() ? s.dest() : s.at(), 0});
      }
      snapshots.push_back(std::move(snap));
      next_boundary += window;
    }
  }

  void finalize(RunResult& r, const std::vector<ScheduledTxn>& committed,
                const DistanceOracle& oracle, std::int64_t latency_factor) {
    if (window <= 0 || snapshots.empty()) return;
    // Per window: its transactions' (object, node) uses and how many
    // transactions it holds (a window is rated iff it holds any).
    std::vector<std::vector<ObjectUse>> uses(snapshots.size());
    std::vector<std::int64_t> txns(snapshots.size(), 0);
    std::vector<Time> worst_latency(snapshots.size(), 0);
    for (const auto& s : committed) {
      const auto w = static_cast<std::size_t>(
          std::min<Time>(s.txn.gen_time / window,
                         static_cast<Time>(snapshots.size()) - 1));
      for (const auto& a : s.txn.accesses)
        uses[w].push_back({a.obj, s.txn.node});
      ++txns[w];
      worst_latency[w] =
          std::max(worst_latency[w], s.exec - s.txn.gen_time);
    }
    for (std::size_t w = 0; w < snapshots.size(); ++w) {
      if (txns[w] == 0) continue;
      const auto lb = makespan_lower_bound(uses[w], snapshots[w], oracle,
                                           latency_factor);
      r.windowed_ratio = std::max(
          r.windowed_ratio, static_cast<double>(worst_latency[w]) /
                                static_cast<double>(lb.best()));
      ++r.num_windows;
    }
  }
};

}  // namespace

RunResult run_experiment(const Network& net, Workload& workload,
                         OnlineScheduler& scheduler, const RunOptions& opts) {
  if (opts.drain_every > 0) {
    // Draining discards the log; everything that replays it must be off.
    DTM_REQUIRE(!opts.validate,
                "drain_every requires validate=false (validation replays "
                "the full committed schedule)");
    DTM_REQUIRE(opts.ratio_window == 0,
                "drain_every requires ratio_window=0 (windowed accounting "
                "replays the full committed schedule)");
    DTM_REQUIRE(!opts.collect_schedule,
                "drain_every requires collect_schedule=false");
  }
  SyncEngine engine(net.oracle, workload.objects(), opts.engine);

  WindowTracker windows;
  windows.window = opts.ratio_window;

  RunResult r;
  Time last_drain = 0;
  std::int64_t iterations = 0;
  while (true) {
    windows.maybe_snapshot(engine, engine.origins());
    const auto arrivals = workload.arrivals_at(engine.now());
    engine.begin_step(arrivals);
    const auto assignments = scheduler.on_step(engine, arrivals);
    engine.apply(assignments);
    const auto commits = engine.finish_step();
    for (const auto& c : commits) workload.on_commit(c.txn, c.exec);
    if (opts.drain_every > 0) {
      // Headline metrics accumulate at commit time; the log entries are
      // about to be discarded.
      for (const auto& c : commits) {
        r.makespan = std::max(r.makespan, c.exec);
        r.latency.add(static_cast<double>(c.exec - c.gen));
        ++r.num_txns;
      }
      r.peak_committed_log =
          std::max(r.peak_committed_log,
                   static_cast<std::int64_t>(engine.committed().size()));
      if (engine.now() - last_drain >= opts.drain_every) {
        r.drained +=
            static_cast<std::int64_t>(engine.take_committed().size());
        last_drain = engine.now();
      }
    }

    if (workload.finished() && engine.all_done()) break;
    DTM_CHECK(++iterations < opts.max_steps,
              "run exceeded " << opts.max_steps << " active steps");

    // Fast-forward to the next step where anything can happen: an arrival,
    // a due execution, a scheduler-internal event (bucket activation), or a
    // pending delivery on any of the scheduler's event sources. The
    // EventClock owns the merge; every candidate is a step we must land on
    // exactly.
    const Time now = engine.now();
    const std::vector<const EventSource*> sources =
        scheduler.event_sources();
    const Time next = engine.clock().next_event(
        {workload.next_arrival_time(), engine.next_exec_due(),
         scheduler.next_event_hint(now)},
        sources);
    DTM_CHECK(next != kNoTime,
              "deadlock: live transactions but no future event (now=" << now
                                                                      << ")");
    DTM_CHECK(next >= now, "next event " << next << " in the past");
    if (next > now) engine.advance_to(next);
  }

  r.scheduler = scheduler.name();
  r.network = net.name;
  r.active_steps = iterations + 1;  // iterations counts non-final steps
  if (opts.drain_every > 0) {
    // Final drain: whatever the cadence left behind. After this, drained
    // accounts for every commit and the log is empty.
    r.drained += static_cast<std::int64_t>(engine.take_committed().size());
    DTM_CHECK(r.drained == r.num_txns,
              "drain lost commits: " << r.drained << " != " << r.num_txns);
  } else {
    r.num_txns = static_cast<std::int64_t>(engine.committed().size());
    for (const auto& s : engine.committed()) {
      r.makespan = std::max(r.makespan, s.exec);
      r.latency.add(static_cast<double>(s.exec - s.txn.gen_time));
    }
  }
  if (opts.validate) {
    const auto err =
        validate_schedule(engine.committed(), engine.origins(), *net.oracle,
                          opts.engine.latency_factor);
    DTM_CHECK(!err.has_value(), "invalid schedule: " << *err);
  }
  r.lb = makespan_lower_bound(workload.generated(), engine.origins(),
                              *net.oracle, opts.engine.latency_factor);
  r.ratio = static_cast<double>(r.makespan) /
            static_cast<double>(std::max<Time>(r.lb.best(), 1));
  windows.finalize(r, engine.committed(), *net.oracle,
                   opts.engine.latency_factor);
  if (opts.collect_schedule) {
    r.origins = engine.origins();
    r.committed = engine.take_committed();  // moved, never copied
  }
  return r;
}

}  // namespace dtm
