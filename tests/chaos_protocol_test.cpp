// End-to-end tests for the resilience protocol: the distributed bucket
// scheduler driven over a FaultyBus. The headline guarantee is liveness —
// every transaction commits under any loss rate < 1 — backed by per-probe
// timeouts with exponential backoff, reply/report deduplication, and report
// retransmission. Chaos is deterministic in (plan, seed), and the engine
// agrees step by step with the scan oracle in tests/ref/ under it, so
// failures here bisect cleanly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dist/dist_bucket.hpp"
#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "ref/lockstep.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace dtm {
namespace {

struct ChaosRun {
  RunResult result;
  DistStats stats;
  bool has_faulty_bus = false;
  FaultBusStats bus;
};

/// `against_oracle` steps the engine in lockstep with the scan oracle.
ChaosRun run_dist(const Network& net, const FaultPlan& plan,
                  std::uint64_t seed, bool against_oracle = false) {
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 2;
  w.seed = seed;
  SyntheticWorkload wl(net, w);
  DistBucketOptions o;
  o.seed = seed;
  o.fault = plan;
  DistributedBucketScheduler sched(net, Registry::make_batch_algo("auto", net),
                                   o);
  RunOptions opts;
  opts.engine.latency_factor = 2;  // §V half-speed objects
  opts.engine.fault = plan;
  const RunResult r = against_oracle
                          ? run_lockstep(net, wl, sched, opts)
                          : run_experiment(net, wl, sched, opts);
  ChaosRun out{r, sched.stats(), sched.fault_bus_stats() != nullptr, {}};
  if (const FaultBusStats* fb = sched.fault_bus_stats()) out.bus = *fb;
  // Liveness: the workload's whole transaction set committed.
  EXPECT_EQ(r.num_txns, static_cast<std::int64_t>(wl.generated().size()));
  return out;
}

void expect_same_commits(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.committed.size(), b.committed.size());
  for (std::size_t i = 0; i < a.committed.size(); ++i) {
    EXPECT_EQ(a.committed[i].txn.id, b.committed[i].txn.id) << "commit " << i;
    EXPECT_EQ(a.committed[i].exec, b.committed[i].exec) << "commit " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.active_steps, b.active_steps);
}

TEST(ChaosProtocol, NullPlanTakesTheExactNoFaultPath) {
  const Network net = make_line(12);
  const ChaosRun base = run_dist(net, FaultPlan{}, 7);
  EXPECT_FALSE(base.has_faulty_bus);  // plain MessageBus in use
  EXPECT_EQ(base.stats.probe_timeouts, 0);
  EXPECT_EQ(base.stats.reprobes, 0);
  EXPECT_EQ(base.stats.report_retries, 0);

  // A null plan with a different seed is still byte-identical: the seed
  // only matters once a fault fires.
  FaultPlan reseeded;
  reseeded.seed = 0xDEAD;
  const ChaosRun same = run_dist(net, reseeded, 7);
  expect_same_commits(base.result, same.result);
}

TEST(ChaosProtocol, MessageFaultsRequireMessageLevelDiscovery) {
  const Network net = make_line(8);
  DistBucketOptions o;
  o.fault.drop = 0.1;
  o.message_level_discovery = false;  // analytic mode has no messages
  EXPECT_THROW((void)DistributedBucketScheduler(
                   net, Registry::make_batch_algo("auto", net), o),
               CheckError);
}

TEST(ChaosProtocol, EveryTxnCommitsUnderLoss) {
  // The resilience claim across loss rates and topologies; run_dist asserts
  // commits == generated internally.
  const Network line = make_line(12);
  const Network cluster = make_cluster(2, 3, 4);
  for (const double drop : {0.2, 0.5}) {
    for (const std::uint64_t seed : {3ull, 11ull, 29ull}) {
      FaultPlan p;
      p.drop = drop;
      p.jitter = 2;
      p.dup = 0.1;
      p.seed = seed ^ 0xC4A05ULL;
      const ChaosRun a = run_dist(line, p, seed);
      EXPECT_TRUE(a.has_faulty_bus);
      EXPECT_GT(a.bus.offered, 0);
      const ChaosRun b = run_dist(cluster, p, seed);
      EXPECT_TRUE(b.has_faulty_bus);
      if (drop == 0.5) {
        // Heavy loss must visibly engage the retry machinery.
        EXPECT_GT(a.bus.dropped, 0);
        EXPECT_GT(a.stats.probe_timeouts, 0);
        EXPECT_GT(a.stats.reprobes, 0);
      }
    }
  }
}

TEST(ChaosProtocol, SurvivesPausesAndDegradedLinks) {
  const Network net = make_cluster(2, 2, 3);
  FaultPlan p;
  p.drop = 0.15;
  p.pauses = 3;
  p.pause_len = 12;
  p.pause_within = 80;
  p.degrade = 2;
  p.degrade_frac = 0.5;
  p.seed = 5;
  const ChaosRun r = run_dist(net, p, 13);
  EXPECT_TRUE(r.has_faulty_bus);
  EXPECT_GT(r.result.makespan, 0);
}

TEST(ChaosProtocol, ChaosIsDeterministicInPlanAndSeed) {
  const Network net = make_line(12);
  FaultPlan p;
  p.drop = 0.3;
  p.jitter = 2;
  p.dup = 0.1;
  p.stall = 0.3;
  p.seed = 41;
  const ChaosRun a = run_dist(net, p, 11);
  const ChaosRun b = run_dist(net, p, 11);
  expect_same_commits(a.result, b.result);
  EXPECT_EQ(a.stats.probe_timeouts, b.stats.probe_timeouts);
  EXPECT_EQ(a.stats.reprobes, b.stats.reprobes);
  EXPECT_EQ(a.stats.report_retries, b.stats.report_retries);
  EXPECT_EQ(a.stats.dup_replies, b.stats.dup_replies);
  EXPECT_EQ(a.stats.dup_reports, b.stats.dup_reports);
  EXPECT_EQ(a.bus.dropped, b.bus.dropped);
  EXPECT_EQ(a.bus.duplicated, b.bus.duplicated);
  EXPECT_EQ(a.bus.jitter_total, b.bus.jitter_total);

  // A different fault seed under the same workload seed perturbs the run
  // (sanity: the chaos stream is actually live).
  FaultPlan q = p;
  q.seed = 42;
  const ChaosRun c = run_dist(net, q, 11);
  EXPECT_EQ(c.result.num_txns, a.result.num_txns);
}

TEST(ChaosProtocol, CommitStreamInvariantAcrossEngineModes) {
  // The engine modes compared are the production engine and the scan
  // oracle. Message faults are drawn per send and transfer stalls per fresh
  // leg, in the same order in both, so the chaos run — not just the clean
  // run — agrees step by step, and equals the plain production run.
  const Network net = make_cluster(2, 3, 4);
  FaultPlan p;
  p.drop = 0.3;
  p.jitter = 2;
  p.dup = 0.1;
  p.stall = 0.3;
  p.seed = 23;
  const ChaosRun oracle = run_dist(net, p, 11, /*against_oracle=*/true);
  const ChaosRun cal = run_dist(net, p, 11);
  expect_same_commits(oracle.result, cal.result);
  EXPECT_EQ(oracle.bus.dropped, cal.bus.dropped);
  EXPECT_EQ(oracle.stats.reprobes, cal.stats.reprobes);
}

TEST(ChaosProtocol, DuplicateFloodIsDeduplicated) {
  const Network net = make_line(10);
  FaultPlan p;
  p.dup = 1.0;  // every message duplicated: replies and reports double up
  p.seed = 9;
  const ChaosRun r = run_dist(net, p, 17);
  EXPECT_TRUE(r.has_faulty_bus);
  EXPECT_GT(r.bus.duplicated, 0);
  // Each (requester, object) is answered once; the duplicate replies and
  // reports must land in the dedup counters, not in double placements.
  EXPECT_GT(r.stats.dup_replies + r.stats.dup_reports, 0);
}

TEST(ChaosProtocol, StallOnlyPlanLeavesBusUntouched) {
  const Network net = make_line(12);
  FaultPlan p;
  p.stall = 0.5;
  p.seed = 19;
  const ChaosRun r = run_dist(net, p, 7);
  EXPECT_FALSE(r.has_faulty_bus);  // no message faults: plain bus
  EXPECT_EQ(r.stats.probe_timeouts, 0);
  EXPECT_EQ(r.stats.report_retries, 0);
}

TEST(ChaosProtocol, RunSpecDrivesChaosEndToEnd) {
  // The registry path: a RunSpec naming a fault plan must behave exactly
  // like the hand-constructed run (same factories underneath).
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=3,gamma=4");
  spec.scheduler = parse_spec("dist-bucket");
  spec.workload = parse_spec("synthetic:objects=10,k=2,rounds=2");
  spec.fault = parse_spec("fault:drop=0.3,jitter=2,dup=0.1,stall=0.3");
  spec.latency_factor = 2;
  spec.seed = 11;
  const RunResult a = run_spec(spec);
  const RunResult b = run_spec(spec);
  EXPECT_GT(a.num_txns, 0);
  expect_same_commits(a, b);
}

}  // namespace
}  // namespace dtm
