// Parallel-kernel determinism: the commit stream must be byte-identical at
// EVERY thread count — not merely self-consistent, but equal to the exact
// golden pins captured from the serial pre-parallel engine
// (golden_sequence_test.cpp). The matrix crosses scheduler kinds (engine
// reroute sharding, bucket wave probing + activation retries, the
// distributed twin), fault plans (chaos forces the transport serial —
// thread counts must still agree), and thread counts {1, 2, 4, hardware}.
// At every thread count above 1 the runs are also stepped in lockstep with
// the serial scan oracle (tests/ref/), which compares every step's commits.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/bucket_scheduler.hpp"
#include "core/greedy_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "fault/plan.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "ref/lockstep.hpp"
#include "ref/naive_insertion.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "stream/stream_runner.hpp"
#include "util/parallel.hpp"

namespace dtm {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_result(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& s : r.committed) {
    h = fnv(h, static_cast<std::uint64_t>(s.txn.id));
    h = fnv(h, static_cast<std::uint64_t>(s.txn.node));
    h = fnv(h, static_cast<std::uint64_t>(s.txn.gen_time));
    h = fnv(h, static_cast<std::uint64_t>(s.exec));
  }
  h = fnv(h, static_cast<std::uint64_t>(r.makespan));
  h = fnv(h, static_cast<std::uint64_t>(r.active_steps));
  return h;
}

/// Thread counts under test: serial, two oversubscribed counts, and
/// whatever the host actually has (deduplicated).
std::vector<std::int32_t> thread_ladder() {
  std::vector<std::int32_t> t = {1, 2, 4};
  const auto hw = static_cast<std::int32_t>(ThreadPool::hardware_threads());
  bool have = false;
  for (const std::int32_t v : t) have = have || v == hw;
  if (!have) t.push_back(hw);
  return t;
}

/// How a run is driven: the production runner alone, or stepped in
/// lockstep with the scan oracle (which checks every step).
enum class Drive { kEngine, kLockstep };

RunResult drive(Drive how, const Network& net, Workload& wl,
                OnlineScheduler& sched, const RunOptions& opts) {
  return how == Drive::kEngine ? run_experiment(net, wl, sched, opts)
                               : run_lockstep(net, wl, sched, opts);
}

// --- Engine-only sharding: greedy scheduler, golden pin "star33-greedy" ---

std::uint64_t run_greedy(std::int32_t threads, Drive how = Drive::kEngine) {
  const Network net = make_star(3, 3);
  SyntheticOptions w;
  w.num_objects = 10;
  w.k = 2;
  w.rounds = 2;
  w.zipf_s = 1.2;
  w.seed = 505;
  SyntheticWorkload wl(net, w);
  GreedyScheduler sched;
  RunOptions opts;
  opts.engine.latency_factor = 2;
  opts.engine.threads = threads;
  return hash_result(drive(how, net, wl, sched, opts));
}

TEST(ParallelEngine, GreedyMatchesGoldenPinAtEveryThreadCount) {
  const std::uint64_t kPin = 0x15943e0c37a4a3deULL;  // golden star33-greedy
  for (const std::int32_t t : thread_ladder())
    EXPECT_EQ(run_greedy(t), kPin) << "threads " << t;
}

// --- Bucket core: wave probing + parallel retries, golden fastpath pin ---

std::uint64_t run_bucket(const Network& net, std::int32_t threads,
                         bool audited = false, Drive how = Drive::kEngine) {
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 3;
  w.arrival_prob = 0.3;
  w.seed = 909;
  SyntheticWorkload wl(net, w);
  BucketOptions o;
  o.threads = threads;
  const auto algo = Registry::make_batch_algo("auto", net);
  NaiveInsertion naive(algo, o.seed);
  if (audited) o.audit = &naive;
  BucketScheduler sched(algo, o);
  RunOptions opts;
  opts.engine.threads = threads;
  return hash_result(drive(how, net, wl, sched, opts));
}

TEST(ParallelEngine, BucketClusterMatchesGoldenPinAtEveryThreadCount) {
  // cluster234 pin from GoldenSequence.BucketFastPathPinnedOnAllTopologies:
  // randomized cluster algo — activation retries AND wave probes in play.
  const std::uint64_t kPin = 0x0cf2ffb9c53e06ffULL;
  const Network net = make_cluster(2, 3, 4);
  for (const std::int32_t t : thread_ladder())
    EXPECT_EQ(run_bucket(net, t), kPin) << "threads " << t;
}

TEST(ParallelEngine, BucketLinePinHoldsUnderNaiveOracleAudit) {
  const std::uint64_t kPin = 0x1476a1655424f9b0ULL;  // golden line12
  const Network net = make_line(12);
  for (const std::int32_t t : thread_ladder()) {
    EXPECT_EQ(run_bucket(net, t), kPin) << "threads " << t;
    // The verbatim scan (tests/ref/naive_insertion) re-derives every level
    // the wave-probing core picks; the run must keep landing on the same
    // pin with a parallel engine underneath.
    EXPECT_EQ(run_bucket(net, t, /*audited=*/true), kPin)
        << "audited, threads " << t;
  }
}

// --- Distributed twin under null and chaos plans (golden dist pins) ---

std::uint64_t run_dist(const FaultPlan& plan, std::int32_t threads,
                       Drive how = Drive::kEngine) {
  const Network net = make_cluster(2, 3, 4);
  SyntheticOptions w;
  w.num_objects = 10;
  w.k = 2;
  w.rounds = 2;
  w.seed = 606;
  SyntheticWorkload wl(net, w);
  DistBucketOptions o;
  o.seed = 77;
  o.fault = plan;
  o.threads = threads;
  DistributedBucketScheduler sched(net, Registry::make_batch_algo("auto", net),
                                   o);
  RunOptions opts;
  opts.engine.latency_factor = 2;
  opts.engine.fault = plan;
  opts.engine.threads = threads;
  return hash_result(drive(how, net, wl, sched, opts));
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.drop = 0.3;
  plan.jitter = 2;
  plan.dup = 0.1;
  plan.stall = 0.3;
  plan.seed = 23;
  return plan;
}

TEST(ParallelEngine, DistBucketNullPlanPinAtEveryThreadCount) {
  const std::uint64_t kPin = 0xcdd107db4c1159e2ULL;
  for (const std::int32_t t : thread_ladder())
    EXPECT_EQ(run_dist(FaultPlan{}, t), kPin) << "threads " << t;
}

TEST(ParallelEngine, DistBucketChaosPlanPinAtEveryThreadCount) {
  // The stall plan forces the transport serial; scheduler-side parallelism
  // stays on. The chaos pin must hold regardless.
  const std::uint64_t kPin = 0x7d0e573c8d14d918ULL;
  for (const std::int32_t t : thread_ladder())
    EXPECT_EQ(run_dist(chaos_plan(), t), kPin) << "threads " << t;
}

// --- The sharded engine stepped in lockstep with the serial scan oracle ---

TEST(ParallelEngine, ScanOracleLockstepMatchesPinsAtEveryThreadCount) {
  for (const std::int32_t t : thread_ladder()) {
    if (t <= 1) continue;
    EXPECT_EQ(run_greedy(t, Drive::kLockstep), 0x15943e0c37a4a3deULL)
        << "threads " << t;
    EXPECT_EQ(run_bucket(make_cluster(2, 3, 4), t, /*audited=*/false,
                         Drive::kLockstep),
              0x0cf2ffb9c53e06ffULL)
        << "threads " << t;
    EXPECT_EQ(run_dist(chaos_plan(), t, Drive::kLockstep),
              0x7d0e573c8d14d918ULL)
        << "threads " << t;
  }
}

// --- Trial fan-out determinism ---

TEST(ParallelEngine, SeededTrialsIdenticalAcrossThreadCounts) {
  const Network net = make_cluster(2, 3, 4);
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 2;
  w.seed = 1234;
  const auto factory = [&]() -> std::unique_ptr<OnlineScheduler> {
    return std::make_unique<BucketScheduler>(
        Registry::make_batch_algo("auto", net));
  };
  TrialOptions base;
  base.trials = 5;
  base.threads = 1;
  const TrialSummary serial = run_seeded_trials(net, w, factory, base);
  for (const std::int32_t t : {2, 4}) {
    TrialOptions topts = base;
    topts.threads = t;
    const TrialSummary par = run_seeded_trials(net, w, factory, topts);
    EXPECT_EQ(par.ratio, serial.ratio) << "threads " << t;
    EXPECT_EQ(par.makespan, serial.makespan) << "threads " << t;
    EXPECT_EQ(par.mean_latency, serial.mean_latency) << "threads " << t;
    EXPECT_EQ(par.lb, serial.lb) << "threads " << t;
    EXPECT_EQ(par.txns, serial.txns) << "threads " << t;
  }
}

// --- Spec surface: threads knob round-trips and rejects bad values ---

TEST(ParallelEngine, RunSpecThreadsRoundTripsThroughJson) {
  RunSpec spec;
  spec.threads = 4;
  const RunSpec back = RunSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.threads, 4);
}

TEST(ParallelEngine, InvalidThreadValuesAreHardErrors) {
  RunSpec spec;
  spec.threads = -1;
  EXPECT_THROW((void)RunSpec::from_json(spec.to_json()), CheckError);
  spec.threads = 2000;
  EXPECT_THROW((void)RunSpec::from_json(spec.to_json()), CheckError);

  EngineOptions eopts;
  eopts.threads = -3;
  EXPECT_THROW(SyncEngine(std::shared_ptr<const DistanceOracle>(
                              make_clique(4).oracle),
                          {}, eopts),
               CheckError);
}

TEST(ParallelEngine, RunSpecThreadsDriveTheWholeStack) {
  // run_spec plumbs RunSpec::threads into the engine AND the scheduler
  // core; the result must equal the serial run of the same spec.
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=3,gamma=4");
  spec.scheduler = parse_spec("bucket:algo=cluster");
  spec.workload = parse_spec("synthetic:objects=8,k=2,rounds=2");
  spec.seed = 77;
  spec.threads = 1;
  const std::uint64_t serial = hash_result(run_spec(spec));
  for (const std::int32_t t : {2, 4}) {
    spec.threads = t;
    EXPECT_EQ(hash_result(run_spec(spec)), serial) << "threads " << t;
  }
}

TEST(ParallelEngine, LandmarkRoutingCommitHashInvariantAcrossThreads) {
  // The engine's reroute shards call the landmark oracle from pool
  // workers, so same-cluster searches run concurrently on one router.
  // Direct check first: with one landmark every pair is same-cluster, and
  // the workers sweep one shared pair list (hundreds of destinations) from
  // different offsets; each must see the answers a private router gives,
  // and no query may be lost from the shared counters. Verify mode runs
  // its per-query check on the same workers.
  const Network net = Registry::make_network(parse_spec(
      "random:n=400,extra=800,maxw=3,routing=verify,landmarks=1"));
  const auto& shared = dynamic_cast<const LandmarkOracle&>(*net.oracle);
  const LandmarkRouter serial(net.graph, {.num_landmarks = 1});
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::int64_t i = 0; pairs.size() < 4096; ++i) {
    const auto u = static_cast<NodeId>((i * 7919) % 400);
    const auto v = static_cast<NodeId>((i * 104729 + 13) % 400);
    if (u != v) pairs.emplace_back(u, v);
  }
  constexpr std::int64_t kWorkers = 4;
  const std::int64_t searches = shared.router().intra_cache_stats().misses;
  const std::int64_t checks = shared.verify_stats().dist_checks;
  std::vector<std::vector<Weight>> got(kWorkers,
                                       std::vector<Weight>(pairs.size()));
  ThreadPool::shared().run(
      kWorkers,
      [&](std::int64_t w) {
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          const std::size_t i =
              (k + static_cast<std::size_t>(w) * pairs.size() / kWorkers) %
              pairs.size();
          got[static_cast<std::size_t>(w)][i] =
              shared.dist(pairs[i].first, pairs[i].second);
        }
      },
      kWorkers, 1);
  for (std::size_t w = 0; w < got.size(); ++w)
    for (std::size_t i = 0; i < pairs.size(); ++i)
      ASSERT_EQ(got[w][i], serial.dist(pairs[i].first, pairs[i].second))
          << "worker " << w << " pair " << pairs[i].first << ","
          << pairs[i].second;
  const auto queries = kWorkers * static_cast<std::int64_t>(pairs.size());
  EXPECT_EQ(shared.router().intra_cache_stats().misses, searches + queries);
  EXPECT_EQ(shared.verify_stats().dist_checks, checks + queries);
  EXPECT_EQ(shared.verify_stats().max_stretch_seen, 1.0);

  // End to end: the commit stream at 4 threads is the serial one, pinned.
  RunSpec spec;
  spec.topology =
      parse_spec("random:n=3000,extra=6000,maxw=3,routing=landmark");
  spec.scheduler = parse_spec("greedy");
  spec.stream =
      parse_spec("stream:rate=4,objects=64,k=3,zipf=0.9,target=3000");
  spec.seed = 3;
  spec.threads = 4;
  const Network big = Registry::make_network(spec.topology);
  const StreamReport r = make_stream_runner(big, spec)->run();
  EXPECT_EQ(r.commits, 3000);
  EXPECT_EQ(r.commit_hash, 17488683464883499505ULL);
}

}  // namespace
}  // namespace dtm
