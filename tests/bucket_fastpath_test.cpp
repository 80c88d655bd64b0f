// Tests for the incremental bucket-insertion core (batch/bucket_insertion):
// the level-search lower bound is exact (the verbatim-scan oracle in
// tests/ref/naive_insertion re-derives every level choice and activation
// problem on randomized workloads), memoized F_A estimates and cached
// problems change nothing observable, and runs audited by that oracle and
// stepped in lockstep with the scan engine (tests/ref/) commit the same
// sequences as plain runs, for both the centralized and distributed
// schedulers.
#include <gtest/gtest.h>

#include "core/bucket_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "ref/lockstep.hpp"
#include "ref/naive_insertion.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"

namespace dtm {
namespace {

using testing::origin;
using testing::random_topology;
using testing::random_workload;
using testing::txn;

std::shared_ptr<const BatchScheduler> coloring() {
  return std::shared_ptr<const BatchScheduler>(make_coloring_batch());
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.committed.size(), b.committed.size());
  for (std::size_t i = 0; i < a.committed.size(); ++i) {
    EXPECT_EQ(a.committed[i].txn.id, b.committed[i].txn.id) << "commit " << i;
    EXPECT_EQ(a.committed[i].exec, b.committed[i].exec) << "commit " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.active_steps, b.active_steps);
}

// ---------------------------------------------------------------------------
// Level-search lower bound and scan invariants

TEST(BucketFastPath, LowerBoundStartsScanAtExactLevel) {
  // Single txn at distance 15 from its object: LB = 15, so the scan must
  // start at level 4 (2^4 = 16 >= 15) having skipped levels 0-3, and the
  // single probe must succeed there — the level the naive scan also picks
  // (bucket_test pins level 4 for this scenario).
  const Network net = make_line(16);
  ScriptedWorkload wl({origin(0, 0)}, {txn(1, 15, 0, {0})});
  BucketScheduler sched(coloring());
  (void)testing::run_and_validate(net, wl, sched);
  ASSERT_EQ(sched.traces().size(), 1u);
  EXPECT_EQ(sched.traces()[0].level, 4);

  const BucketInsertionCore& core = sched.insertion_core();
  EXPECT_EQ(core.last_lower_bound(), 15);
  ASSERT_EQ(core.last_scan().size(), 1u);
  EXPECT_EQ(core.last_scan()[0].level, 4);
  EXPECT_EQ(core.last_scan()[0].estimate, 15);
  EXPECT_EQ(sched.fastpath_stats().levels_skipped, 4);
}

TEST(BucketFastPath, ScanRecordsRespectLowerBoundAndThresholds) {
  // Conflicting transactions: the last arrival's scan must show (a) every
  // estimate >= the single-txn lower bound, (b) every failed level's
  // estimate strictly above its 2^i threshold (that is what "failed"
  // means), (c) the chosen level's estimate within threshold.
  const Network net = make_line(16);
  ScriptedWorkload wl({origin(0, 8)},
                      {txn(1, 0, 0, {0}), txn(2, 15, 0, {0}),
                       txn(3, 12, 0, {0})});
  BucketScheduler sched(coloring());
  SyncEngine eng(net.oracle, wl.objects(), {});
  const auto arrivals = wl.arrivals_at(0);
  eng.begin_step(arrivals);
  (void)sched.on_step(eng, arrivals);
  eng.finish_step();

  const BucketInsertionCore& core = sched.insertion_core();
  const auto& scan = core.last_scan();
  ASSERT_FALSE(scan.empty());
  for (std::size_t i = 0; i < scan.size(); ++i) {
    EXPECT_GE(scan[i].estimate, core.last_lower_bound()) << "probe " << i;
    const Time threshold = Time{1} << scan[i].level;
    if (i + 1 < scan.size()) {
      EXPECT_GT(scan[i].estimate, threshold) << "probe " << i;
    } else {
      // Last probe either succeeded or the candidate fell through to the
      // top bucket; here the horizon is small enough that it succeeded.
      EXPECT_LE(scan[i].estimate, threshold);
    }
  }
}

TEST(BucketFastPath, CoreMatchesNaiveOracleOnRandomWorkloads) {
  // The verbatim scan from level 0 re-derives every insertion and every
  // activation problem of the production core — the lower bound's
  // exactness proof (and the cache/memo soundness proof) running as a
  // test. Randomized topologies and workloads; coloring (deterministic)
  // and auto (randomized on cluster / star) offline algorithms; serial and
  // wave-probing cores.
  Rng rng(0xFA57BD);
  for (int iter = 0; iter < 6; ++iter) {
    const Network net = random_topology(rng);
    const SyntheticOptions wopts = random_workload(net, rng);
    for (const char* algo : {"coloring", "auto"}) {
      for (const std::int32_t threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << net.name << " iter " << iter
                                          << " algo " << algo << " threads "
                                          << threads);
        SyntheticWorkload wl(net, wopts);
        BucketOptions o;
        o.threads = threads;
        const auto a = Registry::make_batch_algo(algo, net);
        NaiveInsertion oracle(a, o.seed);
        o.audit = &oracle;
        BucketScheduler sched(a, o);
        (void)testing::run_and_validate(net, wl, sched);
        const FastPathStats& s = sched.fastpath_stats();
        EXPECT_GT(oracle.level_checks(), 0);
        EXPECT_GT(oracle.activation_checks(), 0);
        EXPECT_EQ(oracle.level_checks(), s.inserts)
            << "every insertion must have been re-derived";
        EXPECT_EQ(oracle.activation_checks(), s.activations)
            << "every activation problem must have been rebuilt";
      }
    }
  }
}

TEST(BucketFastPath, NaiveOracleRejectsAWrongLevel) {
  // The audit is live, not a counter: a level the verbatim scan would not
  // choose throws. Single txn 15 hops from its object: the scan picks 4.
  const Network net = make_line(16);
  ScriptedWorkload wl({origin(0, 0)}, {txn(1, 15, 0, {0})});
  SyncEngine eng(net.oracle, wl.objects(), {});
  const auto arrivals = wl.arrivals_at(0);
  eng.begin_step(arrivals);
  NaiveInsertion oracle(coloring(), 0);
  const auto levels = [](std::int32_t i) {
    return BucketInsertionCore::LevelView{
        static_cast<BucketInsertionCore::BucketId>(i), {}};
  };
  const ExtraAssignments extra;
  EXPECT_EQ(oracle.choose_level(eng, eng.txn(1), 8, levels, extra), 4);
  EXPECT_NO_THROW(oracle.on_level(eng, eng.txn(1), 8, levels, extra, 4));
  EXPECT_THROW(oracle.on_level(eng, eng.txn(1), 8, levels, extra, 5),
               CheckError);
  EXPECT_EQ(oracle.level_checks(), 2);
  eng.finish_step();
}

// ---------------------------------------------------------------------------
// Byte-identity across engines and schedulers. The engine modes are the
// production engine alone and the production engine stepped in lockstep
// with the scan oracle (`against_oracle`); lockstep runs are additionally
// audited by the verbatim insertion scan, which must not perturb them.

RunResult run_bucket(const Network& net, const SyntheticOptions& wopts,
                     bool against_oracle) {
  SyntheticWorkload wl(net, wopts);
  BucketOptions o;
  const auto algo = Registry::make_batch_algo("auto", net);
  NaiveInsertion naive(algo, o.seed);
  if (against_oracle) o.audit = &naive;
  BucketScheduler sched(algo, o);
  RunOptions opts;
  opts.validate = true;
  if (!against_oracle) return run_experiment(net, wl, sched, opts);
  RunResult r = run_lockstep(net, wl, sched, opts);
  EXPECT_EQ(naive.level_checks(), sched.fastpath_stats().inserts);
  EXPECT_GT(naive.activation_checks(), 0);
  return r;
}

TEST(BucketFastPath, PathsByteIdenticalInAllEngineModes) {
  // line (deterministic A), cluster and star (randomized A, where the
  // derived per-probe / per-trial RNG streams carry the byte-identity).
  const Network nets[] = {make_line(12), make_cluster(2, 3, 4),
                          make_star(3, 3)};
  for (const Network& net : nets) {
    SyntheticOptions w;
    w.num_objects = 8;
    w.k = 2;
    w.rounds = 3;
    w.arrival_prob = 0.3;
    w.seed = 909;
    expect_identical(run_bucket(net, w, false), run_bucket(net, w, true));
  }
}

TEST(BucketFastPath, IncrementalPathActuallyTakesTheFastRoute) {
  const Network net = make_cluster(2, 3, 4);
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 4;
  w.seed = 1234;
  SyntheticWorkload wl(net, w);
  BucketScheduler sched(Registry::make_batch_algo("auto", net), {});
  (void)testing::run_and_validate(net, wl, sched);
  const FastPathStats& s = sched.fastpath_stats();
  EXPECT_GT(s.inserts, 0);
  EXPECT_EQ(s.appends, s.inserts);  // every insertion appended in place
  EXPECT_EQ(s.rebuilds, 0);         // no full problem rebuilds at all
  EXPECT_GT(s.levels_skipped, 0);   // the lower bound skipped real work
  EXPECT_EQ(s.probes, s.memo_hits + s.estimates);
}

TEST(BucketFastPath, MemoAnswersRepeatedScansWithoutRerunningA) {
  // Exercise the memo at the core API: an identical scan re-run (the
  // re-probe shape — nothing inserted, world unchanged) must cost zero
  // estimator runs, hit the memo on every probe, and choose the same level
  // with the same estimates.
  const Network net = make_line(16);
  ScriptedWorkload wl({origin(0, 0)}, {txn(1, 15, 0, {0})});
  SyncEngine eng(net.oracle, wl.objects(), {});
  const auto arrivals = wl.arrivals_at(0);
  eng.begin_step(arrivals);

  BucketInsertionCore core(coloring(), 0);
  const auto levels = [](std::int32_t i) {
    return BucketInsertionCore::LevelView{
        static_cast<BucketInsertionCore::BucketId>(i), {}};
  };
  const ExtraAssignments extra;
  const std::int32_t first = core.choose_level(eng, eng.txn(1), 8, levels,
                                               extra);
  const auto first_scan = core.last_scan();
  const std::int64_t estimates_after_first = core.stats().estimates;
  EXPECT_GT(estimates_after_first, 0);
  EXPECT_EQ(core.stats().memo_hits, 0);

  const std::int32_t second = core.choose_level(eng, eng.txn(1), 8, levels,
                                                extra);
  EXPECT_EQ(second, first);
  EXPECT_EQ(core.stats().estimates, estimates_after_first);  // A never re-ran
  EXPECT_EQ(core.stats().memo_hits,
            static_cast<std::int64_t>(first_scan.size()));
  ASSERT_EQ(core.last_scan().size(), first_scan.size());
  for (std::size_t i = 0; i < first_scan.size(); ++i) {
    EXPECT_EQ(core.last_scan()[i].level, first_scan[i].level);
    EXPECT_EQ(core.last_scan()[i].estimate, first_scan[i].estimate);
    EXPECT_TRUE(core.last_scan()[i].memo_hit);
  }
  eng.finish_step();
}

RunResult run_dist(const Network& net, const FaultPlan& plan,
                   bool against_oracle) {
  SyntheticOptions w;
  w.num_objects = 10;
  w.k = 2;
  w.rounds = 2;
  w.seed = 606;
  SyntheticWorkload wl(net, w);
  DistBucketOptions o;
  o.seed = 77;
  o.fault = plan;
  const auto algo = Registry::make_batch_algo("auto", net);
  NaiveInsertion naive(algo, o.seed);
  if (against_oracle) o.audit = &naive;
  DistributedBucketScheduler sched(net, algo, o);
  RunOptions opts;
  opts.engine.latency_factor = 2;  // §V half-speed objects
  opts.engine.fault = plan;
  opts.validate = true;
  if (!against_oracle) return run_experiment(net, wl, sched, opts);
  RunResult r = run_lockstep(net, wl, sched, opts);
  EXPECT_EQ(naive.level_checks(), sched.fastpath_stats().inserts);
  EXPECT_EQ(naive.activation_checks(), sched.fastpath_stats().activations);
  EXPECT_GT(naive.activation_checks(), 0);
  return r;
}

TEST(DistBucketFastPath, PathsByteIdenticalUnderNullAndChaosPlans) {
  const Network net = make_cluster(2, 3, 4);
  FaultPlan chaos;
  chaos.drop = 0.3;
  chaos.jitter = 2;
  chaos.dup = 0.1;
  chaos.stall = 0.3;
  chaos.seed = 23;
  for (const FaultPlan& plan : {FaultPlan{}, chaos})
    expect_identical(run_dist(net, plan, false), run_dist(net, plan, true));
}

// ---------------------------------------------------------------------------
// Fingerprint / estimator units

TEST(BucketFastPath, FingerprintIsShiftInvariantAndContentSensitive) {
  BatchProblem p;
  p.latency_factor = 1;
  p.now = 10;
  p.txns.push_back({1, 0, {0}});
  p.objects.push_back({0, 3, 12, false});
  const std::uint64_t fp = problem_fingerprint(p);

  // Shifting the absolute clock (and availability with it) changes nothing:
  // batch algorithms schedule relative to now.
  BatchProblem shifted = p;
  shifted.now = 100;
  shifted.objects[0].ready = 102;
  EXPECT_EQ(problem_fingerprint(shifted), fp);

  // Any content change flips it.
  BatchProblem other = p;
  other.objects[0].ready = 13;
  EXPECT_NE(problem_fingerprint(other), fp);
  other = p;
  other.txns[0].node = 1;
  EXPECT_NE(problem_fingerprint(other), fp);
  other = p;
  other.latency_factor = 2;
  EXPECT_NE(problem_fingerprint(other), fp);
}

TEST(BucketFastPath, SeededEstimateIsAPureFunctionOfSeed) {
  // The memoization soundness condition: same problem + same seed => same
  // estimate, regardless of when or how often it is computed.
  const Network net = make_cluster(2, 3, 4);
  const auto algo = Registry::make_batch_algo("cluster", net);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.latency_factor = 1;
  p.now = 0;
  p.txns.push_back({1, 0, {0}});
  p.txns.push_back({2, 5, {0, 1}});
  p.objects.push_back({0, 3, 0, false});
  p.objects.push_back({1, 4, 2, true});
  const Time a = estimate_fa_seeded(*algo, p, 42);
  const Time b = estimate_fa_seeded(*algo, p, 42);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dtm
