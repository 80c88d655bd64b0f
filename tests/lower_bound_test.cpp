// Tests for core/lower_bound: the certificates must be correct (<= the
// makespan of any feasible schedule) and tight on crafted instances.
#include <gtest/gtest.h>

#include "batch/batch_scheduler.hpp"
#include "core/lower_bound.hpp"
#include "net/topology.hpp"
#include "test_helpers.hpp"

namespace dtm {
namespace {

using testing::origin;
using testing::txn;

TEST(LowerBound, SingleLocalTxn) {
  const Network net = make_line(8);
  const auto lb = makespan_lower_bound({txn(1, 3, 0, {0})}, {origin(0, 3)},
                                       *net.oracle);
  EXPECT_EQ(lb.reach, 0);
  EXPECT_EQ(lb.load, 0);
  EXPECT_EQ(lb.lmax, 1);
  EXPECT_EQ(lb.best(), 1);  // floor of 1: any txn takes a step to observe
}

TEST(LowerBound, ReachDominatesForFarObject) {
  const Network net = make_line(16);
  const auto lb = makespan_lower_bound({txn(1, 15, 0, {0})}, {origin(0, 0)},
                                       *net.oracle);
  EXPECT_EQ(lb.reach, 15);
  EXPECT_EQ(lb.best(), 15);
}

TEST(LowerBound, LoadCountsUsers) {
  const Network net = make_clique(8);
  // 5 txns all share object 0 which starts at node 0 (a user's node).
  std::vector<Transaction> ts;
  for (int i = 0; i < 5; ++i)
    ts.push_back(txn(i, static_cast<NodeId>(i), 0, {0}));
  const auto lb = makespan_lower_bound(ts, {origin(0, 0)}, *net.oracle);
  EXPECT_EQ(lb.lmax, 5);
  EXPECT_EQ(lb.load, 0 + 4);  // nearest user distance 0, then 4 more commits
  EXPECT_EQ(lb.spread, 1);
  EXPECT_EQ(lb.best(), 4);
}

TEST(LowerBound, SpreadOnLine) {
  const Network net = make_line(20);
  const std::vector<Transaction> ts{txn(1, 2, 0, {0}), txn(2, 18, 0, {0})};
  const auto lb = makespan_lower_bound(ts, {origin(0, 10)}, *net.oracle);
  EXPECT_EQ(lb.spread, 16);
  EXPECT_EQ(lb.reach, 8);
  EXPECT_EQ(lb.best(), 16);
}

TEST(LowerBound, LatencyFactorScalesCertificates) {
  const Network net = make_line(16);
  const auto lb = makespan_lower_bound({txn(1, 15, 0, {0})}, {origin(0, 0)},
                                       *net.oracle, 2);
  EXPECT_EQ(lb.reach, 30);
}

TEST(LowerBound, CreationTimeShifts) {
  const Network net = make_line(16);
  const auto lb = makespan_lower_bound({txn(1, 10, 0, {0})},
                                       {origin(0, 0, 0)}, *net.oracle);
  EXPECT_EQ(lb.reach, 10);
}

TEST(LowerBound, MissingOriginThrows) {
  const Network net = make_line(4);
  EXPECT_THROW((void)makespan_lower_bound({txn(1, 0, 0, {9})}, {}, *net.oracle),
               CheckError);
}

// Soundness sweep: on random instances, LB <= makespan of an actual valid
// schedule produced by a real scheduler (via the sequential chain).
class LowerBoundSoundness : public ::testing::TestWithParam<int> {};

TEST_P(LowerBoundSoundness, NeverExceedsAchievedMakespan) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  const Network net = make_grid({4, 4});
  std::vector<ObjectOrigin> origins;
  for (ObjId o = 0; o < 6; ++o)
    origins.push_back(
        {o, static_cast<NodeId>(rng.uniform_int(0, 15)), 0});
  std::vector<Transaction> ts;
  for (TxnId i = 0; i < 10; ++i) {
    const auto objs = rng.sample_distinct(6, 2);
    ts.push_back(txn(i, static_cast<NodeId>(rng.uniform_int(0, 15)), 0,
                     {objs[0], objs[1]}));
  }
  // Build an obviously feasible schedule: fully sequential with generous
  // slack (each commit D later than the previous plus travel).
  std::vector<ScheduledTxn> sched;
  Time t = 0;
  for (const auto& tx : ts) {
    t += 2 * net.diameter() + 1;
    sched.push_back({tx, t});
  }
  ASSERT_FALSE(validate_schedule(sched, origins, *net.oracle).has_value());
  const auto lb = makespan_lower_bound(ts, origins, *net.oracle);
  EXPECT_LE(lb.best(), makespan(sched));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundSoundness, ::testing::Range(0, 10));

// Certificate check against the true optimum: on tiny instances where
// every transaction is generated at time 0, the exhaustive chain search is
// the optimal makespan (any feasible schedule's execution order, replayed
// as a chain, is no later), so no certificate may exceed it. The batch
// model lets a transaction sitting on its objects execute at time 0, below
// best()'s floor of one step, so the floor is compared against max(opt, 1).
TEST(LowerBound, NeverExceedsExhaustiveOptimum) {
  Rng rng(0x10B0);
  const auto exhaustive = make_exhaustive_batch(7);
  for (int it = 0; it < 40; ++it) {
    const Network net =
        rng.uniform_int(0, 1) == 0
            ? make_grid({static_cast<NodeId>(rng.uniform_int(2, 4)),
                         static_cast<NodeId>(rng.uniform_int(2, 4))})
            : make_line(static_cast<NodeId>(rng.uniform_int(4, 16)));
    const auto n_nodes = static_cast<std::int64_t>(net.num_nodes());
    const auto latency = rng.uniform_int(1, 2);
    const auto n_obj = static_cast<ObjId>(rng.uniform_int(2, 5));
    BatchProblem p;
    p.oracle = net.oracle.get();
    p.latency_factor = latency;
    std::vector<ObjectOrigin> origins;
    for (ObjId o = 0; o < n_obj; ++o) {
      const auto node = static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1));
      p.objects.push_back({o, node, 0, false});
      origins.push_back(origin(o, node));
    }
    std::vector<Transaction> txns;
    const auto n_txn = rng.uniform_int(1, 7);
    for (TxnId i = 0; i < n_txn; ++i) {
      const auto objs = rng.sample_distinct(
          n_obj, static_cast<std::int32_t>(rng.uniform_int(1, 2)));
      const auto node = static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1));
      std::vector<ObjId> ids(objs.begin(), objs.end());
      std::sort(ids.begin(), ids.end());
      p.txns.push_back({i, node, ids});
      txns.push_back(txn(i, node, 0, ids));
    }
    Rng r(1);
    const Time opt = exhaustive->schedule(p, r).makespan;
    const auto lb = makespan_lower_bound(txns, origins, *net.oracle, latency);
    SCOPED_TRACE(::testing::Message() << net.name << " iter " << it);
    EXPECT_LE(lb.load, opt);
    EXPECT_LE(lb.reach, opt);
    EXPECT_LE(lb.spread, opt);
    EXPECT_LE(lb.best(), std::max<Time>(opt, 1));
  }
}

}  // namespace
}  // namespace dtm
