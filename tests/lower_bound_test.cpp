// Tests for core/lower_bound: the certificates must be correct (<= the
// makespan of any feasible schedule), tight on crafted instances, and equal
// to the map + all-pairs reference (tests/ref/lower_bound) on fuzzed ones.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "batch/batch_scheduler.hpp"
#include "core/lower_bound.hpp"
#include "net/topology.hpp"
#include "ref/lower_bound.hpp"
#include "sim/registry.hpp"
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

// Differential fuzz against the map + all-pairs reference: the flat
// counting-sort grouping, the distinct-node spread loop and its diameter
// cut-off must reproduce every certificate exactly. Covers the formula,
// APSP and landmark oracles, latency factors 1-3, creation times > 0,
// objects with more than 512 users (sampling stride > 1), every user on
// one node, duplicate accesses and duplicate origin ids (last one wins).
TEST(LowerBound, MatchesMapOracleOnFuzzedInstances) {
  const std::vector<std::string> topologies{
      "clique:n=12",
      "line:n=40",
      "ring:n=17",
      "grid:dims=5x6",
      "cluster:alpha=3,beta=4,gamma=5",
      "random:n=40,extra=50,maxw=3,seed=3",
      "random:n=60,extra=80,maxw=3,seed=5,routing=landmark"};
  Rng rng(0x1B0D);
  for (const std::string& topo : topologies) {
    const Network net = Registry::make_network(parse_spec(topo));
    const auto n_nodes = static_cast<std::int64_t>(net.num_nodes());
    const auto node = [&] {
      return static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1));
    };
    for (int it = 0; it < 24; ++it) {
      const std::int64_t latency = 1 + it % 3;
      const auto n_obj = static_cast<ObjId>(rng.uniform_int(1, 10));
      std::vector<ObjectOrigin> origins;
      for (ObjId o = 0; o < n_obj; ++o) {
        const Time created = rng.uniform_int(0, 1) * rng.uniform_int(1, 9);
        origins.push_back(origin(o * 3 + 1, node(), created));
      }
      for (ObjId o = 0; o < n_obj; o += 3)  // re-listed ids: last one wins
        origins.push_back(origin(o * 3 + 1, node(), rng.uniform_int(0, 4)));

      const int shape = it % 4;  // 0 plain, 1 hot object, 2 one node, 3 dups
      const bool hot = shape == 1;
      const NodeId only = node();
      const std::int64_t n_txn = hot ? rng.uniform_int(520, 1100)
                                     : rng.uniform_int(0, 60);
      std::vector<Transaction> txns;
      for (TxnId i = 0; i < n_txn; ++i) {
        std::vector<ObjId> objs;
        if (hot) objs.push_back(1);  // object 1 has > 512 users
        const auto k = rng.uniform_int(1, 3);
        for (std::int64_t j = 0; j < k; ++j)
          objs.push_back(
              static_cast<ObjId>(rng.uniform_int(0, n_obj - 1) * 3 + 1));
        if (shape == 3) objs.push_back(objs.front());  // duplicate access
        txns.push_back(txn(i, shape == 2 ? only : node(), 0, objs));
      }

      const auto got = makespan_lower_bound(txns, origins, *net.oracle,
                                            latency);
      const auto want = map_makespan_lower_bound(txns, origins, *net.oracle,
                                                 latency);
      SCOPED_TRACE(::testing::Message() << topo << " iter " << it);
      EXPECT_EQ(got.load, want.load);
      EXPECT_EQ(got.reach, want.reach);
      EXPECT_EQ(got.spread, want.spread);
      EXPECT_EQ(got.lmax, want.lmax);
    }
  }
}

// The spread samples every step-th user in use order. Here every sampled
// position (even, step 2 for 700 users) sits on node 5 and the unsampled
// ones alternate between the line's ends: the sample's spread is only
// created + 0, and a grouping that lost the use order would pair the ends.
TEST(LowerBound, SpreadSamplesUsersInUseOrder) {
  const Network net = make_line(40);
  std::vector<Transaction> txns;
  for (TxnId i = 0; i < 700; ++i)
    txns.push_back(txn(i, i % 2 == 0 ? 5 : (i % 4 == 1 ? 0 : 39), 0, {0}));
  const std::vector<ObjectOrigin> origins{origin(0, 20, 3)};
  const auto got = makespan_lower_bound(txns, origins, *net.oracle, 2);
  const auto want = map_makespan_lower_bound(txns, origins, *net.oracle, 2);
  EXPECT_EQ(got.spread, 3);
  EXPECT_EQ(got.spread, want.spread);
  EXPECT_EQ(got.reach, 3 + 2 * 20);
  EXPECT_EQ(got.reach, want.reach);
  EXPECT_EQ(got.load, want.load);
  EXPECT_EQ(got.lmax, 700);
}

/// The message part of a CheckError (after the expression and location).
std::string check_message(const std::function<void()>& f) {
  try {
    f();
  } catch (const CheckError& e) {
    const std::string what = e.what();
    const auto at = what.find(" — ");
    return at == std::string::npos ? what : what.substr(at);
  }
  return "no throw";
}

TEST(LowerBound, MissingOriginThrowsTheReferenceMessage) {
  const Network net = make_line(8);
  // Objects 9 and 4 lack an origin; both versions name the smaller one.
  const std::vector<Transaction> txns{txn(1, 0, 0, {2, 9}), txn(2, 3, 0, {4}),
                                      txn(3, 5, 0, {2})};
  const std::vector<ObjectOrigin> origins{origin(2, 1), origin(7, 0)};
  const std::string got = check_message(
      [&] { (void)makespan_lower_bound(txns, origins, *net.oracle); });
  EXPECT_EQ(got, " — object 4 has no origin");
  EXPECT_EQ(got, check_message([&] {
              (void)map_makespan_lower_bound(txns, origins, *net.oracle);
            }));
}

}  // namespace
}  // namespace dtm
