// Tests for sim/engine: the synchronous execution engine's bookkeeping,
// object routing (incl. redirects), and its built-in feasibility policing.
#include <gtest/gtest.h>

#include <climits>
#include <string>

#include "core/bucket_scheduler.hpp"
#include "core/greedy_scheduler.hpp"
#include "net/topology.hpp"
#include "ref/lockstep.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"

namespace dtm {
namespace {

using testing::origin;
using testing::txn;

class EngineTest : public ::testing::Test {
 protected:
  Network net_ = make_line(10);

  SyncEngine make_engine(std::vector<ObjectOrigin> origins) {
    return SyncEngine(net_.oracle, std::move(origins), {});
  }

  static void idle_steps(SyncEngine& e, int n) {
    for (int i = 0; i < n; ++i) {
      e.begin_step({});
      e.finish_step();
    }
  }
};

TEST_F(EngineTest, RejectsDuplicateObjects) {
  EXPECT_THROW(make_engine({origin(0, 1), origin(0, 2)}), CheckError);
}

TEST_F(EngineTest, RejectsBadOrigins) {
  EXPECT_THROW(make_engine({origin(0, 99)}), CheckError);
  EXPECT_THROW(make_engine({origin(0, 1, 5)}), CheckError);  // future birth
}

TEST_F(EngineTest, ArrivalValidation) {
  SyncEngine e = make_engine({origin(0, 0)});
  const Transaction bad_gen = txn(1, 2, 5, {0});
  EXPECT_THROW(e.begin_step({{bad_gen}}), CheckError);
  const Transaction bad_obj = txn(1, 2, 0, {9});
  EXPECT_THROW(e.begin_step({{bad_obj}}), CheckError);
  Transaction empty = txn(1, 2, 0, {});
  EXPECT_THROW(e.begin_step({{empty}}), CheckError);
}

TEST_F(EngineTest, SparseObjectIdsCommitLikeDenseOnes) {
  // Instance files may name any int32 object id. The same instance with
  // ids {0, 7, 2^30, INT32_MAX} and with the order-preserving dense
  // relabelling {0, 1, 2, 3} must commit the same sequence, under greedy
  // and bucket scheduling and with the scan oracle in lockstep.
  const ObjId sparse[] = {0, 7, 1 << 30, INT32_MAX};
  Rng rng(0x5EA);
  std::vector<Transaction> dense_txns;
  for (TxnId id = 1; id <= 40; ++id) {
    std::vector<ObjId> objs;
    for (ObjId o = 0; o < 4; ++o)
      if (rng.uniform_int(0, 2) == 0) objs.push_back(o);
    if (objs.empty()) objs.push_back(static_cast<ObjId>(id % 4));
    dense_txns.push_back(txn(id, static_cast<NodeId>(rng.uniform_int(0, 9)),
                             rng.uniform_int(0, 30), objs));
  }
  const auto relabel = [&](bool to_sparse) {
    std::vector<ObjectOrigin> origins;
    for (ObjId o = 0; o < 4; ++o)
      origins.push_back(origin(to_sparse ? sparse[o] : o, 3 * o));
    std::vector<Transaction> txns = dense_txns;
    if (to_sparse)
      for (Transaction& t : txns)
        for (auto& a : t.accesses) a.obj = sparse[a.obj];
    return ScriptedWorkload(std::move(origins), std::move(txns));
  };
  const auto sequence = [](const RunResult& r) {
    std::vector<std::pair<TxnId, Time>> out;
    for (const ScheduledTxn& s : r.committed) out.emplace_back(s.txn.id, s.exec);
    return out;
  };
  for (const bool bucket : {false, true}) {
    const auto run = [&](bool to_sparse, bool lockstep) {
      ScriptedWorkload wl = relabel(to_sparse);
      std::unique_ptr<OnlineScheduler> sched;
      if (bucket)
        sched = std::make_unique<BucketScheduler>(
            std::shared_ptr<const BatchScheduler>(make_coloring_batch()));
      else
        sched = std::make_unique<GreedyScheduler>();
      return sequence(lockstep ? run_lockstep(net_, wl, *sched, {})
                               : run_experiment(net_, wl, *sched));
    };
    const auto dense = run(false, false);
    ASSERT_EQ(dense.size(), dense_txns.size());
    EXPECT_EQ(run(true, false), dense) << (bucket ? "bucket" : "greedy");
    EXPECT_EQ(run(true, true), dense) << (bucket ? "bucket" : "greedy");
  }

  // An access to an undeclared id is still a clean error.
  SyncEngine e(net_.oracle,
               {origin(0, 0), origin(7, 1), origin(1 << 30, 2),
                origin(INT32_MAX, 3)},
               {});
  try {
    e.begin_step({{txn(1, 2, 0, {7, 8})}});
    FAIL() << "undeclared object 8 accepted";
  } catch (const CheckError& err) {
    EXPECT_NE(std::string(err.what()).find("requests unknown object 8"),
              std::string::npos)
        << err.what();
  }
  EXPECT_EQ(e.num_live(), 0);
}

TEST_F(EngineTest, BasicCommitFlow) {
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 4, 0, {0})}});
  EXPECT_EQ(e.num_live(), 1);
  EXPECT_EQ(e.assigned_exec(1), kNoTime);
  e.apply({{Assignment{1, 4}}});
  EXPECT_EQ(e.assigned_exec(1), 4);
  auto commits = e.finish_step();
  EXPECT_TRUE(commits.empty());
  idle_steps(e, 3);
  EXPECT_EQ(e.now(), 4);
  e.begin_step({});
  commits = e.finish_step();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].txn, 1);
  EXPECT_EQ(commits[0].exec, 4);
  EXPECT_TRUE(e.all_done());
  EXPECT_EQ(e.object(0).at(), 4);
  EXPECT_EQ(e.object(0).last_txn(), 1);
  ASSERT_EQ(e.committed().size(), 1u);
}

TEST_F(EngineTest, LatestScheduledUserPinTracksAssignmentsAndCommits) {
  // The O(1) per-object pin against the SystemView default scan (called
  // non-virtually) after each of the three events that move it.
  SyncEngine e = make_engine({origin(0, 0)});
  const auto expect_pin = [&](TxnId txn, Time exec, NodeId node) {
    const ScheduledUser pin = e.latest_scheduled_user(0);
    const ScheduledUser scan = e.SystemView::latest_scheduled_user(0);
    EXPECT_EQ(pin.txn, txn);
    EXPECT_EQ(pin.exec, exec);
    EXPECT_EQ(pin.node, node);
    EXPECT_EQ(scan.txn, txn);
    EXPECT_EQ(scan.exec, exec);
    EXPECT_EQ(scan.node, node);
  };
  e.begin_step({{txn(1, 2, 0, {0}), txn(2, 5, 0, {0})}});
  expect_pin(kNoTxn, kNoTime, kNoNode);
  e.apply({{Assignment{1, 2}}});
  expect_pin(1, 2, 2);
  e.apply({{Assignment{2, 7}}});  // a later assignment raises the pin
  expect_pin(2, 7, 5);
  e.finish_step();
  idle_steps(e, 1);
  e.begin_step({});
  ASSERT_EQ(e.finish_step().size(), 1u);  // txn 1, not the pin, commits
  expect_pin(2, 7, 5);
  idle_steps(e, 4);
  e.begin_step({});
  ASSERT_EQ(e.finish_step().size(), 1u);  // the pin user commits
  expect_pin(kNoTxn, kNoTime, kNoNode);
  EXPECT_EQ(e.latest_scheduled_user(42).txn, kNoTxn);  // unknown object
}

TEST_F(EngineTest, ApplyGuards) {
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 0, 0, {0})}});
  EXPECT_THROW(e.apply({{Assignment{2, 3}}}), CheckError);   // unknown txn
  EXPECT_THROW(e.apply({{Assignment{1, -1}}}), CheckError);  // past
  e.apply({{Assignment{1, 2}}});
  EXPECT_THROW(e.apply({{Assignment{1, 3}}}), CheckError);  // irrevocable
}

TEST_F(EngineTest, ExecutionWithoutObjectIsFlagged) {
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 9, 0, {0})}});
  e.apply({{Assignment{1, 3}}});  // object needs 9 steps, scheduled at 3
  idle_steps(e, 3);
  e.begin_step({});
  EXPECT_THROW(e.finish_step(), CheckError);
}

TEST_F(EngineTest, MissedExecutionIsFlagged) {
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 0, 0, {0})}});
  e.finish_step();
  // Assign in the past relative to a later step by sneaking past apply's
  // check: assign exec = now, then skip the step via advance_to guard.
  e.begin_step({});
  e.apply({{Assignment{1, 1}}});
  EXPECT_THROW(e.advance_to(3), CheckError);  // would skip the due exec
}

TEST_F(EngineTest, SameStepArrivalAndCommit) {
  SyncEngine e = make_engine({origin(0, 5)});
  e.begin_step({{txn(1, 5, 0, {0})}});
  e.apply({{Assignment{1, 0}}});  // object is local: commit immediately
  const auto commits = e.finish_step();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].exec, 0);
}

TEST_F(EngineTest, ObjectForwardedBetweenUsers) {
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 2, 0, {0}), txn(2, 6, 0, {0})}});
  e.apply({{Assignment{1, 2}, Assignment{2, 6}}});
  idle_steps(e, 2);  // steps 0 and 1
  e.begin_step({});
  auto commits = e.finish_step();  // txn1 at t=2
  ASSERT_EQ(commits.size(), 1u);
  // Object now in transit to node 6.
  EXPECT_TRUE(e.object(0).in_transit());
  EXPECT_EQ(e.object(0).dest(), 6);
  EXPECT_EQ(e.object(0).arrive_time(), 6);
  idle_steps(e, 3);
  e.begin_step({});
  commits = e.finish_step();  // txn2 at t=6
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_TRUE(e.all_done());
}

TEST_F(EngineTest, RedirectToEarlierUser) {
  // Object heads to a far user; a later-scheduled but earlier-executing
  // user appears; the engine must divert and still meet both deadlines.
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 9, 0, {0})}});
  e.apply({{Assignment{1, 20}}});
  e.finish_step();  // t=1; object in transit to 9
  EXPECT_TRUE(e.object(0).in_transit());
  e.begin_step({{txn(2, 1, 1, {0})}});
  // At t=1 the object is 1 along; promise to node 1 = back(1) + 1 = 2 more.
  const Time promised = e.object(0).time_to(1, 1, *net_.oracle);
  e.apply({{Assignment{2, 1 + promised}}});
  e.finish_step();
  idle_steps(e, static_cast<int>(promised) - 1);
  e.begin_step({});
  auto commits = e.finish_step();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].txn, 2);
  // And txn1 still commits on time at t=20.
  while (!e.all_done()) {
    e.begin_step({});
    e.finish_step();
  }
  EXPECT_EQ(e.committed().back().exec, 20);
}

TEST_F(EngineTest, LiveUsersTracksArrivalsAndCommits) {
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 0, 0, {0}), txn(2, 3, 0, {0})}});
  EXPECT_EQ(e.live_users_of(0).size(), 2u);
  e.apply({{Assignment{1, 0}, Assignment{2, 3}}});
  e.finish_step();
  EXPECT_EQ(e.live_users_of(0).size(), 1u);
  EXPECT_EQ(e.live_users_of(0)[0], 2);
  EXPECT_EQ(e.live_users_of(5).size(), 0u);  // unknown object: empty
}

TEST_F(EngineTest, AdvanceToSkipsIdleTime) {
  SyncEngine e = make_engine({origin(0, 0)});
  e.begin_step({{txn(1, 0, 0, {0})}});
  e.apply({{Assignment{1, 100}}});
  e.finish_step();
  e.advance_to(100);
  EXPECT_EQ(e.now(), 100);
  e.begin_step({});
  const auto commits = e.finish_step();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_THROW(e.advance_to(50), CheckError);  // backwards
}

TEST_F(EngineTest, NextExecDue) {
  SyncEngine e = make_engine({origin(0, 0)});
  EXPECT_EQ(e.next_exec_due(), kNoTime);
  e.begin_step({{txn(1, 0, 0, {0}), txn(2, 1, 0, {0})}});
  e.apply({{Assignment{1, 7}}});
  EXPECT_EQ(e.next_exec_due(), 7);
  e.apply({{Assignment{2, 9}}});
  EXPECT_EQ(e.next_exec_due(), 7);
}

TEST_F(EngineTest, LatencyFactorSlowsObjects) {
  EngineOptions opts;
  opts.latency_factor = 2;
  SyncEngine e(net_.oracle, {origin(0, 0)}, opts);
  e.begin_step({{txn(1, 4, 0, {0})}});
  e.apply({{Assignment{1, 8}}});  // 4 hops * factor 2
  e.finish_step();
  EXPECT_EQ(e.object(0).arrive_time(), 8);
}

}  // namespace
}  // namespace dtm
