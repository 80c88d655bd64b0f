// Tests for batch/: problems, the ordered-chain engine, every per-topology
// scheduler, F_A estimation, and the baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <map>
#include <set>

#include "batch/batch_scheduler.hpp"
#include "core/lower_bound.hpp"
#include "net/topology.hpp"
#include "ref/batch_rebuild.hpp"
#include "util/id_index.hpp"
#include "util/parallel.hpp"

namespace dtm {
namespace {

BatchProblem line_problem(const Network& net) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 0;
  p.objects = {{0, 0, 0, false}, {1, 9, 0, false}};
  p.txns = {{1, 2, {0}}, {2, 7, {0, 1}}, {3, 4, {1}}};
  return p;
}

TEST(BatchProblem, ObjectLookup) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  EXPECT_EQ(batch_object(p, 1).node, 9);
  EXPECT_THROW((void)batch_object(p, 7), CheckError);
  EXPECT_EQ(p.travel(0, 4), 4);
}

TEST(BatchResult, ExecLookup) {
  BatchResult r;
  r.assignments = {{1, 5}, {2, 9}};
  EXPECT_EQ(exec_of(r, 2), 9);
  EXPECT_THROW((void)exec_of(r, 3), CheckError);
}

TEST(ChainEvaluate, FollowsOrderAndChains) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  const BatchResult r = chain_evaluate(p, {0, 1, 2});
  // txn1@2 gets obj0 after 2 steps; txn2@7: obj0 from node 2 (released at
  // 2) = 2+5 = 7, obj1 from 9 = 2; exec 7. txn3@4: obj1 from node 7 at 7
  // -> 7+3 = 10.
  EXPECT_EQ(exec_of(r, 1), 2);
  EXPECT_EQ(exec_of(r, 2), 7);
  EXPECT_EQ(exec_of(r, 3), 10);
  EXPECT_EQ(r.makespan, 10);
}

TEST(ChainEvaluate, OrderMatters) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  const BatchResult r = chain_evaluate(p, {2, 1, 0});
  EXPECT_EQ(exec_of(r, 3), 5);  // obj1 travels 9 -> 4
  // txn2 next: obj1 from 4 (at 5) -> 5+3 = 8; obj0 from 0 -> 7. exec 8.
  EXPECT_EQ(exec_of(r, 2), 8);
  // txn1 last: obj0 from node 7 at 8 -> 8+5 = 13.
  EXPECT_EQ(exec_of(r, 1), 13);
}

TEST(ChainEvaluate, RespectsReadyTimesAndFromTxn) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 100;
  p.objects = {{0, 3, 120, true}};
  p.txns = {{1, 3, {0}}};
  const BatchResult r = chain_evaluate(p, {0});
  EXPECT_EQ(exec_of(r, 1), 121);  // from_txn forces +1 at distance zero
  EXPECT_EQ(r.makespan, 21);
}

TEST(ChainEvaluate, RejectsBadOrderSize) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  EXPECT_THROW((void)chain_evaluate(p, {0, 1}), CheckError);
}

TEST(EstimateFa, EmptyProblemUsesHorizon) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 50;
  p.objects = {{0, 3, 80, true}};
  Rng rng(1);
  const auto algo = make_coloring_batch();
  EXPECT_EQ(estimate_fa(*algo, p, rng), 30);
}

TEST(EstimateFa, CoversLateAvailability) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 0;
  // Object 1 is pinned far in the future but unused by the new txns.
  p.objects = {{0, 0, 0, false}, {1, 5, 90, true}};
  p.txns = {{1, 0, {0}}};
  Rng rng(1);
  const auto algo = make_coloring_batch();
  EXPECT_GE(estimate_fa(*algo, p, rng), 90);
}

// ---- Every scheduler produces feasible schedules on random problems ----

struct SchedulerCase {
  std::string label;
  std::function<std::unique_ptr<BatchScheduler>()> make;
  std::function<Network()> net;
};

class BatchSchedulerSweep : public ::testing::TestWithParam<int> {
 public:
  static std::vector<SchedulerCase> cases() {
    return {
        {"coloring-line", make_coloring_batch, [] { return make_line(12); }},
        {"coloring-clique", make_coloring_batch,
         [] { return make_clique(10); }},
        {"line", make_line_batch, [] { return make_line(12); }},
        {"clique", make_clique_batch, [] { return make_clique(10); }},
        {"cluster", [] { return make_cluster_batch(3); },
         [] { return make_cluster(4, 3, 4); }},
        {"star", [] { return make_star_batch(4); },
         [] { return make_star(3, 4); }},
        {"grid", [] { return make_grid_snake_batch({3, 4}); },
         [] { return make_grid({3, 4}); }},
        {"hypercube", make_hypercube_gray_batch,
         [] { return make_hypercube(3); }},
        {"tsp", make_tsp_batch, [] { return make_grid({3, 4}); }},
        {"sequential", make_sequential_batch, [] { return make_line(12); }},
        {"local-search", [] { return make_local_search_batch(3); },
         [] { return make_grid({3, 4}); }},
    };
  }
};

TEST_P(BatchSchedulerSweep, FeasibleAndAboveLowerBound) {
  const auto c = cases()[static_cast<std::size_t>(GetParam())];
  const Network net = c.net();
  const auto algo = c.make();
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    BatchProblem p;
    p.oracle = net.oracle.get();
    p.now = trial * 10;
    const ObjId w = 5;
    std::vector<ObjectOrigin> origins;
    for (ObjId o = 0; o < w; ++o) {
      const auto node =
          static_cast<NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
      p.objects.push_back({o, node, p.now, false});
      origins.push_back({o, node, 0});
    }
    std::vector<Transaction> txns;
    for (TxnId i = 0; i < 8; ++i) {
      const auto objs = rng.sample_distinct(w, 2);
      const auto node =
          static_cast<NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
      p.txns.push_back({i, node, {objs[0], objs[1]}});
      Transaction t;
      t.id = i;
      t.node = node;
      t.gen_time = 0;
      t.accesses = write_set({objs[0], objs[1]});
      txns.push_back(t);
    }
    // schedule() internally runs check_batch_result (feasibility); if it
    // returns, the schedule is valid.
    const BatchResult r = algo->schedule(p, rng);
    EXPECT_EQ(r.assignments.size(), p.txns.size()) << c.label;
    // Makespan can never beat the certified lower bound.
    const auto lb = makespan_lower_bound(txns, origins, *net.oracle);
    EXPECT_GE(r.makespan + 1, lb.best()) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, BatchSchedulerSweep,
                         ::testing::Range(0, 11));

TEST(LineBatch, SweepsLeftToRight) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  p.txns = {{1, 8, {0}}, {2, 1, {0}}, {3, 5, {0}}};
  Rng rng(1);
  const BatchResult r = make_line_batch()->schedule(p, rng);
  // Sweep order 1, 5, 8: execs 1, 5, 8 — a single pass.
  EXPECT_EQ(exec_of(r, 2), 1);
  EXPECT_EQ(exec_of(r, 3), 5);
  EXPECT_EQ(exec_of(r, 1), 8);
}

TEST(SequentialBatch, FullySerial) {
  const Network net = make_clique(6);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}, {1, 1, 0, false}};
  p.txns = {{1, 0, {0}}, {2, 1, {1}}, {3, 2, {0}}};
  Rng rng(1);
  const BatchResult r = make_sequential_batch()->schedule(p, rng);
  // Even independent txns never share a step.
  EXPECT_LT(exec_of(r, 1), exec_of(r, 2));
  EXPECT_LT(exec_of(r, 2), exec_of(r, 3));
}

TEST(ClusterStarBatch, RandomizedFlagSet) {
  EXPECT_TRUE(make_cluster_batch(3)->randomized());
  EXPECT_TRUE(make_star_batch(3)->randomized());
  EXPECT_FALSE(make_line_batch()->randomized());
  EXPECT_FALSE(make_coloring_batch()->randomized());
}

TEST(ColoringBatch, CliqueRespectsLoadBound) {
  // On the clique with l transactions sharing one object, coloring gives
  // makespan O(l) — the Theorem 3 structure.
  const Network net = make_clique(16);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  for (TxnId i = 0; i < 12; ++i)
    p.txns.push_back({i, static_cast<NodeId>(i + 1), {0}});
  Rng rng(1);
  const BatchResult r = make_coloring_batch()->schedule(p, rng);
  EXPECT_LE(r.makespan, 2 * 12);
  EXPECT_GE(r.makespan, 11);  // 12 commits of one object need 11 gaps
}

TEST(LocalSearchBatch, ImprovesOnBadSeedOrders) {
  // A line instance where the natural id order ping-pongs the object; the
  // best chain order sweeps. Local search must land at (or near) the
  // sweep's makespan.
  const Network net = make_line(16);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  // Alternating far/near users: id order is terrible.
  p.txns = {{1, 15, {0}}, {2, 1, {0}}, {3, 14, {0}}, {4, 2, {0}},
            {5, 13, {0}}, {6, 3, {0}}};
  Rng rng(5);
  const Time pingpong = chain_evaluate(p, {0, 1, 2, 3, 4, 5}).makespan;
  const BatchResult tuned = make_local_search_batch(6)->schedule(p, rng);
  EXPECT_LT(tuned.makespan, pingpong);
  // The sweep order (1,2,3 then 13,14,15) costs ~18; allow slack.
  EXPECT_LE(tuned.makespan, pingpong / 2);
}

TEST(LocalSearchBatch, RandomizedFlagSet) {
  EXPECT_TRUE(make_local_search_batch(2)->randomized());
  EXPECT_EQ(make_local_search_batch(2)->name(), "local-search");
  EXPECT_THROW((void)make_local_search_batch(0), CheckError);
}

TEST(HypercubeGray, ConsecutiveRanksOneHop) {
  const Network net = make_hypercube(4);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  for (NodeId u = 0; u < 16; ++u) p.txns.push_back({u, u, {0}});
  Rng rng(1);
  const BatchResult r = make_hypercube_gray_batch()->schedule(p, rng);
  // A Gray walk visits all 16 nodes with unit hops: one object can follow
  // it in 16 + small steps; far below the naive 16 * diameter.
  EXPECT_LE(r.makespan, 16 + 4);
}

// ---- Fuzzed problems: non-dense ids, shuffled access order, pinned
// availability in the future, latency factor 2 ----

Network fuzz_network(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return make_line(static_cast<NodeId>(rng.uniform_int(2, 14)));
    case 1:
      return make_clique(static_cast<NodeId>(rng.uniform_int(2, 10)));
    case 2:
      return make_star(static_cast<NodeId>(rng.uniform_int(2, 4)),
                       static_cast<NodeId>(rng.uniform_int(2, 4)));
    default: {
      const auto beta = rng.uniform_int(2, 3);
      return make_cluster(static_cast<NodeId>(rng.uniform_int(2, 3)),
                          static_cast<NodeId>(beta),
                          static_cast<Weight>(rng.uniform_int(beta, 6)));
    }
  }
}

BatchProblem fuzz_problem(const Network& net, Rng& rng,
                          std::int64_t max_txns = 12) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.latency_factor = rng.uniform_int(1, 2);
  p.now = rng.uniform_int(0, 50);
  const auto n_nodes = static_cast<std::int64_t>(net.num_nodes());
  const auto n_obj = rng.uniform_int(1, 8);
  for (ObjId o = 0; o < n_obj; ++o) {
    const bool from_txn = rng.uniform_int(0, 3) == 0;
    p.objects.push_back({o,
                         static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1)),
                         p.now + rng.uniform_int(0, 10), from_txn});
  }
  const auto n_txn = rng.uniform_int(1, max_txns);
  for (TxnId t = 1; t <= n_txn; ++t) {
    BatchTxn bt;
    bt.id = t * 7 + 1;  // non-dense ids
    bt.node = static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1));
    const auto k = rng.uniform_int(1, std::min<std::int64_t>(3, n_obj));
    std::set<ObjId> objs;
    while (static_cast<std::int64_t>(objs.size()) < k)
      objs.insert(static_cast<ObjId>(rng.uniform_int(0, n_obj - 1)));
    bt.objects.assign(objs.begin(), objs.end());
    for (std::size_t i = bt.objects.size(); i > 1; --i)
      std::swap(bt.objects[i - 1],
                bt.objects[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    p.txns.push_back(std::move(bt));
  }
  return p;
}

std::vector<std::size_t> shuffled_order(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  return order;
}

TEST(ChainEvaluate, MatchesMapReferenceOnFuzzedProblems) {
  // The slot-table cursor walk against a direct std::map transcription
  // of the object chains; chain_evaluate also validates its own output.
  Rng rng(0xC4A1);
  for (int it = 0; it < 150; ++it) {
    const Network net = fuzz_network(rng);
    const BatchProblem p = fuzz_problem(net, rng);
    const auto order = shuffled_order(p.txns.size(), rng);
    std::map<ObjId, BatchObject> at;
    for (const BatchObject& o : p.objects) at[o.id] = o;
    BatchResult ref;
    for (const std::size_t idx : order) {
      const BatchTxn& t = p.txns[idx];
      Time e = p.now;
      for (const ObjId o : t.objects) {
        const BatchObject& c = at.at(o);
        Time arrive = c.ready + p.travel(c.node, t.node);
        if (c.from_txn) arrive = std::max(arrive, c.ready + 1);
        e = std::max(e, arrive);
      }
      for (const ObjId o : t.objects) at[o] = {o, t.node, e, true};
      ref.assignments.push_back({t.id, e});
      ref.makespan = std::max(ref.makespan, e - p.now);
    }
    const BatchResult got = chain_evaluate(p, order);
    ASSERT_EQ(got.makespan, ref.makespan) << "iter " << it;
    ASSERT_EQ(got.assignments.size(), ref.assignments.size());
    for (std::size_t i = 0; i < got.assignments.size(); ++i) {
      EXPECT_EQ(got.assignments[i].txn, ref.assignments[i].txn);
      EXPECT_EQ(got.assignments[i].exec, ref.assignments[i].exec);
    }
  }
}

TEST(CheckBatchResult, MatchesMapOracleOnFuzzedResultsAndMutations) {
  // The flat check against the std::map oracle: valid chain results and
  // single mutations of them must be accepted or rejected by both alike.
  const auto accepts = [](auto check, const BatchProblem& p,
                          const BatchResult& r) {
    try {
      check(p, r);
      return true;
    } catch (const CheckError&) {
      return false;
    }
  };
  Rng rng(0xCBB);
  int accepted = 0;
  int rejected = 0;
  for (int it = 0; it < 200; ++it) {
    const Network net = fuzz_network(rng);
    const BatchProblem valid_p = fuzz_problem(net, rng);
    const BatchResult valid_r =
        chain_evaluate(valid_p, shuffled_order(valid_p.txns.size(), rng));
    const std::size_t n = valid_r.assignments.size();
    const auto pick = [&](std::size_t m) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    };
    for (int mutation = 0; mutation <= 9; ++mutation) {
      BatchProblem p = valid_p;
      BatchResult r = valid_r;
      const std::size_t i = pick(n);
      switch (mutation) {
        case 0:  // unchanged
          break;
        case 1:  // one exec a step earlier
          --r.assignments[i].exec;
          break;
        case 2:  // one exec a step later, makespan kept consistent
          ++r.assignments[i].exec;
          r.makespan = std::max(r.makespan, r.assignments[i].exec - p.now);
          break;
        case 3:  // a txn assigned twice
          r.assignments[i].txn = r.assignments[pick(n)].txn;
          break;
        case 4:  // a txn missing
          r.assignments.erase(r.assignments.begin() +
                              static_cast<std::ptrdiff_t>(i));
          break;
        case 5:  // an assignment for a txn not in the problem
          r.assignments[i].txn = 1000003;
          break;
        case 6:  // a txn using an object not in the problem
          p.txns[pick(p.txns.size())].objects.push_back(999);
          break;
        case 7:  // exec before now
          r.assignments[i].exec = p.now - 1;
          break;
        case 8:  // wrong makespan
          r.makespan += rng.uniform_int(0, 1) == 0 ? 1 : -1;
          break;
        default: {  // a re-listed object: the last listing wins
          BatchObject o = p.objects[pick(p.objects.size())];
          o.ready += rng.uniform_int(0, 3);
          o.from_txn = !o.from_txn;
          p.objects.push_back(o);
          break;
        }
      }
      const bool want = accepts(map_check_batch_result, p, r);
      const bool got = accepts(check_batch_result, p, r);
      EXPECT_EQ(got, want) << "iter " << it << " mutation " << mutation;
      (want ? accepted : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 200);
}

TEST(ChainEvaluate, SparseCollidingIdsMatchSortedOracleAndMapCheck) {
  // Object ids spread over [0, INT32_MAX], a third of them drawn so that
  // they share one home cell of any id table up to 4096 cells (so they
  // collide in every table the batch walks build here), with re-listed
  // objects (the last listing wins) and, sometimes, a txn using an object
  // the problem does not list. chain_evaluate must match the sorted-cursor
  // oracle — equal results, or both reject — and check_batch_result must
  // give the map oracle's verdict on each result and two mutations of it.
  const auto accepts = [](auto check, const BatchProblem& p,
                          const BatchResult& r) {
    try {
      check(p, r);
      return true;
    } catch (const CheckError&) {
      return false;
    }
  };
  Rng rng(0x5BA55E);
  IdIndex<ObjId> probe;
  probe.reset(2048);
  std::vector<ObjId> colliding;
  while (colliding.size() < 12) {
    const auto id = static_cast<ObjId>(rng.uniform_int(0, INT32_MAX));
    if (probe.home(id) == probe.home(INT32_MAX)) colliding.push_back(id);
  }
  colliding.push_back(INT32_MAX);
  int unknown = 0;
  int relisted = 0;
  int checks = 0;
  for (int it = 0; it < 300; ++it) {
    const Network net = fuzz_network(rng);
    BatchProblem p = fuzz_problem(net, rng);
    // Relabel the dense object ids 0..n-1 to distinct sparse ones.
    std::map<ObjId, ObjId> sparse;
    std::set<ObjId> used;
    for (const BatchObject& o : p.objects) {
      ObjId id = kNoObj;
      while (id == kNoObj || used.count(id)) {
        id = rng.uniform_int(0, 2) == 0
                 ? colliding[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(colliding.size()) - 1))]
                 : static_cast<ObjId>(rng.uniform_int(0, INT32_MAX));
      }
      used.insert(id);
      sparse[o.id] = id;
    }
    for (BatchObject& o : p.objects) o.id = sparse[o.id];
    for (BatchTxn& t : p.txns)
      for (ObjId& o : t.objects) o = sparse[o];
    std::sort(p.objects.begin(), p.objects.end(),
              [](const BatchObject& a, const BatchObject& b) {
                return a.id < b.id;
              });
    if (rng.uniform_int(0, 2) == 0) {  // re-list an object
      BatchObject o = p.objects[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(p.objects.size()) - 1))];
      o.ready += rng.uniform_int(0, 5);
      o.from_txn = !o.from_txn;
      p.objects.push_back(o);
      ++relisted;
    }
    if (rng.uniform_int(0, 5) == 0) {  // a txn uses an unlisted object
      ObjId id = colliding[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(colliding.size()) - 1))];
      if (used.count(id)) id = static_cast<ObjId>(rng.uniform_int(0, 7)) * 3;
      if (!used.count(id)) {
        p.txns[static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(p.txns.size()) - 1))]
            .objects.push_back(id);
        ++unknown;
      }
    }
    const auto order = shuffled_order(p.txns.size(), rng);
    bool want_ok = true;
    BatchResult want;
    try {
      want = sorted_chain_evaluate(p, order);
    } catch (const CheckError&) {
      want_ok = false;
    }
    bool got_ok = true;
    BatchResult got;
    try {
      got = chain_evaluate(p, order);
    } catch (const CheckError&) {
      got_ok = false;
    }
    ASSERT_EQ(got_ok, want_ok) << "iter " << it;
    if (!got_ok) continue;
    ASSERT_EQ(got.makespan, want.makespan) << "iter " << it;
    ASSERT_EQ(got.assignments.size(), want.assignments.size());
    for (std::size_t i = 0; i < got.assignments.size(); ++i) {
      EXPECT_EQ(got.assignments[i].txn, want.assignments[i].txn);
      EXPECT_EQ(got.assignments[i].exec, want.assignments[i].exec);
    }
    for (int mutation = 0; mutation < 3; ++mutation) {
      BatchResult r = got;
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(r.assignments.size()) - 1));
      if (mutation == 1) --r.assignments[i].exec;
      if (mutation == 2) r.assignments[i].txn = r.assignments[0].txn;
      EXPECT_EQ(accepts(check_batch_result, p, r),
                accepts(map_check_batch_result, p, r))
          << "iter " << it << " mutation " << mutation;
      ++checks;
    }
  }
  EXPECT_GT(unknown, 10);
  EXPECT_GT(relisted, 50);
  EXPECT_GT(checks, 500);
}

TEST(BatchAlgorithms, FeasibleAndDeterministicOnFuzzedProblems) {
  // Coloring, local search and exhaustive search on fuzzed problems: every
  // schedule validates (schedule() runs check_batch_result), a rerun with
  // the same seed is identical, and the exhaustive chain order is never
  // beaten by local search's chain order.
  Rng rng(0x3A7);
  const auto coloring = make_coloring_batch();
  const auto local = make_local_search_batch(3);
  const auto exhaustive = make_exhaustive_batch(6);
  for (int it = 0; it < 40; ++it) {
    const Network net = fuzz_network(rng);
    const BatchProblem p = fuzz_problem(net, rng, /*max_txns=*/6);
    const auto algo_seed =
        static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    const auto run = [&](const BatchScheduler& a) {
      Rng r(algo_seed);
      return a.schedule(p, r);
    };
    for (const BatchScheduler* a :
         {coloring.get(), local.get(), exhaustive.get()}) {
      const BatchResult first = run(*a);
      const BatchResult again = run(*a);
      ASSERT_EQ(first.assignments.size(), p.txns.size()) << a->name();
      ASSERT_EQ(again.makespan, first.makespan) << a->name() << " " << it;
      for (std::size_t i = 0; i < first.assignments.size(); ++i)
        EXPECT_EQ(again.assignments[i].exec, first.assignments[i].exec);
    }
    EXPECT_LE(run(*exhaustive).makespan, run(*local).makespan)
        << "iter " << it;
  }
}

// One shared read-only problem, many concurrent evaluators — the shape of
// BucketInsertionCore's parallel activation retries and wave probes.
// Named "...Parallel" so the TSan CI job races it for real.
TEST(BatchParallel, ConcurrentChainEvaluateIsRaceFree) {
  Rng rng(0xACE);
  const Network net = make_cluster(2, 3, 4);
  const BatchProblem p = fuzz_problem(net, rng, /*max_txns=*/10);
  std::vector<std::size_t> base(p.txns.size());
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = i;
  const BatchResult ref = chain_evaluate(p, base);
  const auto coloring = make_coloring_batch();
  Rng seq(1);
  const BatchResult colored = coloring->schedule(p, seq);
  const auto results = parallel_map<BatchResult>(
      16,
      [&](std::int64_t r) {
        std::vector<std::size_t> order = base;
        std::rotate(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(
                                        static_cast<std::size_t>(r) %
                                        std::max<std::size_t>(1, order.size())),
                    order.end());
        (void)chain_evaluate(p, order);
        Rng local(1);
        EXPECT_EQ(coloring->schedule(p, local).makespan, colored.makespan);
        return chain_evaluate(p, base);
      },
      4);
  for (const auto& r : results) EXPECT_EQ(r.makespan, ref.makespan);
}

}  // namespace
}  // namespace dtm
