// Tests for batch/suffix_wrapper: the §IV-A suffix property.
#include <gtest/gtest.h>

#include "batch/suffix_wrapper.hpp"
#include "net/topology.hpp"
#include "ref/batch_rebuild.hpp"

namespace dtm {
namespace {

BatchProblem random_problem(const Network& net, Rng& rng, int txns,
                            int objects) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 0;
  for (ObjId o = 0; o < objects; ++o)
    p.objects.push_back(
        {o, static_cast<NodeId>(rng.uniform_int(0, net.num_nodes() - 1)), 0,
         false});
  for (TxnId i = 0; i < txns; ++i) {
    const auto objs = rng.sample_distinct(objects, 2);
    p.txns.push_back(
        {i, static_cast<NodeId>(rng.uniform_int(0, net.num_nodes() - 1)),
         {objs[0], objs[1]}});
  }
  return p;
}

TEST(SuffixWrapper, RequiresInner) {
  EXPECT_THROW((void)SuffixWrapper(nullptr), CheckError);
}

TEST(SuffixWrapper, NameAndRandomizedForwarding) {
  const SuffixWrapper w(make_coloring_batch());
  EXPECT_EQ(w.name(), "coloring+suffix");
  EXPECT_FALSE(w.randomized());
  const SuffixWrapper wr(make_cluster_batch(3));
  EXPECT_TRUE(wr.randomized());
}

TEST(SuffixWrapper, NeverWorseThanInner) {
  const Network net = make_line(16);
  const auto inner = std::shared_ptr<const BatchScheduler>(make_tsp_batch());
  const SuffixWrapper wrapped(inner);
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const BatchProblem p = random_problem(net, rng, 10, 5);
    Rng r1(7), r2(7);
    const BatchResult base = inner->schedule(p, r1);
    const BatchResult tight = wrapped.schedule(p, r2);
    EXPECT_LE(tight.makespan, base.makespan);
  }
}

TEST(SuffixWrapper, AvailabilityAfterPrefix) {
  const Network net = make_line(12);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 0;
  p.objects = {{0, 0, 0, false}, {1, 11, 0, false}};
  p.txns = {{1, 3, {0}}, {2, 8, {0, 1}}};
  BatchResult r;
  r.assignments = {{1, 3}, {2, 8}};
  r.makespan = 8;
  // Prefix of length 1 = txn 1 only: object 0 moved to node 3 at time 3,
  // object 1 untouched.
  const auto avail = rebuild_availability_after_prefix(p, r, 1);
  ASSERT_EQ(avail.size(), 2u);
  const auto find = [&](ObjId id) {
    for (const auto& o : avail)
      if (o.id == id) return o;
    ADD_FAILURE() << "object " << id << " missing";
    return BatchObject{};
  };
  const auto o0 = find(0);
  EXPECT_EQ(o0.node, 3);
  EXPECT_EQ(o0.ready, 3);
  EXPECT_TRUE(o0.from_txn);
  const auto o1 = find(1);
  EXPECT_EQ(o1.node, 11);
  EXPECT_EQ(o1.ready, 0);
  EXPECT_FALSE(o1.from_txn);
}

TEST(SuffixWrapper, EstablishesSuffixProperty) {
  // After wrapping, every suffix of the schedule must execute within the
  // inner algorithm's own time for that suffix (paper's definition).
  const Network net = make_line(16);
  const auto inner =
      std::shared_ptr<const BatchScheduler>(make_sequential_batch());
  const SuffixWrapper wrapped(inner);
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const BatchProblem p = random_problem(net, rng, 8, 4);
    Rng r1(5);
    const BatchResult tight = wrapped.schedule(p, r1);
    // Order by exec; for each suffix compare span to a fresh inner run.
    std::vector<std::pair<Time, std::size_t>> order;
    for (std::size_t i = 0; i < p.txns.size(); ++i)
      order.emplace_back(exec_of(tight, p.txns[i].id), i);
    std::sort(order.begin(), order.end());
    for (std::size_t start = 1; start < p.txns.size(); ++start) {
      BatchProblem sub;
      sub.oracle = p.oracle;
      sub.now = p.now;
      sub.objects = rebuild_availability_after_prefix(p, tight, start);
      Time span = 0;
      for (std::size_t i = start; i < order.size(); ++i) {
        sub.txns.push_back(p.txns[order[i].second]);
        span = std::max(span, order[i].first - p.now);
      }
      Rng r2(5);
      const BatchResult redo = inner->schedule(sub, r2);
      EXPECT_LE(span, redo.makespan)
          << "suffix of length " << p.txns.size() - start
          << " violates the suffix property";
    }
  }
}

// Fuzzed problems: non-dense shuffled ids, availability pinned in the
// future, latency factor 1-2, up to 14 txns over up to 6 objects.
BatchProblem fuzz_problem(const Network& net, Rng& rng) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.latency_factor = rng.uniform_int(1, 2);
  p.now = rng.uniform_int(0, 30);
  const auto n_nodes = static_cast<std::int64_t>(net.num_nodes());
  const auto n_obj = rng.uniform_int(1, 6);
  for (ObjId o = 0; o < n_obj; ++o)
    p.objects.push_back({o * 3 + 2,
                         static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1)),
                         p.now + rng.uniform_int(0, 8),
                         rng.uniform_int(0, 2) == 0});
  const auto n_txn = rng.uniform_int(2, 14);
  for (TxnId t = 0; t < n_txn; ++t) {
    const auto k = rng.uniform_int(1, std::min<std::int64_t>(3, n_obj));
    BatchTxn bt{t * 5 + 3,
                static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1)),
                {}};
    for (const auto o : rng.sample_distinct(static_cast<std::int32_t>(n_obj),
                                            static_cast<std::int32_t>(k)))
      bt.objects.push_back(static_cast<ObjId>(o) * 3 + 2);
    p.txns.push_back(std::move(bt));
  }
  // Ids out of index order, so an index tie-break cannot pass for an id one.
  for (std::size_t i = p.txns.size(); i > 1; --i)
    std::swap(p.txns[i - 1],
              p.txns[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  return p;
}

TEST(SuffixWrapper, OneSweepMatchesRebuildOracleOnFuzzedProblems) {
  // The one-sweep wrapper against the per-start rebuild, for four inner
  // schedulers (the cluster one randomized): same result, and the same
  // number of draws from the shared Rng (the same inner calls).
  const Network line = make_line(14);
  const Network cluster = make_cluster(3, 3, 5);
  const std::vector<std::shared_ptr<const BatchScheduler>> inners{
      make_line_batch(), make_tsp_batch(), make_sequential_batch(),
      make_cluster_batch(3)};
  Rng rng(0x5AFF);
  int tightened = 0;
  for (int it = 0; it < 60; ++it) {
    const Network& net = it % 2 == 0 ? line : cluster;
    const BatchProblem p = fuzz_problem(net, rng);
    const SuffixWrapperOptions opts{
        static_cast<std::int32_t>(it % 3 == 0 ? rng.uniform_int(1, 6) : 0)};
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    for (const auto& inner : inners) {
      Rng r_sweep(seed), r_rebuild(seed), r_inner(seed);
      const BatchResult got = SuffixWrapper(inner, opts).schedule(p, r_sweep);
      const BatchResult want =
          RebuildSuffixWrapper(inner, opts).schedule(p, r_rebuild);
      ASSERT_EQ(got.makespan, want.makespan) << inner->name() << " " << it;
      ASSERT_EQ(got.assignments.size(), want.assignments.size());
      for (std::size_t i = 0; i < got.assignments.size(); ++i) {
        EXPECT_EQ(got.assignments[i].txn, want.assignments[i].txn);
        EXPECT_EQ(got.assignments[i].exec, want.assignments[i].exec)
            << inner->name() << " " << it << " txn " << got.assignments[i].txn;
      }
      EXPECT_EQ(r_sweep.uniform_int(0, 1 << 30),
                r_rebuild.uniform_int(0, 1 << 30))
          << inner->name();
      if (got.makespan < inner->schedule(p, r_inner).makespan) ++tightened;
    }
  }
  EXPECT_GT(tightened, 0) << "no fuzzed problem exercised an adoption";
}

TEST(SuffixWrapper, SingleTxnPassThrough) {
  const Network net = make_line(8);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  p.txns = {{1, 5, {0}}};
  Rng rng(1);
  const SuffixWrapper w(make_coloring_batch());
  EXPECT_EQ(exec_of(w.schedule(p, rng), 1), 5);
}

}  // namespace
}  // namespace dtm
