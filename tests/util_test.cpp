// Tests for util/: checked asserts, RNG, statistics, tables, JSON, the
// id -> slot table.
#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/id_index.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dtm {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    DTM_CHECK(1 == 2, "context " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { DTM_CHECK(2 + 2 == 4); }

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, Uniform01Range) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, GeometricGapAtLeastOne) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) EXPECT_GE(rng.geometric_gap(0.3), 1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.geometric_gap(1.0), 1);
}

TEST(Rng, SampleDistinctProperties) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s = rng.sample_distinct(20, 7);
    EXPECT_EQ(s.size(), 7u);
    std::set<std::int32_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (const auto v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, SampleDistinctFullRange) {
  Rng rng(22);
  const auto s = rng.sample_distinct(5, 5);
  std::set<std::int32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::multiset<int> a(v.begin(), v.end()), b(w.begin(), w.end());
  EXPECT_EQ(a, b);
}

TEST(Zipf, UniformWhenSZero) {
  ZipfSampler z(4, 0.0);
  Rng rng(77);
  std::vector<int> count(4, 0);
  for (int i = 0; i < 8000; ++i) ++count[z.draw(rng)];
  for (const int c : count) EXPECT_NEAR(c, 2000, 250);
}

TEST(Zipf, SkewFavorsLowRanks) {
  ZipfSampler z(100, 1.2);
  Rng rng(78);
  std::vector<int> count(100, 0);
  for (int i = 0; i < 20000; ++i) ++count[z.draw(rng)];
  EXPECT_GT(count[0], count[10]);
  EXPECT_GT(count[0], 20000 / 100 * 5);  // far above uniform share
}

TEST(Zipf, DrawInRange) {
  ZipfSampler z(7, 2.0);
  Rng rng(79);
  for (int i = 0; i < 1000; ++i) {
    const auto r = z.draw(rng);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 7);
  }
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Percentile, EndpointsAndMedian) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "n", "ratio"});
  t.row().add("clique").add(16).add(1.5);
  t.row().add("line").add(128).add(2.25);
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("clique"), std::string::npos);
  EXPECT_NE(s.find("2.250"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("name,n,ratio"), std::string::npos);
  EXPECT_NE(csv.str().find("line,128,2.250"), std::string::npos);
}

TEST(Table, RaggedRowRejected) {
  Table t({"a", "b"});
  t.row().add(1);
  EXPECT_THROW((void)t.row(), CheckError);
}

TEST(Table, AddBeforeRowRejected) {
  Table t({"a"});
  EXPECT_THROW((void)t.add(1), CheckError);
}

TEST(Json, DeepNestingIsACleanError) {
  // A spec file of 200 000 '[' used to overflow the parser's stack.
  for (const std::string open : {"[", "{\"a\":"}) {
    std::string doc;
    for (int i = 0; i < 200000; ++i) doc += open;
    try {
      (void)Json::parse(doc);
      ADD_FAILURE() << "deep nesting was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, NestingUpToTheCapParses) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const Json j = Json::parse(nested(Json::kMaxDepth));
  EXPECT_TRUE(j.is_array());
  EXPECT_THROW((void)Json::parse(nested(Json::kMaxDepth + 1)), CheckError);
}

TEST(IdIndex, FindsInsertedIdsAndMissesOthers) {
  IdIndex<std::int32_t> idx;
  EXPECT_EQ(idx.find(0), -1);  // usable before the first reset
  idx.reset(4);
  const std::int32_t ids[] = {0, 7, 1 << 30, INT32_MAX};
  for (std::int32_t i = 0; i < 4; ++i) idx.slot(ids[i]) = i;
  for (std::int32_t i = 0; i < 4; ++i) EXPECT_EQ(idx.find(ids[i]), i);
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.find(1), -1);
  EXPECT_EQ(idx.find(-1), -1);
  idx.slot(7) = 9;  // writing an existing id overwrites its slot
  EXPECT_EQ(idx.find(7), 9);
  EXPECT_EQ(idx.slot(8), -1);  // an absent id is inserted with slot -1
  EXPECT_EQ(idx.size(), 5u);
}

TEST(IdIndex, ResetForgetsEverythingWithoutShrinking) {
  IdIndex<std::int64_t> idx;
  idx.reset(100);
  const std::size_t cap = idx.capacity();
  EXPECT_GE(cap, 200u);
  for (std::int64_t id = 0; id < 100; ++id)
    idx.slot(id * 1000003) = static_cast<std::int32_t>(id);
  for (int round = 0; round < 3; ++round) {
    idx.reset(10);
    EXPECT_EQ(idx.capacity(), cap);
    EXPECT_EQ(idx.size(), 0u);
    for (std::int64_t id = 0; id < 100; ++id)
      EXPECT_EQ(idx.find(id * 1000003), -1);
    idx.slot(3) = round;
    EXPECT_EQ(idx.find(3), round);
  }
}

TEST(IdIndex, CollidingIdsMatchAMap) {
  // Ids sharing one home cell probe past each other, among hundreds of
  // random ones; a std::map is the reference. Inserting more ids than
  // reset() made room for is a clean error, not a full table.
  IdIndex<std::int32_t> idx;
  idx.reset(600);
  const std::size_t home = idx.home(0);
  std::vector<std::int32_t> colliding;
  Rng rng(0x1D1D);
  while (colliding.size() < 6) {
    const auto id = static_cast<std::int32_t>(rng.uniform_int(0, INT32_MAX));
    if (idx.home(id) == home) colliding.push_back(id);
  }
  std::map<std::int32_t, std::int32_t> ref;
  std::int32_t next = 0;
  for (const std::int32_t id : colliding) ref[id] = idx.slot(id) = next++;
  for (int i = 0; i < 500; ++i) {
    const auto id = static_cast<std::int32_t>(rng.uniform_int(0, INT32_MAX));
    idx.slot(id) = next;
    ref[id] = next++;
  }
  EXPECT_EQ(idx.size(), ref.size());
  for (const auto& [id, slot] : ref) EXPECT_EQ(idx.find(id), slot);
  for (int i = 0; i < 500; ++i) {
    const auto id = static_cast<std::int32_t>(rng.uniform_int(0, INT32_MAX));
    EXPECT_EQ(idx.find(id), ref.count(id) ? ref[id] : -1);
  }

  idx.reset(8);
  while (idx.size() < idx.capacity() / 2) (void)idx.slot(-next++);
  EXPECT_THROW((void)idx.slot(1), CheckError);
  EXPECT_EQ(idx.find(1), -1);
}

}  // namespace
}  // namespace dtm
