// Golden pins for the windowed competitive-ratio accounting: the streaming
// tracker (StreamingRatioTracker via StreamRunner) and the closed runner's
// per-window ratio (RunOptions::ratio_window). Every value was captured
// with the map + all-pairs lower bound (kept as tests/ref/lower_bound) and
// is compared with exact equality, so a faster lower bound or a different
// window buffer must reproduce each ratio bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "stream/stream_runner.hpp"
#include "stream/stream_stats.hpp"
#include "test_helpers.hpp"

namespace dtm {
namespace {

struct StreamPin {
  std::int64_t windows;
  double ratio_max;
  double ratio_mean;
  std::int64_t peak_window_txns;
  std::int64_t peak_open_windows;
  std::uint64_t commit_hash;
};

StreamReport run_stream(const std::string& topo, const std::string& stream) {
  RunSpec spec;
  spec.topology = parse_spec(topo);
  spec.scheduler = parse_spec("greedy");
  spec.stream = parse_spec(stream);
  spec.seed = 91;
  const Network net = Registry::make_network(spec.topology);
  return make_stream_runner(net, spec)->run();
}

void expect_pin(const StreamReport& r, const StreamPin& pin) {
  EXPECT_EQ(r.ratio_windows, pin.windows);
  EXPECT_EQ(r.windowed_ratio_max, pin.ratio_max);
  EXPECT_EQ(r.windowed_ratio_mean, pin.ratio_mean);
  EXPECT_EQ(r.peak_window_txns, pin.peak_window_txns);
  EXPECT_EQ(r.peak_open_windows, pin.peak_open_windows);
  EXPECT_EQ(r.commit_hash, pin.commit_hash);
}

TEST(RatioGolden, StreamCliqueHotObject) {
  // zipf 1.2 over 64 objects: the hottest object has > 512 users in each
  // 1024-step window, so the spread certificate samples with stride > 1.
  const StreamReport r = run_stream(
      "clique:n=32", "stream:rate=1.5,objects=64,k=2,zipf=1.2,target=8000,"
                     "window=1024,drain-every=64");
  expect_pin(r, {6, 0.022222222222222223, 0.0091802546137207779, 1536, 2,
                 4271169425354904093ULL});
}

TEST(RatioGolden, StreamLine) {
  const StreamReport r = run_stream(
      "line:n=48", "stream:rate=0.5,objects=48,k=2,zipf=0.8,target=3000,"
                   "window=256,drain-every=32");
  expect_pin(r, {24, 4.8913043478260869, 3.4520068282267626, 128, 2,
                 2654843439523832566ULL});
}

TEST(RatioGolden, StreamRandomLandmarkSampledWindows) {
  const StreamReport r = run_stream(
      "random:n=200,extra=400,maxw=3,routing=landmark",
      "stream:rate=1,objects=128,k=2,zipf=0.6,target=3000,window=128,"
      "drain-every=32,ratio-every=2");
  expect_pin(r, {12, 6.9230769230769234, 3.4354666650429029, 128, 2,
                 17555826687485725775ULL});
}

TEST(RatioGolden, ClosedRunWindowedRatio) {
  const Network net = make_grid({6, 6});
  SyntheticOptions w;
  w.num_objects = 24;
  w.k = 3;
  w.zipf_s = 0.7;
  w.rounds = 8;
  w.gap = 3;
  w.seed = 17;
  SyntheticWorkload wl(net, w);
  GreedyScheduler sched;
  RunOptions opts;
  opts.ratio_window = 16;
  const RunResult r = run_experiment(net, wl, sched, opts);
  EXPECT_EQ(r.windowed_ratio, 5.375);
  EXPECT_EQ(r.num_windows, 17);
  EXPECT_EQ(r.lb.load, 134);
  EXPECT_EQ(r.lb.reach, 9);
  EXPECT_EQ(r.lb.spread, 10);
  EXPECT_EQ(r.lb.lmax, 135);
}

TEST(RatioGolden, ZeroAccessArrivalsStillRateTheirWindow) {
  // A window whose arrivals request no object has no uses at all, yet it
  // is rated: its lower bound is the floor of 1, so its ratio is its worst
  // latency.
  const Network net = make_line(8);
  const std::vector<ObjectOrigin> origins{
      testing::origin(0, 0), testing::origin(1, 7), testing::origin(2, 4)};
  SyncEngine engine(net.oracle, origins);
  StreamingRatioTracker tracker(*net.oracle, 1, /*window=*/4);
  tracker.maybe_open(engine, 0);
  tracker.on_arrival(testing::txn(0, 3, 0, {}), 0);
  tracker.on_arrival(testing::txn(1, 5, 0, {}), 1);
  tracker.on_commit(0, 0, 3);
  tracker.on_commit(1, 1, 2);
  tracker.maybe_open(engine, 4);  // closes window 0: all committed
  tracker.on_arrival(testing::txn(2, 6, 0, {0, 1, 2}), 5);
  tracker.on_arrival(testing::txn(3, 2, 0, {}), 6);
  tracker.on_commit(2, 5, 14);
  tracker.on_commit(3, 6, 7);
  tracker.finish();
  EXPECT_EQ(tracker.windows_finalized(), 2);
  EXPECT_EQ(tracker.ratio_stats().count(), 2);
  EXPECT_EQ(tracker.ratio_max(), 3.0);    // window 0: latency 3 over LB 1
  EXPECT_EQ(tracker.ratio_stats().mean(), 2.25);
  EXPECT_EQ(tracker.peak_window_txns(), 2);  // arrivals, not uses
  EXPECT_EQ(tracker.peak_open_windows(), 1);
}

}  // namespace
}  // namespace dtm
