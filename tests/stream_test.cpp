// Streaming subsystem tests: arrival-profile shapes (including the
// (rho, b)-adversary's admissibility property), source determinism, the
// memory-bounded run loop's zero-loss and drain invariants, commit-hash
// identity with the scan oracle (tests/ref/) over the ring calendar, the
// batch runner's drain_every path, and the "stream:" spec round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "net/topology.hpp"
#include "ref/lockstep.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "stream/stream_runner.hpp"
#include "stream/stream_source.hpp"
#include "util/check.hpp"

namespace dtm {
namespace {

StreamConfig base_config() {
  StreamConfig c;
  c.rate = 2.0;
  c.objects = 64;
  c.k = 2;
  c.target = 200;
  return c;
}

/// Drains the source through `horizon`, returning all offers in order.
std::vector<Transaction> collect(StreamSource& src, Time horizon) {
  std::vector<Transaction> out;
  while (src.next_offer_time() <= horizon) {
    const Time t = src.next_offer_time();
    auto offers = src.offers_at(t);
    out.insert(out.end(), offers.begin(), offers.end());
  }
  return out;
}

TEST(StreamSource, DeterministicAcrossConstructions) {
  const Network net = make_clique(8);
  StreamConfig c = base_config();
  c.profile = "mmpp";
  StreamSource a(net, c);
  StreamSource b(net, c);
  const auto xs = collect(a, 512);
  const auto ys = collect(b, 512);
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].gen_time, ys[i].gen_time);
    EXPECT_EQ(xs[i].node, ys[i].node);
    ASSERT_EQ(xs[i].accesses.size(), ys[i].accesses.size());
    for (std::size_t j = 0; j < xs[i].accesses.size(); ++j)
      EXPECT_EQ(xs[i].accesses[j].obj, ys[i].accesses[j].obj);
  }
}

TEST(StreamSource, SteadyRateHitsTheMean) {
  const Network net = make_clique(8);
  StreamConfig c = base_config();
  c.rate = 3.0;
  StreamSource src(net, c);
  const auto offers = collect(src, 999);
  // The fractional accumulator releases exactly floor-paced batches: 1000
  // steps at rate 3 is 3000 transactions, give or take the final carry.
  EXPECT_NEAR(static_cast<double>(offers.size()), 3000.0, 4.0);
}

TEST(StreamSource, DiurnalHighAndLowPhasesDiffer) {
  const Network net = make_clique(8);
  StreamConfig c = base_config();
  c.profile = "diurnal";
  c.rate = 4.0;
  c.period = 256;
  c.duty = 0.5;
  c.low_mult = 0.25;
  StreamSource src(net, c);
  const auto offers = collect(src, 4 * 256 - 1);
  std::int64_t high = 0, low = 0;
  for (const auto& t : offers) {
    const Time phase = t.gen_time % 256;
    (phase < 128 ? high : low) += 1;
  }
  // 4 periods: high phases carry rate 4, low phases rate 1.
  EXPECT_NEAR(static_cast<double>(high), 4.0 * 128 * 4, 16.0);
  EXPECT_NEAR(static_cast<double>(low), 1.0 * 128 * 4, 16.0);
}

TEST(StreamSource, AdversaryRespectsRhoBAdmissibility) {
  const Network net = make_clique(8);
  StreamConfig c = base_config();
  c.profile = "adversary";
  c.rate = 1.5;   // rho
  c.burst = 24.0; // b
  StreamSource src(net, c);
  const Time horizon = 4096;
  std::vector<std::int64_t> per_step(static_cast<std::size_t>(horizon), 0);
  for (const auto& t : collect(src, horizon - 1))
    ++per_step[static_cast<std::size_t>(t.gen_time)];
  // The defining constraint: every T-step window receives <= rho*T + b.
  // Prefix sums make the sliding check O(1) per window.
  std::vector<std::int64_t> prefix(per_step.size() + 1, 0);
  for (std::size_t i = 0; i < per_step.size(); ++i)
    prefix[i + 1] = prefix[i] + per_step[i];
  std::int64_t peak_burst = 0;
  for (const std::int64_t w : {1, 16, 64, 256, 1024}) {
    for (std::size_t s = 0; s + static_cast<std::size_t>(w) < prefix.size();
         ++s) {
      const std::int64_t got = prefix[s + static_cast<std::size_t>(w)] -
                               prefix[s];
      EXPECT_LE(static_cast<double>(got),
                c.rate * static_cast<double>(w) + c.burst);
      if (w == 1) peak_burst = std::max(peak_burst, got);
    }
  }
  // ...and the schedule is genuinely bursty, not trickle-paced: single
  // steps carry (nearly) the full burst budget.
  EXPECT_GE(peak_burst, static_cast<std::int64_t>(c.burst) - 1);
}

TEST(StreamSource, RotationMovesTheHotSet) {
  const Network net = make_clique(8);
  StreamConfig c = base_config();
  c.zipf = 1.2;
  c.objects = 128;
  c.rotate_every = 512;
  StreamSource src(net, c);
  std::set<ObjId> first_epoch, second_epoch;
  for (const auto& t : collect(src, 1023)) {
    auto& bucket = t.gen_time < 512 ? first_epoch : second_epoch;
    for (const auto& a : t.accesses) bucket.insert(a.obj);
  }
  // A pure shift of the draw cannot keep the hot sets identical.
  EXPECT_NE(first_epoch, second_epoch);
}

TEST(StreamSource, ValidatesItsConfig) {
  const Network net = make_clique(4);
  StreamConfig c = base_config();
  c.rate = 0.0;
  EXPECT_THROW((void)StreamSource(net, c), CheckError);
  c = base_config();
  c.target = 0;
  c.duration = 0;
  EXPECT_THROW((void)StreamSource(net, c), CheckError);
  c = base_config();
  c.k = 100;
  c.objects = 4;
  EXPECT_THROW((void)StreamSource(net, c), CheckError);
}

// ---------------------------------------------------------------------------
// StreamRunner

RunSpec stream_spec(const std::string& topo, const std::string& stream) {
  RunSpec spec;
  spec.topology = parse_spec(topo);
  spec.scheduler = parse_spec("greedy");
  spec.stream = parse_spec(stream);
  spec.seed = 77;
  return spec;
}

/// Replays a stream source the way StreamRunner admits it with no
/// watermark and no duration: offers in order, fresh ids from 0, stamped
/// with the current step, until `target` are accepted.
class StreamReplay final : public Workload {
 public:
  StreamReplay(std::unique_ptr<StreamSource> source, std::int64_t target)
      : source_(std::move(source)), target_(target) {}

  std::vector<ObjectOrigin> objects() override { return source_->objects(); }
  std::vector<Transaction> arrivals_at(Time now) override {
    std::vector<Transaction> out;
    if (finished()) return out;
    for (Transaction t : source_->offers_at(now)) {
      if (finished()) break;
      t.id = static_cast<TxnId>(generated_.size());
      t.gen_time = now;
      generated_.push_back(t);
      out.push_back(std::move(t));
    }
    return out;
  }
  Time next_arrival_time() const override {
    return finished() ? kNoTime : source_->next_offer_time();
  }
  bool finished() const override {
    return static_cast<std::int64_t>(generated_.size()) >= target_;
  }
  const std::vector<Transaction>& generated() const override {
    return generated_;
  }

 private:
  std::unique_ptr<StreamSource> source_;
  std::int64_t target_;
  std::vector<Transaction> generated_;
};

TEST(StreamRunner, RunsToTargetWithDrainAccounting) {
  const RunSpec spec = stream_spec(
      "clique:n=8", "stream:rate=2,objects=64,target=2000,window=128,"
                    "drain-every=32");
  const Network net = Registry::make_network(spec.topology);
  const StreamReport r = make_stream_runner(net, spec)->run();
  EXPECT_EQ(r.commits, 2000);
  EXPECT_EQ(r.accepted, r.commits);
  EXPECT_EQ(r.drained + r.residual, r.commits);
  EXPECT_GT(r.drained, 0);
  // The drain cadence bounds the retained log far below the run length.
  EXPECT_LT(r.peak_committed_log, r.commits);
  EXPECT_GT(r.ratio_windows, 0);
  EXPECT_GT(r.windowed_ratio_max, 0.0);
  EXPECT_EQ(r.latency.count(), r.commits);
}

TEST(StreamRunner, CommitHashIdenticalAcrossEngineModes) {
  const std::string stream =
      "stream:profile=mmpp,rate=2,objects=64,target=1500,window=128,"
      "drain-every=32";
  const RunSpec spec = stream_spec("line:n=6", stream);
  const Network net = Registry::make_network(spec.topology);
  const StreamReport cal = make_stream_runner(net, spec)->run();

  // The engine modes compared are the stream runner's engine and the same
  // arrivals stepped in lockstep with the scan oracle. Byte-identity is the
  // determinism contract; the runner's FNV commit-stream hash carries it
  // without retaining a single committed entry.
  const StreamConfig cfg = Registry::make_stream_config(spec.stream, spec.seed);
  StreamReplay replay(make_stream_source(net, cfg), cfg.target);
  GreedyScheduler greedy;
  const RunResult scan = run_lockstep(net, replay, greedy);
  std::uint64_t hash = 1469598103934665603ULL;
  for (const auto& c : scan.committed)
    for (const std::int64_t v :
         {std::int64_t{c.txn.id}, std::int64_t{c.txn.node},
          std::int64_t{c.txn.gen_time}, std::int64_t{c.exec}}) {
      hash ^= static_cast<std::uint64_t>(v);
      hash *= 1099511628211ULL;
    }
  EXPECT_EQ(cal.commit_hash, hash);
  EXPECT_EQ(cal.commits, scan.num_txns);
  EXPECT_EQ(cal.active_steps, scan.active_steps);
  EXPECT_EQ(cal.end_time, scan.makespan + 1);  // ends after the last commit
}

TEST(StreamRunner, MaxLiveWatermarkShedsUnderAdversary) {
  const RunSpec spec = stream_spec(
      "line:n=4", "stream:profile=adversary,rate=2,burst=64,objects=32,"
                  "target=1000,window=128,drain-every=32,max-live=16");
  const Network net = Registry::make_network(spec.topology);
  const StreamReport r = make_stream_runner(net, spec)->run();
  // The burst slams into the watermark: offers above it are shed, yet
  // nothing accepted is ever lost.
  EXPECT_GT(r.shed, 0);
  EXPECT_EQ(r.commits, 1000);
  EXPECT_EQ(r.accepted, r.commits);
  EXPECT_EQ(r.offered, r.accepted + r.shed);
  EXPECT_LE(r.peak_live, 16);
}

TEST(StreamRunner, DurationModeStopsOfferingAtTheHorizon) {
  const RunSpec spec = stream_spec(
      "clique:n=6", "stream:rate=2,objects=32,target=0,duration=256,"
                    "window=64,drain-every=16");
  const Network net = Registry::make_network(spec.topology);
  const StreamReport r = make_stream_runner(net, spec)->run();
  EXPECT_GT(r.commits, 0);
  EXPECT_EQ(r.accepted, r.commits);
  // ~2 offers per step over 256 steps, then quiescence.
  EXPECT_NEAR(static_cast<double>(r.commits), 512.0, 8.0);
}

TEST(StreamRunner, WindowResidencyStaysBoundedOnLongRuns) {
  const RunSpec spec = stream_spec(
      "clique:n=8", "stream:rate=4,objects=64,target=4000,window=64,"
                    "drain-every=16");
  const Network net = Registry::make_network(spec.topology);
  const StreamReport r = make_stream_runner(net, spec)->run();
  // Windows retire as their arrivals commit: residency must track latency,
  // not run length (~15 windows finalized here).
  EXPECT_GT(r.ratio_windows, 10);
  EXPECT_LE(r.peak_open_windows, 6);
  EXPECT_LT(r.peak_window_txns, r.commits / 2);
}

// ---------------------------------------------------------------------------
// Batch runner drain_every

TEST(RunnerDrain, DrainedRunMatchesRetainedRunHeadlines) {
  const Network net = make_clique(8);
  SyntheticOptions w;
  w.num_objects = 32;
  w.k = 2;
  w.rounds = 6;
  w.gap = 2;
  w.seed = 5;

  SyntheticWorkload retained_wl(net, w);
  GreedyScheduler retained_sched;
  const RunResult retained =
      run_experiment(net, retained_wl, retained_sched, {});

  SyntheticWorkload drained_wl(net, w);
  GreedyScheduler drained_sched;
  RunOptions opts;
  opts.validate = false;
  opts.collect_schedule = false;
  opts.drain_every = 4;
  const RunResult drained = run_experiment(net, drained_wl, drained_sched,
                                           opts);

  EXPECT_EQ(drained.num_txns, retained.num_txns);
  EXPECT_EQ(drained.makespan, retained.makespan);
  EXPECT_EQ(drained.active_steps, retained.active_steps);
  EXPECT_DOUBLE_EQ(drained.latency.mean(), retained.latency.mean());
  EXPECT_EQ(drained.drained, drained.num_txns);
  EXPECT_GT(drained.peak_committed_log, 0);
  EXPECT_LT(drained.peak_committed_log, drained.num_txns);
  EXPECT_TRUE(drained.committed.empty());
}

TEST(RunnerDrain, IncompatibleOptionsAreHardErrors) {
  const Network net = make_clique(4);
  SyntheticOptions w;
  w.num_objects = 8;
  w.rounds = 1;
  SyntheticWorkload wl(net, w);
  GreedyScheduler sched;
  RunOptions opts;
  opts.drain_every = 4;  // validate still defaults to true
  EXPECT_THROW((void)run_experiment(net, wl, sched, opts), CheckError);
  opts.validate = false;
  opts.collect_schedule = true;
  EXPECT_THROW((void)run_experiment(net, wl, sched, opts), CheckError);
  opts.collect_schedule = false;
  opts.ratio_window = 16;
  EXPECT_THROW((void)run_experiment(net, wl, sched, opts), CheckError);
}

// ---------------------------------------------------------------------------
// Spec round-trip

TEST(StreamSpec, RoundTripsThroughJson) {
  RunSpec spec;
  spec.stream = parse_spec(
      "stream:profile=adversary,rate=1.5,burst=48,target=5000,max-live=64");
  const RunSpec back = RunSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
  const StreamConfig c = Registry::make_stream_config(back.stream, 42);
  EXPECT_EQ(c.profile, "adversary");
  EXPECT_DOUBLE_EQ(c.rate, 1.5);
  EXPECT_DOUBLE_EQ(c.burst, 48.0);
  EXPECT_EQ(c.target, 5000);
  EXPECT_EQ(c.max_live, 64);
  EXPECT_EQ(c.seed, 42u);
}

TEST(StreamSpec, UnknownKnobsAndKindsAreHardErrors) {
  EXPECT_THROW(Registry::make_stream_config(parse_spec("stream:bogus=1")),
               CheckError);
  EXPECT_THROW(Registry::make_stream_config(parse_spec("serve:rate=1")),
               CheckError);
  EXPECT_THROW(
      Registry::make_stream_config(parse_spec("stream:profile=warp")),
      CheckError);
  EXPECT_THROW(Registry::make_stream_config(parse_spec("stream:rate=-1")),
               CheckError);
}

}  // namespace
}  // namespace dtm
