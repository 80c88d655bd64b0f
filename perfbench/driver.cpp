// perfbench_driver — runs ONE repeat of ONE named benchmark workload through
// the production driver that owns it (run_experiment, StreamRunner or
// DtmServer) and prints one JSON line describing the repeat.
//
//   perfbench_driver --workload NAME --seed N [--trace]
//
// Untraced repeats (the default) report the end-to-end numbers: set-up
// time, whole-run wall time, commits per host second of stepping, the peak
// RSS of this process (a fresh process per repeat, so no other workload's
// high-water mark can leak in), and the simulated commit latency.
//
// `--trace` wraps the public seams the drivers already accept in
// forwarding decorators — the OnlineScheduler (on_step), the Network's
// DistanceOracle (dist), the Workload / TxnSource (arrivals, offers) — and
// afterwards reads the layers' own public counters, to attribute host time
// and work to layers from outside. Decorators only forward, so a traced
// repeat reproduces the untraced commit hash (run.py checks that).
//
// Correctness gates run on every repeat; a failed gate sets "ok": false and
// the exit status to 1. run.py aggregates repeats into the benchmark's
// result line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bucket_scheduler.hpp"
#include "core/schedule.hpp"
#include "dist/bus.hpp"
#include "dist/dist_bucket.hpp"
#include "net/routing.hpp"
#include "serve/latency.hpp"
#include "serve/server.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "stream/stream_runner.hpp"
#include "stream/stream_source.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace {

using namespace dtm;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Driver { kBatch, kStream, kServe };

struct WorkloadDef {
  std::string name;
  Driver driver;
  std::string topology;
  std::string scheduler;
  std::string fault;
  /// synthetic:... (batch), stream:... or serve:... spec.
  std::string shape;
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"clique-greedy-stream", Driver::kStream, "clique:n=256", "greedy",
       "none",
       "stream:profile=steady,rate=6,objects=4096,k=2,zipf=0.9,window=1024,"
       "drain-every=256,target=400000"},
      {"line-bucket-batch", Driver::kBatch, "line:n=512", "bucket", "none",
       "synthetic:objects=256,k=3,rounds=10"},
      {"landmark-greedy-stream", Driver::kStream,
       "random:n=5000,extra=10000,maxw=3,routing=landmark", "greedy", "none",
       "stream:profile=steady,rate=1,objects=4096,k=2,zipf=0.5,target=5000"},
      {"cluster-dist-serve", Driver::kServe, "cluster:alpha=8,beta=8,gamma=8",
       "dist-bucket", "fault:drop=0.1,jitter=2,stall=0.1",
       "serve:rate=0.2,duration=150000,window=1024,max-inflight=96,k=2,"
       "zipf=0.8"},
  };
  return defs;
}

// ---------------------------------------------------------------------------
// Trace: state shared by the forwarding decorators.

struct Trace {
  bool enabled = false;  ///< false: only the stepping-end mark is kept
  std::int64_t clock_overhead_ns = 0;  ///< subtracted from oracle samples

  // scheduler seam
  bool in_sched = false;
  std::int64_t assignments = 0;
  std::int64_t on_step_ns = 0;
  std::int64_t peak_live = 0;
  std::int64_t peak_calendar = 0;
  LatencyRecorder on_step_hist;   ///< on_step duration, ns
  LatencyRecorder step_gap_hist;  ///< gap between on_step entries, ns
  Clock::time_point last_enter{};
  Clock::time_point last_exit{};
  bool entered = false;

  // oracle seam: every call is counted; the first kOracleCalibration calls
  // are all timed, after which every call stays timed only if calls cost
  // at least kOracleTimeAll clock reads on average (timing is then cheap
  // relative to them), else every kOracleSampleEvery-th call is. Each
  // sample is weighted by the stride it was taken at.
  static constexpr std::int64_t kOracleCalibration = 1024;
  static constexpr std::int64_t kOracleTimeAll = 20;
  static constexpr std::int64_t kOracleSampleEvery = 32;
  std::int64_t dist_calls = 0;
  std::int64_t dist_calls_in_sched = 0;
  std::int64_t dist_stride = 1;
  std::int64_t dist_timed_ns = 0;
  double dist_est_ns = 0.0;

  // arrivals / offers seam
  std::int64_t offered = 0;
  std::int64_t offers_ns = 0;
};

std::int64_t calibrate_clock_overhead() {
  std::vector<std::int64_t> d(2001);
  for (auto& x : d) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    x = ns_between(a, b);
  }
  std::nth_element(d.begin(), d.begin() + 1000, d.end());
  return d[1000];
}

class SchedulerProbe final : public OnlineScheduler {
 public:
  SchedulerProbe(std::unique_ptr<OnlineScheduler> inner, Trace& t)
      : inner_(std::move(inner)), t_(t) {}

  [[nodiscard]] std::vector<Assignment> on_step(
      const SystemView& view, std::span<const Transaction> arrivals) override {
    if (!t_.enabled) {
      auto out = inner_->on_step(view, arrivals);
      t_.last_exit = Clock::now();
      return out;
    }
    const auto enter = Clock::now();
    if (t_.entered) t_.step_gap_hist.record(ns_between(t_.last_enter, enter));
    t_.entered = true;
    t_.last_enter = enter;
    t_.peak_live = std::max<std::int64_t>(
        t_.peak_live, static_cast<std::int64_t>(view.live_txns().size()));
    t_.in_sched = true;
    auto out = inner_->on_step(view, arrivals);
    t_.in_sched = false;
    const auto exit = Clock::now();
    t_.last_exit = exit;
    const std::int64_t d = ns_between(enter, exit);
    t_.on_step_ns += d;
    t_.on_step_hist.record(d);
    t_.assignments += static_cast<std::int64_t>(out.size());
    if (const auto* eng = dynamic_cast<const SyncEngine*>(&view))
      t_.peak_calendar =
          std::max(t_.peak_calendar, eng->clock().calendar_peak());
    return out;
  }
  [[nodiscard]] Time next_event_hint(Time now) const override {
    return inner_->next_event_hint(now);
  }
  [[nodiscard]] std::vector<const EventSource*> event_sources()
      const override {
    return inner_->event_sources();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<OnlineScheduler> inner_;
  Trace& t_;
};

class OracleProbe final : public DistanceOracle {
 public:
  OracleProbe(std::shared_ptr<const DistanceOracle> inner, Trace& t)
      : inner_(std::move(inner)), t_(t) {}

  [[nodiscard]] Weight dist(NodeId u, NodeId v) const override {
    const std::int64_t n = ++t_.dist_calls;
    if (t_.in_sched) ++t_.dist_calls_in_sched;
    if (n % t_.dist_stride != 0) return inner_->dist(u, v);
    const auto a = Clock::now();
    const Weight d = inner_->dist(u, v);
    const std::int64_t ns = std::max<std::int64_t>(
        0, ns_between(a, Clock::now()) - t_.clock_overhead_ns);
    t_.dist_est_ns += static_cast<double>(ns * t_.dist_stride);
    if (n <= Trace::kOracleCalibration) {
      t_.dist_timed_ns += ns;
      if (n == Trace::kOracleCalibration &&
          t_.dist_timed_ns < Trace::kOracleCalibration *
                                 Trace::kOracleTimeAll *
                                 std::max<std::int64_t>(1, t_.clock_overhead_ns))
        t_.dist_stride = Trace::kOracleSampleEvery;
    }
    return d;
  }
  [[nodiscard]] Weight diameter() const override { return inner_->diameter(); }
  [[nodiscard]] NodeId num_nodes() const override {
    return inner_->num_nodes();
  }

 private:
  std::shared_ptr<const DistanceOracle> inner_;
  Trace& t_;
};

/// The landmark router's intra-cluster cache counters, if `o` has one.
const RoutingTable::CacheStats* routing_cache(const DistanceOracle& o) {
  const auto* lm = dynamic_cast<const LandmarkOracle*>(&o);
  return lm ? &lm->router().intra_cache_stats() : nullptr;
}

class WorkloadProbe final : public Workload {
 public:
  WorkloadProbe(std::unique_ptr<Workload> inner, Trace& t)
      : inner_(std::move(inner)), t_(t) {}

  [[nodiscard]] std::vector<ObjectOrigin> objects() override {
    return inner_->objects();
  }
  [[nodiscard]] std::vector<Transaction> arrivals_at(Time now) override {
    if (!t_.enabled) return inner_->arrivals_at(now);
    const auto a = Clock::now();
    auto out = inner_->arrivals_at(now);
    t_.offers_ns += ns_between(a, Clock::now());
    t_.offered += static_cast<std::int64_t>(out.size());
    return out;
  }
  void on_commit(TxnId txn, Time exec) override { inner_->on_commit(txn, exec); }
  [[nodiscard]] Time next_arrival_time() const override {
    return inner_->next_arrival_time();
  }
  [[nodiscard]] bool finished() const override { return inner_->finished(); }
  [[nodiscard]] const std::vector<Transaction>& generated() const override {
    return inner_->generated();
  }

 private:
  std::unique_ptr<Workload> inner_;
  Trace& t_;
};

class SourceProbe final : public TxnSource {
 public:
  SourceProbe(std::unique_ptr<TxnSource> inner, Trace& t)
      : inner_(std::move(inner)), t_(t) {}

  [[nodiscard]] std::vector<ObjectOrigin> objects() override {
    return inner_->objects();
  }
  [[nodiscard]] std::vector<Transaction> offers_at(Time now) override {
    if (!t_.enabled) return inner_->offers_at(now);
    const auto a = Clock::now();
    auto out = inner_->offers_at(now);
    t_.offers_ns += ns_between(a, Clock::now());
    t_.offered += static_cast<std::int64_t>(out.size());
    return out;
  }
  [[nodiscard]] Time next_offer_time() const override {
    return inner_->next_offer_time();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<TxnSource> inner_;
  Trace& t_;
};

// ---------------------------------------------------------------------------
// Set-up: everything built before the driver's run() starts.

struct Setup {
  explicit Setup(Network n) : net(std::move(n)) {}

  Network net;
  std::shared_ptr<const DistanceOracle> base_oracle;  ///< undecorated
  std::int64_t latency_factor = 1;
  const OnlineScheduler* sched = nullptr;  ///< undecorated scheduler
  std::unique_ptr<Workload> workload;              // batch
  std::unique_ptr<OnlineScheduler> probe;          // batch
  std::unique_ptr<StreamRunner> stream;            // stream
  StreamConfig stream_cfg;                         // stream (source replay)
  std::unique_ptr<DtmServer> server;               // serve
  double net_build_s = 0.0;
  double sched_build_s = 0.0;
  double setup_s = 0.0;
};

std::unique_ptr<Setup> build(const WorkloadDef& def, std::uint64_t seed,
                             Trace& trace) {
  const auto t0 = Clock::now();
  auto s =
      std::make_unique<Setup>(Registry::make_network(parse_spec(def.topology)));
  const auto t1 = Clock::now();
  s->base_oracle = s->net.oracle;
  if (trace.enabled)
    s->net.oracle = std::make_shared<OracleProbe>(s->base_oracle, trace);

  const FaultPlan fault =
      Registry::make_fault_plan(parse_spec(def.fault), seed);
  auto sched = Registry::make_scheduler(parse_spec(def.scheduler), s->net,
                                        &fault, /*threads=*/1);
  const auto t2 = Clock::now();
  s->sched = sched.get();
  auto probe = std::make_unique<SchedulerProbe>(std::move(sched), trace);

  // Engine options exactly as make_stream_runner / make_server build them.
  EngineOptions eopts;
  eopts.latency_factor = def.scheduler == "dist-bucket" ? 2 : 1;
  eopts.fault = fault;
  eopts.threads = 1;
  s->latency_factor = eopts.latency_factor;

  const Spec shape = parse_spec(def.shape);
  switch (def.driver) {
    case Driver::kBatch:
      s->workload = std::make_unique<WorkloadProbe>(
          Registry::make_workload(shape, s->net, seed), trace);
      s->probe = std::move(probe);
      break;
    case Driver::kStream: {
      s->stream_cfg = Registry::make_stream_config(shape, seed);
      s->stream = std::make_unique<StreamRunner>(
          s->net, make_stream_source(s->net, s->stream_cfg), std::move(probe),
          s->stream_cfg, eopts);
      break;
    }
    case Driver::kServe: {
      const ServeConfig cfg = Registry::make_serve_config(shape, seed);
      DTM_REQUIRE(cfg.source == "synthetic", "serve workloads are synthetic");
      SyntheticSourceOptions so;
      so.rate = cfg.rate;
      so.num_objects = cfg.objects;
      so.k = cfg.k;
      so.zipf_s = cfg.zipf;
      so.write_fraction = cfg.write_frac;
      so.burst_every = cfg.burst_every;
      so.burst_len = cfg.burst_len;
      so.burst_mult = cfg.burst_mult;
      so.seed = cfg.seed;
      auto source = std::make_unique<SourceProbe>(
          std::make_unique<SyntheticSource>(s->net, so), trace);
      s->server = std::make_unique<DtmServer>(
          s->net, std::move(source), std::move(probe), cfg, eopts);
      break;
    }
  }
  const auto t3 = Clock::now();
  s->net_build_s = seconds_between(t0, t1);
  s->sched_build_s = seconds_between(t1, t2);
  s->setup_s = seconds_between(t0, t3);
  return s;
}

// ---------------------------------------------------------------------------
// Process memory

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// One repeat

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

struct Outcome {
  std::vector<std::string> errors;
  std::uint64_t commit_hash = 0;
  std::int64_t attempted = 0;  ///< transactions offered / generated
  std::int64_t committed = 0;
  std::int64_t active_steps = 0;
  LatencyRecorder latency;
  double makespan_ratio = 0.0;  ///< closed batch runs only
  std::int64_t shed = 0;
  std::int64_t peak_committed_log = 0;
  std::int64_t drained = 0;
};

void gate(Outcome& o, bool ok, const std::string& what) {
  if (!ok) o.errors.push_back(what);
}

Outcome run_batch(Setup& s) {
  RunOptions opts;
  opts.engine.latency_factor = s.latency_factor;
  opts.engine.threads = 1;
  opts.validate = true;
  opts.collect_schedule = true;
  const RunResult r = run_experiment(s.net, *s.workload, *s.probe, opts);

  Outcome o;
  o.attempted = static_cast<std::int64_t>(s.workload->generated().size());
  o.committed = r.num_txns;
  o.active_steps = r.active_steps;
  o.commit_hash = kFnvOffset;
  for (const auto& c : r.committed) {
    o.latency.record(c.exec - c.txn.gen_time);
    fnv(o.commit_hash, static_cast<std::uint64_t>(c.txn.id));
    fnv(o.commit_hash, static_cast<std::uint64_t>(c.txn.node));
    fnv(o.commit_hash, static_cast<std::uint64_t>(c.txn.gen_time));
    fnv(o.commit_hash, static_cast<std::uint64_t>(c.exec));
  }
  o.makespan_ratio = r.ratio;
  const auto err = validate_schedule(r.committed, r.origins, *s.base_oracle,
                                     s.latency_factor);
  gate(o, !err.has_value(), "validate_schedule: " + err.value_or(""));
  gate(o, o.committed == o.attempted,
       "committed " + std::to_string(o.committed) + " != generated " +
           std::to_string(o.attempted));
  gate(o, r.makespan >= r.lb.best() && r.ratio >= 1.0,
       "makespan_ratio " + std::to_string(r.ratio) + " < 1");
  return o;
}

Outcome run_stream(Setup& s) {
  const StreamReport r = s.stream->run();
  Outcome o;
  o.attempted = r.offered;
  o.committed = r.commits;
  o.active_steps = r.active_steps;
  o.commit_hash = r.commit_hash;
  o.latency = r.latency;
  o.shed = r.shed;
  o.peak_committed_log = r.peak_committed_log;
  o.drained = r.drained;
  gate(o, r.commits == r.accepted,
       "committed " + std::to_string(r.commits) + " != accepted " +
           std::to_string(r.accepted));
  gate(o, r.drained + r.residual == r.commits,
       "drained + residual != committed");
  gate(o, r.commits == s.stream_cfg.target, "stream target missed");
  return o;
}

Outcome run_serve(Setup& s) {
  const ServeReport r = s.server->run();
  Outcome o;
  o.attempted = r.offered;
  o.committed = r.commits;
  o.active_steps = r.active_steps;
  o.commit_hash = r.commit_hash;
  o.latency = r.latency;
  o.shed = r.shed;
  o.peak_committed_log = r.peak_committed_log;
  o.drained = r.drained;
  gate(o, r.admitted == r.commits,
       "admitted " + std::to_string(r.admitted) + " != committed " +
           std::to_string(r.commits));
  gate(o, r.drained == r.commits, "drained != committed");
  return o;
}

/// Host time of replaying the stream source's offers in isolation.
/// StreamRunner takes the concrete StreamSource, so its offers cannot be
/// timed in place; the source is an open loop independent of the engine, so
/// the same calls on a fresh source with the same config do the same work.
double replay_stream_offers(const Setup& s, std::int64_t offers,
                            std::int64_t* replayed) {
  auto src = make_stream_source(s.net, s.stream_cfg);
  (void)src->objects();  // the runner draws origins first, during set-up
  const auto a = Clock::now();
  std::int64_t n = 0;
  while (n < offers) {
    const Time t = src->next_offer_time();
    if (t == kNoTime) break;
    n += static_cast<std::int64_t>(src->offers_at(t).size());
  }
  *replayed = std::min(n, offers);
  return seconds_between(a, Clock::now());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Json layer_metrics(const Setup& s, const Outcome& o, const Trace& t,
                   std::int64_t misses_before, double stepping_s,
                   double run_s, double finalize_s, double offers_s) {
  const double commits = static_cast<double>(o.committed);
  Json::Object m;
  const double on_step_s = static_cast<double>(t.on_step_ns) * 1e-9;
  m.emplace("sched.on_step_s", Json(on_step_s));
  m.emplace("sched.on_step_share", Json(ratio(on_step_s, stepping_s)));
  m.emplace("sched.on_step_us_p99",
            Json(static_cast<double>(t.on_step_hist.quantile(0.99)) * 1e-3));
  m.emplace("sched.assignments", Json(t.assignments));

  FastPathStats fp;
  if (const auto* b = dynamic_cast<const BucketScheduler*>(s.sched))
    fp = b->fastpath_stats();
  const auto* db = dynamic_cast<const DistributedBucketScheduler*>(s.sched);
  if (db) fp = db->fastpath_stats();
  m.emplace("batch.probes", Json(fp.probes));
  m.emplace("batch.estimates", Json(fp.estimates));
  m.emplace("batch.memo_hit_rate",
            Json(ratio(static_cast<double>(fp.memo_hits),
                       static_cast<double>(fp.probes))));
  m.emplace("batch.rebuilds", Json(fp.rebuilds));
  m.emplace("batch.activations", Json(fp.activations));

  const auto* cache = routing_cache(*s.base_oracle);
  const std::int64_t misses = cache ? cache->misses - misses_before : 0;
  const double dist_s_est = t.dist_est_ns * 1e-9;
  m.emplace("net.build_s", Json(s.net_build_s));
  m.emplace("net.dist_calls", Json(t.dist_calls));
  m.emplace("net.dist_calls_per_commit",
            Json(ratio(static_cast<double>(t.dist_calls), commits)));
  m.emplace("net.dist_calls_in_sched", Json(t.dist_calls_in_sched));
  m.emplace("net.dist_s_est", Json(dist_s_est));
  m.emplace("net.dist_share", Json(ratio(dist_s_est, run_s)));
  m.emplace("net.routing_misses", Json(misses));
  m.emplace("net.routing_hit_rate",
            Json(t.dist_calls > 0
                     ? 1.0 - static_cast<double>(misses) /
                                 static_cast<double>(t.dist_calls)
                     : 1.0));

  const double engine_self_s = stepping_s - on_step_s - offers_s;
  m.emplace("sim.stepping_s", Json(stepping_s));
  m.emplace("sim.engine_self_s", Json(engine_self_s));
  m.emplace("sim.engine_self_share", Json(ratio(engine_self_s, stepping_s)));
  m.emplace("sim.step_us_p50",
            Json(static_cast<double>(t.step_gap_hist.quantile(0.5)) * 1e-3));
  m.emplace("sim.step_us_p99",
            Json(static_cast<double>(t.step_gap_hist.quantile(0.99)) * 1e-3));
  m.emplace("sim.active_steps", Json(o.active_steps));
  m.emplace("sim.peak_live", Json(t.peak_live));
  m.emplace("sim.peak_calendar", Json(t.peak_calendar));

  DistStats ds;
  std::int64_t messages = 0;
  FaultBusStats fs;
  if (db) {
    ds = db->stats();
    for (const EventSource* e : db->event_sources())
      if (const auto* bus = dynamic_cast<const MessageBus*>(e))
        messages += bus->messages_sent();
    if (const auto* f = db->fault_bus_stats()) fs = *f;
  }
  const std::int64_t retries = ds.reprobes + ds.report_retries;
  m.emplace("dist.build_s", Json(db ? s.sched_build_s : 0.0));
  m.emplace("dist.messages", Json(messages));
  m.emplace("dist.messages_per_commit",
            Json(ratio(static_cast<double>(messages), commits)));
  m.emplace("dist.retries", Json(retries));
  m.emplace("dist.retry_rate", Json(ratio(static_cast<double>(retries),
                                          static_cast<double>(messages))));
  m.emplace("dist.probe_timeouts", Json(ds.probe_timeouts));
  m.emplace("fault.dropped", Json(fs.dropped));
  m.emplace("fault.duplicated", Json(fs.duplicated));

  m.emplace("source.offers_s", Json(offers_s));
  m.emplace("source.offered", Json(o.attempted));
  m.emplace("serve.shed", Json(o.shed));
  m.emplace("log.peak_committed_log", Json(o.peak_committed_log));
  m.emplace("log.drained", Json(o.drained));
  m.emplace("finalize_s", Json(finalize_s));
  m.emplace("makespan_ratio", Json(o.makespan_ratio));
  return Json(std::move(m));
}

int run(const WorkloadDef& def, std::uint64_t seed, bool traced) {
  Trace trace;
  trace.enabled = traced;
  trace.clock_overhead_ns = calibrate_clock_overhead();

  reset_peak_rss();
  auto s = build(def, seed, trace);
  // Counters start with the run: set-up calls are not stepping work.
  trace.dist_calls = trace.dist_calls_in_sched = trace.dist_timed_ns = 0;
  trace.dist_stride = 1;
  trace.dist_est_ns = 0.0;
  const auto* cache = routing_cache(*s->base_oracle);
  const std::int64_t misses_before = cache ? cache->misses : 0;

  const auto start = Clock::now();
  Outcome o;
  switch (def.driver) {
    case Driver::kBatch: o = run_batch(*s); break;
    case Driver::kStream: o = run_stream(*s); break;
    case Driver::kServe: o = run_serve(*s); break;
  }
  const auto end = Clock::now();
  const double rss = peak_rss_mb();
  const double run_s = seconds_between(start, end);
  const double stepping_s = seconds_between(start, trace.last_exit);
  const double finalize_s = seconds_between(trace.last_exit, end);

  Json::Object out;
  out.emplace("workload", Json(def.name));
  out.emplace("seed", Json(static_cast<std::int64_t>(seed)));
  out.emplace("traced", Json(traced));
  out.emplace("commit_hash", Json(std::to_string(o.commit_hash)));
  out.emplace("attempted", Json(o.attempted));
  out.emplace("committed", Json(o.committed));
  out.emplace("wall_s", Json(s->setup_s + run_s));
  out.emplace("stepping_s", Json(stepping_s));
  out.emplace("commits_per_s",
              Json(ratio(static_cast<double>(o.committed), stepping_s)));
  out.emplace("peak_rss_mb", Json(rss));
  out.emplace("sim_latency_p50_steps", Json(o.latency.quantile(0.5)));
  out.emplace("sim_latency_p99_steps", Json(o.latency.quantile(0.99)));
  out.emplace("latency_samples", Json(o.latency.count()));
  out.emplace("makespan_ratio", Json(o.makespan_ratio));

  if (traced) {
    double offers_s = static_cast<double>(trace.offers_ns) * 1e-9;
    if (def.driver == Driver::kStream) {
      std::int64_t replayed = 0;
      offers_s = replay_stream_offers(*s, o.attempted, &replayed);
      gate(o, replayed == o.attempted, "stream source replay mismatch");
    } else {
      gate(o, trace.offered == o.attempted, "source probe missed offers");
    }
    out.emplace("layers", layer_metrics(*s, o, trace, misses_before,
                                        stepping_s, run_s, finalize_s,
                                        offers_s));
  }

  // More set-ups after the run (the run's own is the first sample): one
  // build is too short to time steadily on the small topologies.
  Json::Array setups{Json(s->setup_s)};
  const double first = s->setup_s;
  s.reset();
  double spent = first;
  while (setups.size() < 7 && spent < 0.3) {
    Trace scratch;
    scratch.enabled = traced;
    const double t = build(def, seed, scratch)->setup_s;
    setups.emplace_back(t);
    spent += t;
  }
  out.emplace("setup_s", Json(std::move(setups)));

  Json::Array errors;
  for (const auto& e : o.errors) errors.emplace_back(e);
  out.emplace("ok", Json(o.errors.empty()));
  out.emplace("errors", Json(std::move(errors)));

  Json::Object prov;
  prov.emplace("hardware_threads",
               Json(static_cast<std::int64_t>(
                   std::thread::hardware_concurrency())));
  prov.emplace("build_type", Json(PERFBENCH_BUILD_TYPE));
  prov.emplace("compiler", Json(PERFBENCH_COMPILER));
  prov.emplace("sim_threads", Json(1));
  out.emplace("provenance", Json(std::move(prov)));

  std::cout << Json(std::move(out)).dump() << "\n";
  return o.errors.empty() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N [--trace]\n"
               "workloads:";
  for (const auto& d : workload_defs()) std::cerr << " " << d.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (a == "--trace") {
      traced = true;
    } else {
      return usage();
    }
  }
  const auto& defs = workload_defs();
  const auto it = std::find_if(defs.begin(), defs.end(),
                               [&](const auto& d) { return d.name == name; });
  if (it == defs.end()) return usage();
  try {
    return run(*it, seed, traced);
  } catch (const std::exception& e) {
    Json::Object out;
    out.emplace("workload", Json(name));
    out.emplace("ok", Json(false));
    out.emplace("errors", Json(Json::Array{Json(std::string(e.what()))}));
    std::cout << Json(std::move(out)).dump() << "\n";
    return 1;
  }
}
