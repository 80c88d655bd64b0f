// Chaos harness: the distributed bucket scheduler under escalating fault
// intensity. Sweeps a ladder of FaultPlans (drop/dup/jitter/stall combined)
// over two topologies and records how the makespan inflates relative to the
// fault-free baseline, plus the retry overhead the timeout/reprobe protocol
// pays to keep every transaction committing. Emits machine-readable
// BENCH_chaos.json (schema dtm-bench-chaos-v1; see docs/EXPERIMENTS.md).
//
// Every point is a full end-to-end run (validated schedule); the headline
// resilience claim — every transaction commits under any loss rate < 1 —
// is asserted on every run, so this bench doubles as a soak test for the
// protocol.
//
// Usage: bench_chaos [--quick] [--out <path>] [--trials N] [--seed N]
//   --quick   one topology, two intensity points (CI smoke)
//   --out     JSON output path (default: BENCH_chaos.json in the cwd)
//   --trials  seeds averaged per point (default 3)
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "dist/dist_bucket.hpp"
#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "sim/cli.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace {

using namespace dtm;

/// One rung of the intensity ladder; knobs escalate together so a single
/// axis ("intensity") orders the curve.
struct Intensity {
  std::string name;
  FaultPlan plan;  ///< seed overwritten per trial
};

std::vector<Intensity> ladder(bool quick) {
  std::vector<Intensity> out;
  const auto rung = [&](std::string name, double drop, std::int64_t jitter,
                        double dup, double stall) {
    FaultPlan p;
    p.drop = drop;
    p.jitter = jitter;
    p.dup = dup;
    p.stall = stall;
    out.push_back({std::move(name), p});
  };
  rung("none", 0.0, 0, 0.0, 0.0);
  if (quick) {
    rung("drop15", 0.15, 2, 0.05, 0.0);
    return out;
  }
  rung("drop05", 0.05, 1, 0.0, 0.0);
  rung("drop15", 0.15, 2, 0.05, 0.1);
  rung("drop30", 0.30, 3, 0.10, 0.2);
  rung("drop50", 0.50, 4, 0.10, 0.3);
  return out;
}

struct PointResult {
  double makespan = 0.0;      ///< averaged over trials
  double active_steps = 0.0;
  double messages = 0.0;      ///< bus sends (post-retry traffic)
  double probe_timeouts = 0.0;
  double reprobes = 0.0;
  double report_retries = 0.0;
  double dup_replies = 0.0;
  double dup_reports = 0.0;
  double bus_dropped = 0.0;
  double bus_duplicated = 0.0;
  std::int64_t commits = 0;   ///< per trial (asserted equal across trials)
};

PointResult run_point(const Network& net, const FaultPlan& base_plan,
                      std::uint64_t seed, std::int32_t trials) {
  PointResult r;
  for (std::int32_t t = 0; t < trials; ++t) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(t) * 7919;
    SyntheticOptions w;
    w.num_objects = 10;
    w.k = 2;
    w.rounds = 2;
    w.seed = s;
    SyntheticWorkload wl(net, w);

    FaultPlan plan = base_plan;
    plan.seed = s ^ 0xC4A05ULL;
    DistBucketOptions o;
    o.seed = s;
    o.fault = plan;
    DistributedBucketScheduler sched(net, Registry::make_batch_algo("auto", net),
                                     o);

    RunOptions opts;
    opts.engine.latency_factor = 2;  // §V half-speed objects
    opts.engine.fault = plan;
    opts.collect_schedule = false;
    const RunResult res = run_experiment(net, wl, sched, opts);

    // The resilience claim itself: nothing lost, no matter the loss rate.
    DTM_CHECK(res.num_txns ==
                  static_cast<std::int64_t>(wl.generated().size()),
              "chaos run lost transactions: " << res.num_txns << " of "
                                              << wl.generated().size());
    r.commits = res.num_txns;
    r.makespan += static_cast<double>(res.makespan);
    r.active_steps += static_cast<double>(res.active_steps);
    const DistStats& ds = sched.stats();
    r.probe_timeouts += static_cast<double>(ds.probe_timeouts);
    r.reprobes += static_cast<double>(ds.reprobes);
    r.report_retries += static_cast<double>(ds.report_retries);
    r.dup_replies += static_cast<double>(ds.dup_replies);
    r.dup_reports += static_cast<double>(ds.dup_reports);
    if (const FaultBusStats* fb = sched.fault_bus_stats()) {
      r.messages += static_cast<double>(fb->offered);
      r.bus_dropped += static_cast<double>(fb->dropped);
      r.bus_duplicated += static_cast<double>(fb->duplicated);
    } else {
      r.messages += static_cast<double>(ds.probes + ds.probe_hops +
                                        ds.reports);
    }
  }
  const double inv = 1.0 / static_cast<double>(trials);
  r.makespan *= inv;
  r.active_steps *= inv;
  r.messages *= inv;
  r.probe_timeouts *= inv;
  r.reprobes *= inv;
  r.report_retries *= inv;
  r.dup_replies *= inv;
  r.dup_reports *= inv;
  r.bus_dropped *= inv;
  r.bus_duplicated *= inv;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_chaos.json";
  Cli cli("bench_chaos",
          "distributed bucket scheduler under escalating fault injection");
  cli.add_flag("quick", "one topology, two intensity points (CI smoke)",
               &quick);
  cli.add_value("out", "JSON output path (default BENCH_chaos.json)", &out);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seed = cli.seed(17);
  const std::int32_t trials = cli.trials(3);

  struct Topo {
    std::string name;
    Network net;
  };
  std::vector<Topo> topos;
  topos.push_back({"line:n=12", make_line(12)});
  if (!quick)
    topos.push_back({"cluster:a=2,b=3,g=4", make_cluster(2, 3, 4)});

  const std::vector<Intensity> rungs = ladder(quick);

  struct Row {
    std::string topo;
    std::string rung;
    FaultPlan plan;
    PointResult r;
    double inflation = 1.0;
  };
  std::vector<Row> rows;

  for (const Topo& t : topos) {
    double baseline = 0.0;
    std::cout << "### chaos — " << t.name << " (trials " << trials
              << ", seed " << seed << ")\n";
    std::cout << std::left << std::setw(9) << "rung" << std::right
              << std::setw(11) << "makespan" << std::setw(11) << "inflate"
              << std::setw(10) << "msgs" << std::setw(10) << "reprobe"
              << std::setw(10) << "rep-rtx" << std::setw(10) << "dup-rx"
              << "\n";
    for (const Intensity& rung : rungs) {
      Row row{t.name, rung.name, rung.plan,
              run_point(t.net, rung.plan, seed, trials), 1.0};
      if (rung.plan.is_null()) baseline = row.r.makespan;
      row.inflation = baseline > 0.0 ? row.r.makespan / baseline : 1.0;
      std::cout << std::left << std::setw(9) << rung.name << std::right
                << std::fixed << std::setprecision(1) << std::setw(11)
                << row.r.makespan << std::setw(10) << std::setprecision(2)
                << row.inflation << "x" << std::setprecision(1)
                << std::setw(10) << row.r.messages << std::setw(10)
                << row.r.reprobes << std::setw(10) << row.r.report_retries
                << std::setw(10) << row.r.dup_replies + row.r.dup_reports
                << "\n";
      rows.push_back(std::move(row));
    }
    std::cout << "\n";
  }

  std::ofstream f(out);
  DTM_CHECK(f.good(), "cannot open " << out << " for writing");
  f << std::fixed;
  f << "{\n  \"schema\": \"dtm-bench-chaos-v1\",\n";
  f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  f << "  \"trials\": " << trials << ",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\n";
    f << "      \"topology\": \"" << r.topo << "\",\n";
    f << "      \"intensity\": \"" << r.rung << "\",\n";
    f << "      \"plan\": {\"drop\": " << std::setprecision(2)
      << r.plan.drop << ", \"dup\": " << r.plan.dup
      << ", \"jitter\": " << r.plan.jitter << ", \"stall\": " << r.plan.stall
      << "},\n";
    f << "      \"commits\": " << r.r.commits << ",\n";
    f << "      \"makespan\": " << std::setprecision(1) << r.r.makespan
      << ",\n";
    f << "      \"makespan_inflation\": " << std::setprecision(3)
      << r.inflation << ",\n";
    f << "      \"active_steps\": " << std::setprecision(1)
      << r.r.active_steps << ",\n";
    f << "      \"messages\": " << r.r.messages << ",\n";
    f << "      \"bus_dropped\": " << r.r.bus_dropped << ",\n";
    f << "      \"bus_duplicated\": " << r.r.bus_duplicated << ",\n";
    f << "      \"probe_timeouts\": " << r.r.probe_timeouts << ",\n";
    f << "      \"reprobes\": " << r.r.reprobes << ",\n";
    f << "      \"report_retries\": " << r.r.report_retries << ",\n";
    f << "      \"dup_replies\": " << r.r.dup_replies << ",\n";
    f << "      \"dup_reports\": " << r.r.dup_reports << "\n";
    f << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::cout << "wrote " << out << "\n";
  return 0;
}
