// Streaming subsystem harness: memory-bounded long runs under the four
// arrival profiles, with the bounded-memory evidence pinned next to the
// throughput numbers. Three sections:
//
//   headline   one sustained run to a large committed-transaction target
//              (1M full / 50k quick) on a clique — commits/sec, peak
//              committed-log and calendar occupancy, peak RSS (VmHWM,
//              reset before every point, so each point reports its own)
//   landmark   a large random graph (50k nodes full / 4k quick) routed by
//              the landmark oracle — no O(n^2) APSP is ever built; the
//              point records the router's memory and query mix
//   profiles   steady / diurnal / mmpp / adversary at one size, recording
//              the windowed competitive-ratio curves (max and mean per
//              profile) that show what burstiness costs the scheduler
//
// Every point asserts the streaming zero-loss invariants (accepted ==
// commits, drained + residual == commits, commits == target), so the bench
// doubles as a soak test for the drained-log run loop. Emits
// machine-readable BENCH_stream.json (schema dtm-bench-stream-v1; see
// docs/EXPERIMENTS.md).
//
// Usage: bench_stream [--quick] [--out <path>] [--seed N] [--threads N]
//   --quick   smaller targets/graphs (CI smoke); default runs the full
//             1M-txn headline inside the ctest smoke budget
//   --out     JSON output path (default: BENCH_stream.json in the cwd)
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/cli.hpp"
#include "sim/registry.hpp"
#include "stream/stream_runner.hpp"
#include "util/json.hpp"

namespace {

using namespace dtm;
using Clock = std::chrono::steady_clock;

struct Point {
  std::string section;
  std::string topo;
  std::string stream;
  double wall_s = 0.0;
  std::int64_t rss_kb = 0;
  StreamReport r;
};

Point run_point(const std::string& section, const std::string& topology,
                const std::string& scheduler, const std::string& stream,
                std::uint64_t seed, std::int32_t threads) {
  RunSpec spec;
  spec.topology = parse_spec(topology);
  spec.scheduler = parse_spec(scheduler);
  spec.stream = parse_spec(stream);
  spec.seed = seed;
  spec.threads = threads;

  bench::reset_peak_rss();
  const Network net = Registry::make_network(spec.topology);
  const auto t0 = Clock::now();
  StreamReport r = make_stream_runner(net, spec)->run();
  const auto t1 = Clock::now();

  // The streaming guarantees the curves rest on: nothing accepted is ever
  // lost, and the drain cadence accounts for every commit.
  DTM_CHECK(r.accepted == r.commits, "stream bench lost transactions: "
                                         << r.accepted << " != "
                                         << r.commits);
  DTM_CHECK(r.drained + r.residual == r.commits,
            "stream bench drain mismatch: " << r.drained << " + "
                                            << r.residual
                                            << " != " << r.commits);

  Point p;
  p.section = section;
  p.topo = topology;
  p.stream = stream;
  p.wall_s = std::chrono::duration<double>(t1 - t0).count();
  p.rss_kb = bench::peak_rss_kb();
  p.r = std::move(r);
  return p;
}

void print_point(const Point& p) {
  const StreamReport& r = p.r;
  const double sim_tput =
      r.end_time > 0 ? static_cast<double>(r.commits) /
                           static_cast<double>(r.end_time)
                     : 0.0;
  const double wall_tput =
      static_cast<double>(r.commits) / std::max(p.wall_s, 1e-9);
  std::cout << std::left << std::setw(10) << p.section << std::setw(10)
            << r.profile << std::right << std::setw(10) << r.commits
            << std::setw(8) << std::fixed << std::setprecision(2) << sim_tput
            << std::setw(12) << std::setprecision(0) << wall_tput
            << std::setw(9) << r.peak_committed_log << std::setw(9)
            << r.peak_calendar << std::setw(9) << r.peak_live << std::setw(8)
            << std::setprecision(2) << r.windowed_ratio_max << std::setw(10)
            << std::setprecision(3) << p.wall_s << "\n";
}

Json point_json(const Point& p) {
  const StreamReport& r = p.r;
  Json::Object o;
  o.emplace("section", Json(p.section));
  o.emplace("topology", Json(p.topo));
  o.emplace("stream", Json(p.stream));
  o.emplace("profile", Json(r.profile));
  o.emplace("scheduler", Json(r.scheduler));
  o.emplace("commits", Json(r.commits));
  o.emplace("offered", Json(r.offered));
  o.emplace("shed", Json(r.shed));
  o.emplace("end_time", Json(r.end_time));
  o.emplace("throughput_per_step",
            Json(r.end_time > 0 ? static_cast<double>(r.commits) /
                                      static_cast<double>(r.end_time)
                                : 0.0));
  o.emplace("commits_per_sec",
            Json(static_cast<double>(r.commits) / std::max(p.wall_s, 1e-9)));
  o.emplace("wall_seconds", Json(p.wall_s));
  o.emplace("peak_rss_kb", Json(p.rss_kb));
  o.emplace("peak_committed_log", Json(r.peak_committed_log));
  o.emplace("drained", Json(r.drained));
  o.emplace("residual", Json(r.residual));
  o.emplace("peak_calendar", Json(r.peak_calendar));
  o.emplace("final_calendar_overflow", Json(r.final_calendar_overflow));
  o.emplace("peak_live", Json(r.peak_live));
  o.emplace("peak_open_windows", Json(r.peak_open_windows));
  o.emplace("peak_window_txns", Json(r.peak_window_txns));
  o.emplace("ratio_windows", Json(r.ratio_windows));
  o.emplace("windowed_ratio_max", Json(r.windowed_ratio_max));
  o.emplace("windowed_ratio_mean", Json(r.windowed_ratio_mean));
  o.emplace("p50", Json(r.latency.quantile(0.5)));
  o.emplace("p99", Json(r.latency.quantile(0.99)));
  o.emplace("latency_max", Json(r.latency.max()));
  o.emplace("commit_hash", Json("0x" + [h = r.commit_hash] {
              std::ostringstream os;
              os << std::hex << h;
              return os.str();
            }()));
  return Json(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_stream.json";
  Cli cli("bench_stream",
          "memory-bounded streaming: sustained throughput, peak-memory "
          "evidence, and windowed competitive-ratio curves per arrival "
          "profile");
  cli.add_flag("quick", "smaller targets/graphs for CI smoke runs", &quick);
  cli.add_value("out", "JSON output path (default BENCH_stream.json)", &out);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seed = cli.seed(2026);
  const std::int32_t threads = cli.threads(1);

  std::cout << "### stream — " << (quick ? "quick" : "full") << ", seed "
            << seed << "\n";
  std::cout << std::left << std::setw(10) << "section" << std::setw(10)
            << "profile" << std::right << std::setw(10) << "commits"
            << std::setw(8) << "c/step" << std::setw(12) << "c/sec"
            << std::setw(9) << "peaklog" << std::setw(9) << "peakcal"
            << std::setw(9) << "peaklive" << std::setw(8) << "wratio"
            << std::setw(10) << "wall_s" << "\n";

  std::vector<Point> points;

  // Headline: one long steady run to the committed-transaction target. The
  // drain cadence and the windowed tracker keep every per-transaction
  // structure bounded — the peak columns are the proof. rate=7 sits just
  // under this workload's service capacity (~7.1 commits/step on
  // clique-256 with zipf=0.9 hot objects): the live set stays bounded
  // instead of accreting a linear backlog over the million-txn run.
  {
    const std::int64_t target = quick ? 50000 : 1000000;
    std::ostringstream s;
    s << "stream:profile=steady,rate=7,objects=4096,k=2,zipf=0.9,target="
      << target << ",window=1024,drain-every=256";
    points.push_back(run_point("headline", "clique:n=256", "greedy", s.str(),
                               seed, threads));
    print_point(points.back());
  }

  // Landmark: a graph too large for exact all-pairs state. routing=landmark
  // skips the APSP build entirely; the run exercises the hierarchical
  // oracle on every distance query the scheduler and engine make. Load is
  // gentle (rate=1, mild skew) because service time on this graph is
  // dominated by multi-hop network travel — higher rates accrete an
  // unbounded backlog of in-transit transactions rather than measuring
  // routing cost.
  {
    const std::int64_t n = quick ? 4000 : 50000;
    const std::int64_t target = quick ? 2000 : 20000;
    std::ostringstream topo;
    topo << "random:n=" << n << ",extra=" << 2 * n
         << ",maxw=3,routing=landmark";
    std::ostringstream s;
    s << "stream:profile=steady,rate=1,objects=8192,k=2,zipf=0.5,target="
      << target << ",window=2048,drain-every=512";
    points.push_back(run_point("landmark", topo.str(), "greedy", s.str(),
                               seed, threads));
    print_point(points.back());
  }

  // Profiles: the windowed competitive-ratio curves under each arrival
  // shape. Same topology, same average demand where the profile allows it;
  // the adversary releases (rho, b)-admissible maximal bursts.
  {
    const std::int64_t target = quick ? 10000 : 100000;
    const std::vector<std::pair<std::string, std::string>> profiles = {
        {"steady", "profile=steady,rate=2"},
        {"diurnal", "profile=diurnal,rate=2,period=2048,duty=0.5,"
                    "low-mult=0.25"},
        {"mmpp", "profile=mmpp,rate=2,hi-mult=4,low-mult=0.25,dwell-on=256,"
                 "dwell-off=768"},
        {"adversary", "profile=adversary,rate=2,burst=64"},
    };
    for (const auto& [name, knobs] : profiles) {
      std::ostringstream s;
      s << "stream:" << knobs << ",objects=512,k=2,zipf=0.9,target="
        << target << ",window=512,drain-every=128,rotate-every=4096";
      points.push_back(run_point("profiles", "clique:n=64", "greedy",
                                 s.str(), seed, threads));
      print_point(points.back());
    }
  }

  Json::Array arr;
  for (const Point& p : points) arr.push_back(point_json(p));
  Json::Object root;
  root.emplace("schema", Json("dtm-bench-stream-v1"));
  root.emplace("quick", Json(quick));
  root.emplace("seed", Json(static_cast<std::int64_t>(seed)));
  root.emplace("threads", Json(static_cast<std::int64_t>(threads)));
  root.emplace("points", Json(std::move(arr)));

  std::ofstream f(out);
  DTM_CHECK(f.good(), "cannot open " << out << " for writing");
  f << Json(std::move(root)).dump(2) << "\n";
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
