// Shared harness utilities for the experiment benches (DESIGN.md §4).
//
// Every bench prints aligned tables whose rows are the series the paper's
// claims predict; EXPERIMENTS.md quotes them. Ratios are makespan divided
// by a certified lower bound on the optimal makespan, so every printed
// ratio UPPER-bounds the true competitive ratio.
//
// The multi-trial averaging itself lives in sim/trials.* (shared with the
// test suite); this header adds the bench-wide CLI: every bench accepts
// --help / --list / --seed / --trials, and the latter two override the
// bench's built-in defaults in every run_trials call.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "sim/cli.hpp"
#include "sim/trials.hpp"
#include "util/table.hpp"

namespace dtm::bench {

using CaseResult = TrialSummary;

/// Process-wide overrides from the uniform CLI (set by bench_init).
struct BenchCli {
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::int32_t trials = 0;
  bool trials_set = false;
  std::int32_t threads = 1;
  bool threads_set = false;
  /// Steps excluded from steady-state measurements (--warmup). Benches that
  /// measure allocs/step or steps/sec call warmup_or(default); each keeps
  /// its own default, so behavior is unchanged unless the flag is passed.
  std::int64_t warmup = 0;
  bool warmup_set = false;

  [[nodiscard]] std::int64_t warmup_or(std::int64_t def) const {
    return warmup_set ? warmup : def;
  }
};

inline BenchCli& bench_cli() {
  static BenchCli cli;
  return cli;
}

/// Parses the uniform bench flags (plus any flags already registered on
/// `cli`); returns false when the process should exit 0 (--help / --list
/// were handled). Unknown flags throw.
inline bool bench_init(Cli& cli, int argc, char** argv) {
  if (!cli.parse(argc, argv)) return false;
  bench_cli().seed_set = cli.seed_set();
  bench_cli().seed = cli.seed(0);
  bench_cli().trials_set = cli.trials_set();
  bench_cli().trials = cli.trials(0);
  bench_cli().threads_set = cli.threads_set();
  bench_cli().threads = cli.threads(1);
  bench_cli().warmup_set = cli.warmup_set();
  bench_cli().warmup = cli.warmup(0);
  return true;
}

inline bool bench_init(int argc, char** argv, const std::string& name,
                       const std::string& what) {
  Cli cli(name, what);
  return bench_init(cli, argc, argv);
}

/// Peak resident set (VmHWM) in kilobytes since the last reset_peak_rss();
/// 0 where /proc is unavailable.
inline std::int64_t peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::int64_t kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

/// Lowers the peak-RSS mark to the current RSS, so the next peak_rss_kb()
/// measures what ran in between rather than the process-wide high-water
/// mark left by an earlier point. Call it before each measured point. Free
/// heap pages are handed back first: the mark can only drop to the current
/// RSS, and an earlier point's freed memory would otherwise stay resident.
inline void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
}

/// Runs `trials` independent seeds of (network, workload-options, scheduler
/// factory) and averages the headline metrics. The scheduler factory is
/// invoked per trial (schedulers are stateful). --seed / --trials from the
/// bench CLI override the caller's values.
inline CaseResult run_trials(
    const Network& net, SyntheticOptions wopts,
    const SchedulerFactory& make_scheduler, int trials = 3,
    std::int64_t latency_factor = 1, Time ratio_window = 0) {
  const BenchCli& cli = bench_cli();
  if (cli.seed_set) wopts.seed = cli.seed;
  TrialOptions topts;
  topts.trials = cli.trials_set ? cli.trials : trials;
  topts.latency_factor = latency_factor;
  topts.ratio_window = ratio_window;
  topts.threads = cli.threads;
  return dtm::run_seeded_trials(net, wopts, make_scheduler, topts);
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n### " << id << " — " << claim << "\n";
}

}  // namespace dtm::bench
