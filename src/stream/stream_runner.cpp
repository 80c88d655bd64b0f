#include "stream/stream_runner.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dtm {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

}  // namespace

Json StreamReport::to_json() const {
  Json::Object o;
  o.emplace("scheduler", Json(scheduler));
  o.emplace("network", Json(network));
  o.emplace("profile", Json(profile));
  o.emplace("end_time", Json(end_time));
  o.emplace("active_steps", Json(active_steps));
  o.emplace("offered", Json(offered));
  o.emplace("shed", Json(shed));
  o.emplace("accepted", Json(accepted));
  o.emplace("commits", Json(commits));
  o.emplace("drained", Json(drained));
  o.emplace("residual", Json(residual));
  o.emplace("peak_committed_log", Json(peak_committed_log));
  o.emplace("peak_calendar", Json(peak_calendar));
  o.emplace("final_calendar_overflow", Json(final_calendar_overflow));
  o.emplace("peak_live", Json(peak_live));
  o.emplace("peak_open_windows", Json(peak_open_windows));
  o.emplace("peak_window_txns", Json(peak_window_txns));
  o.emplace("ratio_windows", Json(ratio_windows));
  o.emplace("windowed_ratio_max", Json(windowed_ratio_max));
  o.emplace("windowed_ratio_mean", Json(windowed_ratio_mean));
  o.emplace("commit_hash", Json(std::to_string(commit_hash)));
  o.emplace("latency", latency.to_json());
  return Json(std::move(o));
}

StreamRunner::StreamRunner(const Network& net,
                           std::unique_ptr<StreamSource> source,
                           std::unique_ptr<OnlineScheduler> scheduler,
                           StreamConfig cfg, EngineOptions engine_opts)
    : net_(net),
      cfg_(std::move(cfg)),
      source_(std::move(source)),
      scheduler_(std::move(scheduler)),
      ratio_(*net.oracle, engine_opts.latency_factor, cfg_.window,
             cfg_.ratio_every) {
  cfg_.validate();
  DTM_REQUIRE(source_ != nullptr, "stream: null source");
  DTM_REQUIRE(scheduler_ != nullptr, "stream: null scheduler");
  engine_ = std::make_unique<SyncEngine>(net_.oracle, source_->objects(),
                                         engine_opts);
}

void StreamRunner::maybe_drain_log(Time now) {
  if (cfg_.drain_every < 0) return;  // disabled (tests only)
  const Time cadence = cfg_.drain_every > 0 ? cfg_.drain_every : cfg_.window;
  if (now - last_drain_ < cadence) return;
  drained_ += static_cast<std::int64_t>(engine_->take_committed().size());
  last_drain_ = now;
}

void StreamRunner::step_once() {
  const Time now = engine_->now();
  // Open windows before arrivals: this step's offers belong to the window
  // containing `now`, which must have its start-of-window snapshot taken.
  ratio_.maybe_open(*engine_, now);
  if (offering_ && cfg_.duration > 0 && now >= cfg_.duration)
    offering_ = false;

  std::vector<Transaction> arrivals;
  if (offering_) {
    for (const auto& t : source_->offers_at(now)) {
      if (cfg_.target > 0 && accepted_ >= cfg_.target) {
        // Target hit mid-batch: the run accepts exactly `target`; the rest
        // of this release is never offered to the engine.
        offering_ = false;
        break;
      }
      ++offered_;
      if (cfg_.max_live > 0 &&
          engine_->num_live() +
                  static_cast<std::int64_t>(arrivals.size()) >=
              cfg_.max_live) {
        ++shed_;
        continue;
      }
      Transaction s = t;
      s.id = next_engine_id_++;
      s.gen_time = now;  // the engine requires arrivals stamped with `now`
      ratio_.on_arrival(s, now);
      arrivals.push_back(std::move(s));
      ++accepted_;
    }
    if (cfg_.target > 0 && accepted_ >= cfg_.target) offering_ = false;
  }

  engine_->begin_step(arrivals);
  const auto assignments = scheduler_->on_step(*engine_, arrivals);
  engine_->apply(assignments);
  const auto commits = engine_->finish_step();
  ++active_steps_;

  for (const auto& c : commits) {
    latency_.record(c.exec - c.gen);
    fnv(commit_hash_, static_cast<std::uint64_t>(c.txn));
    fnv(commit_hash_, static_cast<std::uint64_t>(c.node));
    fnv(commit_hash_, static_cast<std::uint64_t>(c.gen));
    fnv(commit_hash_, static_cast<std::uint64_t>(c.exec));
    ratio_.on_commit(c.txn, c.gen, c.exec);
    ++commits_;
  }

  peak_committed_log_ =
      std::max(peak_committed_log_,
               static_cast<std::int64_t>(engine_->committed().size()));
  peak_live_ = std::max(peak_live_, engine_->num_live());
  maybe_drain_log(engine_->now());

  if (!offering_ && engine_->all_done()) done_ = true;
}

StreamReport StreamRunner::run() {
  DTM_REQUIRE(!done_, "stream runner is single-use");
  while (!done_) {
    step_once();
    if (done_) break;

    const Time now = engine_->now();
    Time next = kNoTime;
    const auto merge = [&next](Time t) { next = EventClock::merge(next, t); };
    if (offering_) {
      merge(source_->next_offer_time());
      if (cfg_.duration > 0) merge(cfg_.duration);
    }
    merge(engine_->next_exec_due());
    merge(scheduler_->next_event_hint(now));
    const std::vector<const EventSource*> sources =
        scheduler_->event_sources();
    next = engine_->clock().next_event({next}, sources);
    DTM_CHECK(next != kNoTime,
              "stream deadlock: live transactions but no future event (now="
                  << now << ", live=" << engine_->num_live() << ")");
    if (next > now) engine_->advance_to(next);
  }

  ratio_.finish();

  StreamReport r;
  r.scheduler = scheduler_->name();
  r.network = net_.name;
  r.profile = cfg_.profile;
  r.end_time = engine_->now();
  r.active_steps = active_steps_;
  r.offered = offered_;
  r.shed = shed_;
  r.accepted = accepted_;
  r.commits = commits_;
  // The residual is whatever the cadence never drained; together with the
  // drained count it must account for every commit (zero-loss invariant).
  r.residual = static_cast<std::int64_t>(engine_->committed().size());
  r.drained = drained_;
  DTM_CHECK(r.drained + r.residual == commits_,
            "stream drain lost commits: " << r.drained << " + " << r.residual
                                          << " != " << commits_);
  DTM_CHECK(accepted_ == commits_, "stream quiescence: accepted "
                                       << accepted_ << " != commits "
                                       << commits_);
  if (cfg_.target > 0 && cfg_.duration == 0)
    DTM_CHECK(commits_ == cfg_.target, "stream target missed: "
                                           << commits_ << " != "
                                           << cfg_.target);
  r.peak_committed_log = peak_committed_log_;
  r.peak_calendar = engine_->clock().calendar_peak();
  r.final_calendar_overflow = engine_->clock().calendar_overflow();
  r.peak_live = peak_live_;
  r.peak_open_windows = ratio_.peak_open_windows();
  r.peak_window_txns = ratio_.peak_window_txns();
  r.ratio_windows = ratio_.windows_finalized();
  r.windowed_ratio_max = ratio_.ratio_max();
  r.windowed_ratio_mean = ratio_.ratio_stats().mean();
  r.commit_hash = commit_hash_;
  r.latency = latency_;
  return r;
}

std::unique_ptr<StreamRunner> make_stream_runner(const Network& net,
                                                 const RunSpec& spec) {
  StreamConfig cfg = Registry::make_stream_config(spec.stream, spec.seed);
  const FaultPlan fault = Registry::make_fault_plan(spec.fault, spec.seed);
  auto scheduler =
      Registry::make_scheduler(spec.scheduler, net, &fault, spec.threads);

  EngineOptions eopts;
  eopts.latency_factor = spec.latency_factor;
  if (spec.scheduler.kind == "dist-bucket")
    eopts.latency_factor = std::max<std::int64_t>(eopts.latency_factor, 2);
  eopts.fault = fault;
  eopts.threads = spec.threads;

  auto source = make_stream_source(net, cfg);
  return std::make_unique<StreamRunner>(net, std::move(source),
                                        std::move(scheduler), std::move(cfg),
                                        eopts);
}

}  // namespace dtm
