#include "batch/bucket_insertion.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace dtm {

namespace {

// Stream salts: probes and activation trials must never share a stream
// even when they fingerprint the same problem.
constexpr std::uint64_t kProbeSalt = 0xB0CC37F257A11D01ULL;
constexpr std::uint64_t kTrialSalt = 0xAC71DA7E5EEDBEEFULL;

constexpr std::uint64_t kBasis = 1469598103934665603ULL;

/// Cap before the memo is dropped wholesale. Entries are never invalid
/// (the key fully determines the value), so eviction is purely a memory
/// bound and a full clear is the cheapest correct policy.
constexpr std::size_t kMemoCap = std::size_t{1} << 16;

std::uint64_t row_hash(const BatchTxn& t) {
  std::uint64_t h = hash_mix(0x517E0FULL);
  h = hash_combine(h, static_cast<std::uint64_t>(t.id));
  h = hash_combine(h, static_cast<std::uint64_t>(t.node));
  for (const ObjId o : t.objects)
    h = hash_combine(h, static_cast<std::uint64_t>(o));
  return h;
}

std::uint64_t avail_chain(std::uint64_t h, const BatchObject& o, Time now) {
  h = hash_combine(h, static_cast<std::uint64_t>(o.id));
  h = hash_combine(h, static_cast<std::uint64_t>(o.node));
  h = hash_combine(h, static_cast<std::uint64_t>(o.ready - now));
  h = hash_combine(h, o.from_txn ? 1u : 0u);
  return h;
}

std::uint64_t finish_fp(std::uint64_t txn_fp, std::uint64_t avail_fp,
                        std::int64_t latency_factor) {
  return hash_combine(hash_combine(txn_fp, avail_fp),
                      static_cast<std::uint64_t>(latency_factor));
}

}  // namespace

std::uint64_t problem_fingerprint(const BatchProblem& p) {
  std::uint64_t txn_fp = kBasis;
  for (const BatchTxn& t : p.txns) txn_fp = hash_combine(txn_fp, row_hash(t));
  std::uint64_t avail_fp = kBasis;
  for (const BatchObject& o : p.objects)
    avail_fp = avail_chain(avail_fp, o, p.now);
  return finish_fp(txn_fp, avail_fp, p.latency_factor);
}

Time estimate_fa_seeded(const BatchScheduler& a, const BatchProblem& p,
                        std::uint64_t seed) {
  Rng rng(seed);
  return estimate_fa(a, p, rng);
}

std::uint64_t probe_seed(std::uint64_t seed, std::uint64_t fp) {
  return derive_seed(seed, kProbeSalt, fp);
}

BucketInsertionCore::BucketInsertionCore(
    std::shared_ptr<const BatchScheduler> algo, std::uint64_t seed,
    std::int32_t threads, Audit* audit)
    : algo_(std::move(algo)), seed_(seed), threads_(threads), audit_(audit) {
  DTM_REQUIRE(algo_ != nullptr, "bucket insertion core needs a batch algo");
  DTM_REQUIRE(threads_ >= 0, "bucket insertion threads " << threads_);
}

void BucketInsertionCore::make_candidate(const SystemView& view,
                                         const Transaction& t,
                                         const ExtraAssignments& extra,
                                         Candidate& out) {
  out.id = t.id;
  out.row.id = t.id;
  out.row.node = t.node;
  out.row.objects = t.object_ids();
  std::sort(out.row.objects.begin(), out.row.objects.end());
  out.row.objects.erase(
      std::unique(out.row.objects.begin(), out.row.objects.end()),
      out.row.objects.end());
  out.row_hash = row_hash(out.row);

  out.avail.clear();
  lb_pts_.clear();
  const Time now = view.now();
  for (const ObjId o : out.row.objects) {
    const BatchObject bo = object_availability(view, o, extra);
    out.avail.push_back(bo);
    lb_pts_.push_back({bo.node, bo.ready - now, bo.from_txn});
  }
  out.lb = single_txn_lower_bound(t.node, lb_pts_, view.oracle(),
                                  view.latency_factor());
}

void BucketInsertionCore::ensure_fresh(const SystemView& view,
                                       CachedBucket& cb,
                                       const ExtraAssignments& extra) {
  if (cb.at_now == view.now() && cb.at_world == world_) return;
  ++stats_.refreshes;
  cb.p.oracle = &view.oracle();
  cb.p.latency_factor = view.latency_factor();
  cb.p.now = view.now();
  // Membership (and thus the object id set) is unchanged; only the
  // availability snapshot behind it can have moved.
  for (BatchObject& o : cb.p.objects)
    o = object_availability(view, o.id, extra);
  cb.at_now = view.now();
  cb.at_world = world_;
}

Time BucketInsertionCore::estimate(const BatchProblem& p, std::uint64_t fp) {
  ++stats_.probes;
  last_memo_hit_ = false;
  const auto it = memo_.find(fp);
  if (it != memo_.end()) {
    ++stats_.memo_hits;
    last_memo_hit_ = true;
    return it->second;
  }
  ++stats_.estimates;
  const Time f = estimate_fa_seeded(*algo_, p, probe_seed(seed_, fp));
  if (memo_.size() >= kMemoCap) memo_.clear();
  memo_.emplace(fp, f);
  return f;
}

Time BucketInsertionCore::probe_cached(const SystemView& view,
                                       CachedBucket& cb,
                                       const Candidate& cand,
                                       const ExtraAssignments& extra) {
  ensure_fresh(view, cb, extra);

  // Append the candidate in place: one transaction row plus its
  // not-yet-present objects, merged at their sorted positions. Rolled back
  // after the estimate; a successful insertion replays this permanently in
  // on_inserted.
  cb.p.txns.push_back(cand.row);
  probe_inserted_.clear();
  for (const BatchObject& bo : cand.avail) {
    const auto it = std::lower_bound(
        cb.p.objects.begin(), cb.p.objects.end(), bo.id,
        [](const BatchObject& a, ObjId b) { return a.id < b; });
    if (it != cb.p.objects.end() && it->id == bo.id) continue;
    probe_inserted_.push_back(
        static_cast<std::size_t>(it - cb.p.objects.begin()));
    cb.p.objects.insert(it, bo);
  }

  std::uint64_t avail_fp = kBasis;
  for (const BatchObject& o : cb.p.objects)
    avail_fp = avail_chain(avail_fp, o, cb.p.now);
  const std::uint64_t fp = finish_fp(hash_combine(cb.txn_fp, cand.row_hash),
                                     avail_fp, cb.p.latency_factor);
  const Time f = estimate(cb.p, fp);

  // Rollback, highest position first (recorded positions are strictly
  // increasing, so later erases cannot shift earlier ones).
  for (std::size_t k = probe_inserted_.size(); k-- > 0;)
    cb.p.objects.erase(cb.p.objects.begin() +
                       static_cast<std::ptrdiff_t>(probe_inserted_[k]));
  cb.p.txns.pop_back();
  return f;
}

std::int32_t BucketInsertionCore::choose_level(const SystemView& view,
                                               const Transaction& t,
                                               std::int32_t top,
                                               const LevelFn& levels,
                                               const ExtraAssignments& extra) {
  ++stats_.inserts;
  last_scan_.clear();
  make_candidate(view, t, extra, cand_);
  last_lb_ = cand_.lb;

  // Every feasible schedule of B_i ∪ {t} executes t no earlier than LB,
  // and estimate_fa majorizes the availability horizon, so all levels with
  // 2^i < LB fail the F_A test — skipping them is exact, not a heuristic
  // (the reference scan in tests/ref re-checks it on randomized workloads).
  const std::int32_t start =
      std::min(cand_.lb <= 1 ? 0 : ceil_log2_i64(cand_.lb), top);
  stats_.levels_skipped += start;

  std::int32_t chosen = top;  // over-horizon tail parks in the top bucket
  const unsigned par = resolve_threads(threads_);
  if (par > 1 && start < top) {
    chosen = choose_level_waves(view, start, top, levels, extra, par);
  } else {
    for (std::int32_t i = start; i <= top; ++i) {
      const LevelView lv = levels(i);
      CachedBucket& cb = cache_[lv.id];
      DTM_CHECK(cb.p.txns.size() == lv.members.size(),
                "bucket cache out of sync at level "
                    << i << ": " << cb.p.txns.size() << " cached vs "
                    << lv.members.size() << " members");
      const Time f = probe_cached(view, cb, cand_, extra);
      last_scan_.push_back({i, f, last_memo_hit_});
      if (f <= (Time{1} << i)) {
        chosen = i;
        break;
      }
    }
  }
  if (audit_ != nullptr) audit_->on_level(view, t, top, levels, extra, chosen);
  return chosen;
}

std::int32_t BucketInsertionCore::choose_level_waves(
    const SystemView& view, std::int32_t start, std::int32_t top,
    const LevelFn& levels, const ExtraAssignments& extra, unsigned par) {
  for (std::int32_t lo = start; lo <= top;
       lo += static_cast<std::int32_t>(par)) {
    const std::int32_t hi =
        std::min<std::int32_t>(lo + static_cast<std::int32_t>(par) - 1, top);
    const std::size_t n = static_cast<std::size_t>(hi - lo + 1);
    if (wave_.size() < n) wave_.resize(n);

    // Phase 1 (serial): materialize each level's probe problem — a copy of
    // the cached bucket with the candidate appended, so caches stay
    // untouched and workers never share a problem — and resolve memo hits.
    // The fingerprint is chained exactly as probe_cached chains it, so the
    // memo keys (and the derived estimate seeds) are path-invariant.
    wave_miss_.clear();
    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t i = lo + static_cast<std::int32_t>(j);
      const LevelView lv = levels(i);
      CachedBucket& cb = cache_[lv.id];
      DTM_CHECK(cb.p.txns.size() == lv.members.size(),
                "bucket cache out of sync at level "
                    << i << ": " << cb.p.txns.size() << " cached vs "
                    << lv.members.size() << " members");
      ensure_fresh(view, cb, extra);
      ProbeSlot& s = wave_[j];
      s.level = i;
      s.p.oracle = cb.p.oracle;
      s.p.latency_factor = cb.p.latency_factor;
      s.p.now = cb.p.now;
      s.p.txns = cb.p.txns;
      s.p.txns.push_back(cand_.row);
      s.p.objects = cb.p.objects;
      for (const BatchObject& bo : cand_.avail) {
        const auto it = std::lower_bound(
            s.p.objects.begin(), s.p.objects.end(), bo.id,
            [](const BatchObject& a, ObjId b) { return a.id < b; });
        if (it != s.p.objects.end() && it->id == bo.id) continue;
        s.p.objects.insert(it, bo);
      }
      std::uint64_t avail_fp = kBasis;
      for (const BatchObject& o : s.p.objects)
        avail_fp = avail_chain(avail_fp, o, s.p.now);
      s.fp = finish_fp(hash_combine(cb.txn_fp, cand_.row_hash), avail_fp,
                       s.p.latency_factor);
      ++stats_.probes;
      const auto mit = memo_.find(s.fp);
      s.memo_hit = mit != memo_.end();
      if (s.memo_hit) {
        ++stats_.memo_hits;
        s.f = mit->second;
      } else {
        wave_miss_.push_back(j);
      }
    }

    // Phase 2 (parallel): the misses run A concurrently. Estimates are
    // pure functions of (problem, derived seed), so speculative evaluation
    // of levels the serial scan would have skipped cannot change anything
    // but the stats.
    stats_.estimates += static_cast<std::int64_t>(wave_miss_.size());
    ThreadPool::shared().run(
        static_cast<std::int64_t>(wave_miss_.size()),
        [&](std::int64_t k) {
          ProbeSlot& s = wave_[wave_miss_[static_cast<std::size_t>(k)]];
          s.f = estimate_fa_seeded(*algo_, s.p, probe_seed(seed_, s.fp));
        },
        par, 1);

    // Phase 3 (serial, ascending): memoize the fresh estimates and stop at
    // the lowest fitting level — the same first-fit the serial scan takes.
    for (std::size_t j = 0; j < n; ++j) {
      const ProbeSlot& s = wave_[j];
      if (!s.memo_hit) {
        if (memo_.size() >= kMemoCap) memo_.clear();
        memo_.emplace(s.fp, s.f);
      }
      last_scan_.push_back({s.level, s.f, s.memo_hit});
      if (s.f <= (Time{1} << s.level)) return s.level;
    }
  }
  return top;
}

void BucketInsertionCore::on_inserted(const SystemView& view, BucketId id,
                                      const Transaction& t,
                                      const ExtraAssignments& extra) {
  if (cand_.id != t.id) make_candidate(view, t, extra, cand_);
  CachedBucket& cb = cache_[id];
  cb.p.oracle = &view.oracle();
  cb.p.latency_factor = view.latency_factor();
  ensure_fresh(view, cb, extra);
  ++stats_.appends;
  cb.p.txns.push_back(cand_.row);
  cb.txn_fp = hash_combine(cb.txn_fp, cand_.row_hash);
  for (const BatchObject& bo : cand_.avail) {
    const auto it = std::lower_bound(
        cb.p.objects.begin(), cb.p.objects.end(), bo.id,
        [](const BatchObject& a, ObjId b) { return a.id < b; });
    if (it != cb.p.objects.end() && it->id == bo.id) continue;
    cb.p.objects.insert(it, bo);
  }
}

const BatchProblem& BucketInsertionCore::activation_problem(
    const SystemView& view, BucketId id, std::span<const TxnId> members,
    const ExtraAssignments& extra) {
  ++stats_.activations;
  CachedBucket& cb = cache_[id];
  DTM_CHECK(cb.p.txns.size() == members.size(),
            "activation cache out of sync: " << cb.p.txns.size()
                                             << " cached vs "
                                             << members.size() << " members");
  cb.p.oracle = &view.oracle();
  cb.p.latency_factor = view.latency_factor();
  ensure_fresh(view, cb, extra);
  if (audit_ != nullptr) audit_->on_activation(view, members, extra, cb.p);
  return cb.p;
}

BatchResult BucketInsertionCore::run_activation(const BatchProblem& p,
                                                const BatchScheduler& runner,
                                                std::int32_t retries) {
  const std::uint64_t fp = problem_fingerprint(p);
  if (runner.randomized() && retries > 1 && resolve_threads(threads_) > 1) {
    // Trial r's schedule depends only on (seed_, fp, r) — batch schedulers
    // are const with thread-local scratch — so all retries evaluate
    // concurrently. Keeping the FIRST index achieving the minimum makespan
    // reproduces the serial strict-< scan's winner exactly.
    std::vector<BatchResult> trials = parallel_map<BatchResult>(
        retries,
        [&](std::int64_t r) {
          Rng trial(derive_seed(seed_, kTrialSalt, fp,
                                static_cast<std::uint64_t>(r)));
          return runner.schedule(p, trial);
        },
        resolve_threads(threads_));
    std::size_t best = 0;
    for (std::size_t r = 1; r < trials.size(); ++r)
      if (trials[r].makespan < trials[best].makespan) best = r;
    return std::move(trials[best]);
  }
  Rng rng(derive_seed(seed_, kTrialSalt, fp, 0));
  BatchResult best = runner.schedule(p, rng);
  if (runner.randomized()) {
    for (std::int32_t r = 1; r < retries; ++r) {
      Rng trial(derive_seed(seed_, kTrialSalt, fp,
                            static_cast<std::uint64_t>(r)));
      BatchResult alt = runner.schedule(p, trial);
      if (alt.makespan < best.makespan) best = std::move(alt);
    }
  }
  return best;
}

void BucketInsertionCore::on_drained(BucketId id) { cache_.erase(id); }

}  // namespace dtm
