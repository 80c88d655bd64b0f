// Generic offline batch scheduler: Lemma 1 greedy coloring applied to the
// batch conflict graph. This is the "direct approach" of §III used offline;
// near-optimal on low-diameter graphs (clique: O(k) of optimal, matching
// Theorem 3's argument).
#include <algorithm>
#include <numeric>

#include "batch/batch_scheduler.hpp"
#include "core/coloring.hpp"

namespace dtm {

namespace {

class ColoringBatch final : public BatchScheduler {
 public:
  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng&) const override {
    const std::size_t n = p.txns.size();
    // Scratch arena: this scheduler is the workhorse behind every bucket
    // F_A probe on generic topologies, so the per-call map/set churn of the
    // original transcription dominated insertion cost. All buffers persist
    // across calls; output is unchanged.
    Scratch& s = scratch();

    // Availability floor per transaction: the object must be able to reach
    // it from its availability point. One-sided (the object simply does not
    // exist for us before `ready`), hence a floor rather than a gap.
    index_objects(p, s.slot_of);
    s.floor.assign(n, 0);
    s.user_start.assign(p.objects.size() + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const BatchTxn& t = p.txns[i];
      for (const ObjId o : t.objects) {
        const std::int32_t k = s.slot_of.find(o);
        DTM_CHECK(k >= 0, "batch problem missing object " << o);
        const BatchObject& avail = p.objects[static_cast<std::size_t>(k)];
        Time arrive = (avail.ready - p.now) + p.travel(avail.node, t.node);
        if (avail.from_txn) arrive = std::max(arrive, avail.ready - p.now + 1);
        s.floor[i] = std::max(s.floor[i], std::max<Time>(arrive, 0));
        ++s.user_start[static_cast<std::size_t>(k) + 1];
      }
    }
    // Flat user lists by object slot (counting sort): each object's users
    // are contiguous in ascending index order.
    for (std::size_t k = 1; k < s.user_start.size(); ++k)
      s.user_start[k] += s.user_start[k - 1];
    s.fill.assign(s.user_start.begin(), s.user_start.end() - 1);
    s.users.resize(s.user_start.back());
    for (std::size_t i = 0; i < n; ++i)
      for (const ObjId o : p.txns[i].objects)
        s.users[s.fill[static_cast<std::size_t>(s.slot_of.find(o))]++] = i;

    // Ascending-floor visiting order (cheap transactions commit early — the
    // property the online greedy schedule also has), ties by txn id.
    s.order.resize(n);
    std::iota(s.order.begin(), s.order.end(), 0);
    std::stable_sort(s.order.begin(), s.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (s.floor[a] != s.floor[b])
                         return s.floor[a] < s.floor[b];
                       return p.txns[a].id < p.txns[b].id;
                     });

    s.color.assign(n, kNoTime);
    s.seen_tick.assign(n, 0);
    std::size_t tick = 0;
    BatchResult r;
    r.assignments.resize(n);
    for (const std::size_t i : s.order) {
      s.cs.clear();
      ++tick;
      for (const ObjId o : p.txns[i].objects) {
        const auto k = static_cast<std::size_t>(s.slot_of.find(o));
        for (std::size_t u = s.user_start[k]; u < s.user_start[k + 1]; ++u) {
          const std::size_t j = s.users[u];
          if (j == i || s.color[j] == kNoTime || s.seen_tick[j] == tick)
            continue;
          s.seen_tick[j] = tick;
          s.cs.push_back(
              {s.color[j],
               std::max<Weight>(1, p.travel(p.txns[j].node, p.txns[i].node))});
        }
      }
      s.color[i] = min_feasible_color(s.cs, s.floor[i]);
      r.assignments[i] = {p.txns[i].id, p.now + s.color[i]};
      r.makespan = std::max(r.makespan, s.color[i]);
    }
    check_batch_result(p, r);
    return r;
  }

  [[nodiscard]] std::string name() const override { return "coloring"; }

 private:
  struct Scratch {
    IdIndex<ObjId> slot_of;  ///< object id -> position in p.objects
    std::vector<Time> floor;
    std::vector<std::size_t> user_start;  ///< per slot, into `users`
    std::vector<std::size_t> fill;
    std::vector<std::size_t> users;  ///< txn indices grouped by slot
    std::vector<std::size_t> order;
    std::vector<Time> color;
    std::vector<ColorConstraint> cs;
    std::vector<std::size_t> seen_tick;  ///< dedup marker, epoch = tick
  };
  static Scratch& scratch() {
    static thread_local Scratch s;
    return s;
  }
};

}  // namespace

std::unique_ptr<BatchScheduler> make_coloring_batch() {
  return std::make_unique<ColoringBatch>();
}

}  // namespace dtm
