// Zero-allocation regression pins for the messaging hot path (PERF.md §8),
// the batch layer's chain walks (PERF.md §11) and the ratio windows' lower
// bound (PERF.md §12).
//
// Built with -DDTM_ALLOC_TRACK=ON these tests assert, via the counting
// operator new/delete hooks, that the steady-state send → drain loop — the
// shape dist-bucket's pump_messages drives every step — performs ZERO heap
// allocations once warmed up: wheel slots, drain scratch, and the reply
// pool all retain capacity. Without the option the hooks read zero and the
// assertions are skipped (the loops still run as smoke).
//
// An exact-zero pin needs the per-slot load pattern to be PERIODIC with a
// period dividing the ring size: slot s serves times s, s + kSlots, ...,
// so its capacity record stabilizes only once it has seen its maximum
// load, and a pattern with period p | kSlots shows every slot its full
// load set within one warmed turn. (Randomized traffic keeps setting rare
// new per-slot records forever — allocs/step tends to zero but never
// pins; bench_memory measures that asymptotic profile.) The traffic below
// therefore derives everything from `now` through power-of-two masks.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "core/lower_bound.hpp"
#include "dist/bus.hpp"
#include "net/topology.hpp"
#include "util/alloc.hpp"
#include "util/timing_wheel.hpp"

namespace dtm {
namespace {

constexpr Time kWarmupSteps =
    2 * static_cast<Time>(TimingWheel<Message>::kSlots);
constexpr Time kMeasuredSteps = 512;

TEST(AllocPin, TimingWheelScheduleDrainLoopIsAllocationFree) {
  TimingWheel<std::int64_t> wheel;
  std::vector<std::int64_t> scratch;
  const auto step = [&](Time now) {
    for (int i = 0; i < 4; ++i)  // period-8 offset pattern, 8 | kSlots
      wheel.schedule(now + ((now + i * 5) & 7), now + i);
    scratch.clear();
    wheel.drain_until(now, scratch);
  };
  Time now = 0;
  for (; now < kWarmupSteps; ++now) step(now);

  AllocScope scope;
  for (; now < kWarmupSteps + kMeasuredSteps; ++now) step(now);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(scope.allocs(), 0)
      << "timing-wheel steady state allocated ("
      << scope.allocs() << " allocs / " << kMeasuredSteps << " steps)";
  EXPECT_EQ(scope.bytes(), 0);
}

TEST(AllocPin, BusSendDrainLoopIsAllocationFree) {
  // The dist-bucket messaging step: a few probes, replies (inline user
  // lists), and reports per step, drained into persistent scratch.
  const Network net = make_line(10);
  MessageBus bus(*net.oracle);
  std::vector<Message> scratch;
  const auto step = [&](Time now) {
    // Deterministic period-16 endpoint pattern (16 | kSlots), so delivery
    // times now + dist repeat per slot and capacities pin after warmup.
    int pick = 0;
    const auto node = [&] {
      const int k = pick++;
      return static_cast<NodeId>(((now >> (k & 3)) + k + 1) & 7);
    };
    bus.send(node(), node(), now,
             ProbeMsg{static_cast<TxnId>(now), node(), 3, 0, now, 0});
    ReplyMsg reply;
    reply.requester = static_cast<TxnId>(now);
    reply.object = 3;
    reply.object_node = node();
    reply.object_free_at = now + 5;
    for (int u = 0; u < 4; ++u)  // within ReplyUsers inline capacity
      reply.users.emplace_back(static_cast<TxnId>(now + u), node());
    bus.send(node(), node(), now, std::move(reply));
    bus.send(node(), node(), now, ReportMsg{static_cast<TxnId>(now), 0});
    bus.drain_into(now, scratch);
  };
  Time now = 0;
  for (; now < kWarmupSteps; ++now) step(now);

  AllocScope scope;
  for (; now < kWarmupSteps + kMeasuredSteps; ++now) step(now);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(scope.allocs(), 0)
      << "bus send->drain steady state allocated ("
      << scope.allocs() << " allocs / " << kMeasuredSteps << " steps)";
  EXPECT_EQ(scope.bytes(), 0);
}

TEST(AllocPin, SpilledReplyPoolRoundTripIsAllocationFree) {
  // Replies whose user lists exceed the inline capacity spill to the heap;
  // dist-bucket parks those buffers in a pool and revives them for the next
  // reply. Once every pooled buffer has warmed to the working size, the
  // round trip must not touch the allocator (SmallVector's move-assign
  // reuses the revived buffer's capacity).
  const Network net = make_line(10);
  MessageBus bus(*net.oracle);
  std::vector<Message> scratch;
  std::vector<ReplyUsers> pool;
  const std::size_t spill =
      2 * ReplyUsers::inline_capacity();  // forces heap storage
  const auto step = [&](Time now) {
    ReplyMsg reply;
    reply.requester = static_cast<TxnId>(now);
    reply.object = 1;
    if (!pool.empty()) {
      reply.users = std::move(pool.back());
      pool.pop_back();
      reply.users.clear();
    }
    for (std::size_t u = 0; u < spill; ++u)
      reply.users.emplace_back(static_cast<TxnId>(now + static_cast<Time>(u)),
                               static_cast<NodeId>(u % 8));
    // Period-16 endpoints (16 | kSlots) — see the header comment.
    bus.send(static_cast<NodeId>(now & 7),
             static_cast<NodeId>((now >> 1) & 7), now, std::move(reply));
    bus.drain_into(now, scratch);
    for (Message& m : scratch) {
      auto* r = std::get_if<ReplyMsg>(&m.payload);
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->users.size(), spill);
      if (r->users.spilled() && pool.size() < 16)
        pool.push_back(std::move(r->users));
    }
  };
  Time now = 0;
  for (; now < kWarmupSteps; ++now) step(now);

  AllocScope scope;
  for (; now < kWarmupSteps + kMeasuredSteps; ++now) step(now);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(scope.allocs(), 0)
      << "pooled spilled-reply loop allocated (" << scope.allocs()
      << " allocs / " << kMeasuredSteps << " steps)";
}

// A fixed batch problem of the bucket probes' shape: sparse object ids,
// each txn using two or three of them.
BatchProblem walk_problem(const Network& net) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 5;
  for (ObjId o = 0; o < 24; ++o)
    p.objects.push_back({o * 9973 + 11, static_cast<NodeId>(o % 16),
                         5 + o % 4, o % 3 == 0});
  for (TxnId t = 0; t < 96; ++t) {
    BatchTxn bt{t * 5 + 3, static_cast<NodeId>((t * 7) % 16), {}};
    for (std::int64_t k = 0; k < 2 + t % 2; ++k)
      bt.objects.push_back(p.objects[static_cast<std::size_t>(
                                         (t * 5 + k * 7) % 24)].id);
    p.txns.push_back(std::move(bt));
  }
  return p;
}

std::vector<std::size_t> reversed_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = n - 1 - i;
  return order;
}

TEST(AllocPin, CheckBatchResultIsAllocationFree) {
  // check_batch_result runs on every batch result (every F_A estimate of
  // a bucket insertion): once its thread_local tables are warm it must not
  // touch the allocator.
  const Network net = make_line(16);
  const BatchProblem p = walk_problem(net);
  const BatchResult r = chain_evaluate(p, reversed_order(p.txns.size()));
  check_batch_result(p, r);  // warm-up

  constexpr int kCalls = 64;
  AllocScope scope;
  for (int i = 0; i < kCalls; ++i) check_batch_result(p, r);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(scope.allocs(), 0)
      << "check_batch_result allocated (" << scope.allocs() << " allocs / "
      << kCalls << " calls)";
}

TEST(AllocPin, ChainEvaluateAllocatesOnlyItsResult) {
  // A validated chain walk allocates exactly once: the result's
  // assignments. Cursors, the id -> slot tables and the check's scratch
  // are thread_local and warm.
  const Network net = make_line(16);
  const BatchProblem p = walk_problem(net);
  const std::vector<std::size_t> order = reversed_order(p.txns.size());
  (void)chain_evaluate(p, order);  // warm-up

  constexpr int kCalls = 64;
  AllocScope scope;
  Time sum = 0;
  for (int i = 0; i < kCalls; ++i) sum += chain_evaluate(p, order).makespan;
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_GT(sum, 0);
  EXPECT_EQ(scope.allocs(), kCalls)
      << "chain_evaluate allocated " << scope.allocs() << " times in "
      << kCalls << " calls";
}

TEST(AllocPin, MakespanLowerBoundIsAllocationFreeWhenWarm) {
  // Every closed ratio window runs the lower bound over its uses buffer:
  // once its thread_local scratch is warm (origin table, counting-sort
  // arrays, spread sample) a call must not touch the allocator. Object 0
  // has > 512 users, so the sampled spread path runs too.
  const Network net = make_line(16);
  std::vector<ObjectOrigin> origins;
  for (ObjId o = 0; o < 24; ++o)
    origins.push_back({o * 7 + 2, static_cast<NodeId>(o % 16), o % 3});
  std::vector<ObjectUse> uses;
  for (std::int32_t i = 0; i < 900; ++i) {
    const auto node = static_cast<NodeId>((i * 5) % 16);
    uses.push_back({origins[0].id, node});
    uses.push_back({origins[static_cast<std::size_t>(i % 24)].id, node});
  }
  const LowerBoundBreakdown warm =
      makespan_lower_bound(uses, origins, *net.oracle, 2);

  constexpr int kCalls = 64;
  AllocScope scope;
  Time sum = 0;
  for (int i = 0; i < kCalls; ++i)
    sum += makespan_lower_bound(uses, origins, *net.oracle, 2).best();
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(sum, kCalls * warm.best());
  EXPECT_EQ(scope.allocs(), 0)
      << "makespan_lower_bound allocated (" << scope.allocs() << " allocs / "
      << kCalls << " calls)";
}

TEST(AllocPin, CountersAgreeWithTrackingMode) {
  // Sanity on the hooks themselves: when tracking is on, an explicit heap
  // allocation is visible in the thread counters; when off, everything
  // reads zero and enabled() says so.
  AllocScope scope;
  // Direct operator-new call: new-expression elision rules don't apply, so
  // the optimizer cannot drop the allocation.
  void* p = ::operator new(256);
  const std::int64_t seen = scope.allocs();
  ::operator delete(p);
  if (alloc_tracking_enabled()) {
    EXPECT_GE(seen, 1);
    EXPECT_GE(scope.delta().frees, 1);
    const AllocCounters global = global_alloc_counters();
    EXPECT_GE(global.allocs, thread_alloc_counters().allocs);
  } else {
    EXPECT_EQ(seen, 0);
    EXPECT_EQ(thread_alloc_counters().allocs, 0);
    EXPECT_EQ(global_alloc_counters().allocs, 0);
  }
}

}  // namespace
}  // namespace dtm
