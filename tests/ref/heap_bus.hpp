// ReferenceHeapBus — the pre-wheel MessageBus, frozen as a test oracle.
//
// An allocating (deliver, seq) std::priority_queue popped one message at a
// time. The wheel-backed dist::MessageBus claims the same pop order byte
// for byte; tests/bus_equivalence_test.cpp fuzzes the two against each
// other. Not used by any scheduler.
#pragma once

#include <queue>
#include <vector>

#include "dist/bus.hpp"

namespace dtm {

class ReferenceHeapBus : public EventSource {
 public:
  explicit ReferenceHeapBus(const DistanceOracle& oracle) : oracle_(&oracle) {}
  ~ReferenceHeapBus() override = default;

  void send(NodeId from, NodeId to, Time now, Payload payload);
  void drain_into(Time now, std::vector<Message>& out);
  [[nodiscard]] Time next_delivery() const;
  [[nodiscard]] Time next_event_time() const override {
    return next_delivery();
  }
  [[nodiscard]] std::int64_t messages_sent() const { return sent_; }

 protected:
  void deliver_at(NodeId from, NodeId to, Time sent, Time deliver,
                  Payload payload);

 private:
  struct Later {
    bool operator()(const Message& a, const Message& b) const {
      if (a.deliver != b.deliver) return a.deliver > b.deliver;
      return a.seq > b.seq;
    }
  };

  const DistanceOracle* oracle_;
  std::priority_queue<Message, std::vector<Message>, Later> queue_;
  std::int64_t seq_ = 0;
  std::int64_t sent_ = 0;
};

}  // namespace dtm
