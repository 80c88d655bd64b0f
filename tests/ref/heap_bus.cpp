#include "ref/heap_bus.hpp"

namespace dtm {

void ReferenceHeapBus::send(NodeId from, NodeId to, Time now,
                            Payload payload) {
  deliver_at(from, to, now, now + oracle_->dist(from, to),
             std::move(payload));
}

void ReferenceHeapBus::deliver_at(NodeId from, NodeId to, Time sent,
                                  Time deliver, Payload payload) {
  DTM_REQUIRE(deliver >= sent, "bus delivery at " << deliver
                                                  << " before send " << sent);
  Message m;
  m.from = from;
  m.to = to;
  m.sent = sent;
  m.deliver = deliver;
  m.seq = seq_++;
  m.payload = std::move(payload);
  ++sent_;
  queue_.push(std::move(m));
}

void ReferenceHeapBus::drain_into(Time now, std::vector<Message>& out) {
  out.clear();
  while (!queue_.empty() && queue_.top().deliver <= now) {
    out.push_back(queue_.top());
    queue_.pop();
  }
}

Time ReferenceHeapBus::next_delivery() const {
  return queue_.empty() ? kNoTime : queue_.top().deliver;
}

}  // namespace dtm
