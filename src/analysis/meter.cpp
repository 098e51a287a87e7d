#include "analysis/meter.hpp"

namespace psc {

void WindowMeter::deliver(const TimedEvent& e, MsgClass cls, Delivery& d) {
  const Message& msg = *e.action.msg;
  d.uid = msg.uid;
  switch (cls) {
    case MsgClass::kSend:
      msgs_[d.uid].send_time = e.time;
      break;
    case MsgClass::kESend: {
      MsgRecord& r = msgs_[d.uid];
      r.esend_time = e.time;
      if (msg.clock_tag != kNoClockTag) r.tag = msg.clock_tag;
      break;
    }
    case MsgClass::kERecv: {
      MsgRecord* r = msgs_.find(d.uid);
      if (r == nullptr || r->esend_time < 0) {
        d.leg = Delivery::Leg::kUnmatched;
        break;
      }
      if (msg.clock_tag != kNoClockTag) r->tag = msg.clock_tag;
      d.leg = Delivery::Leg::kPhysical;
      d.latency = e.time - r->esend_time;
      break;
    }
    case MsgClass::kRecv: {
      const MsgRecord* r = msgs_.find(d.uid);
      if (r == nullptr || (r->send_time < 0 && r->esend_time < 0)) {
        d.leg = Delivery::Leg::kUnmatched;
      } else if (r->esend_time < 0) {
        d.leg = Delivery::Leg::kTimed;
        d.latency = e.time - r->send_time;
      } else if (r->tag != kNoClockTag && e.clock != kNoClockTag) {
        d.leg = Delivery::Leg::kRelease;
        d.latency = e.clock - r->tag;
        d.tag = r->tag;
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace psc
