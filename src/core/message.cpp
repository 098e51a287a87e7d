#include "core/message.hpp"

#include <sstream>

namespace psc {

Message make_message(std::string kind, std::vector<Value> fields) {
  Message m;
  m.kind = std::move(kind);
  m.fields = std::move(fields);
  return m;
}

std::string to_string(const Message& m) {
  std::ostringstream os;
  os << m.kind << to_string(m.fields) << "#" << m.uid;
  if (m.clock_tag != kNoClockTag) os << "@c=" << format_time(m.clock_tag);
  return os.str();
}

}  // namespace psc
