#include "core/trace_io.hpp"

#include <cctype>
#include <sstream>
#include <string_view>

#include "util/check.hpp"

namespace psc {

namespace {

// Escapes spaces/backslashes/colons in strings so tokens stay whitespace-
// separated and field-separators unambiguous.
std::string escape(std::string_view s) {
  std::string out;
  for (const char ch : s) {
    switch (ch) {
      case ' ':
        out += "\\_";
        break;
      case '\\':
        out += "\\\\";
        break;
      case ':':
        out += "\\;";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    PSC_CHECK(i + 1 < s.size(), "dangling escape in trace text");
    switch (s[++i]) {
      case '_':
        out += ' ';
        break;
      case '\\':
        out += '\\';
        break;
      case ';':
        out += ':';
        break;
      case 'n':
        out += '\n';
        break;
      default:
        PSC_CHECK(false, "unknown escape \\" << s[i]);
    }
  }
  return out;
}

void write_value(std::ostream& os, const Value& v) {
  std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          os << " u:";
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          os << " a:" << x;
        } else if constexpr (std::is_same_v<T, double>) {
          os << " f:" << x;
        } else {
          os << " s:" << escape(x);
        }
      },
      v);
}

Value parse_value(const std::string& tok) {
  PSC_CHECK(tok.size() >= 2 && tok[1] == ':', "bad value token " << tok);
  const std::string body = tok.substr(2);
  switch (tok[0]) {
    case 'u':
      return Value{};
    case 'a':
      return Value{static_cast<std::int64_t>(std::stoll(body))};
    case 'f':
      return Value{std::stod(body)};
    case 's':
      return Value{unescape(body)};
    default:
      PSC_CHECK(false, "unknown value tag in " << tok);
  }
  return Value{};
}

}  // namespace

void write_trace(std::ostream& os, const TimedTrace& trace) {
  for (const auto& e : trace) {
    os << e.time << ' ';
    if (e.clock == kNoClockTag) {
      os << "- ";
    } else {
      os << e.clock << ' ';
    }
    if (e.owner < 0) {
      os << "- ";
    } else {
      os << e.owner << ' ';
    }
    os << (e.visible ? 'V' : 'H') << ' ' << escape(e.action.name) << ' ';
    if (e.action.node == kNoNode) {
      os << "- ";
    } else {
      os << e.action.node << ' ';
    }
    if (e.action.peer == kNoNode) {
      os << '-';
    } else {
      os << e.action.peer;
    }
    for (const auto& v : e.action.args) write_value(os, v);
    if (e.action.msg) {
      const auto& m = *e.action.msg;
      os << " m:" << escape(m.kind) << ':' << m.uid << ':';
      if (m.clock_tag == kNoClockTag) {
        os << '-';
      } else {
        os << m.clock_tag;
      }
      for (const auto& f : m.fields) {
        os << ':';
        std::ostringstream tmp;
        write_value(tmp, f);
        os << escape(tmp.str().substr(1));  // drop the leading space
      }
    }
    os << '\n';
  }
}

std::string trace_to_text(const TimedTrace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

TimedTrace read_trace(std::istream& is) {
  TimedTrace out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    TimedEvent e;
    std::string tok;
    ls >> tok;
    e.time = std::stoll(tok);
    ls >> tok;
    e.clock = tok == "-" ? kNoClockTag : std::stoll(tok);
    ls >> tok;
    e.owner = tok == "-" ? -1 : std::stoi(tok);
    ls >> tok;
    PSC_CHECK(tok == "V" || tok == "H", "bad visibility " << tok);
    e.visible = tok == "V";
    ls >> tok;
    e.action.name = unescape(tok);
    ls >> tok;
    e.action.node = tok == "-" ? kNoNode : std::stoi(tok);
    ls >> tok;
    e.action.peer = tok == "-" ? kNoNode : std::stoi(tok);
    while (ls >> tok) {
      if (tok.rfind("m:", 0) == 0) {
        // m:<kind>:<uid>:<tag|->[:field...]
        std::vector<std::string> parts;
        std::string cur;
        // escape() replaced every literal ':' with "\\;", so every ':'
        // remaining in the token is a separator.
        for (std::size_t i = 2; i <= tok.size(); ++i) {
          if (i == tok.size() || tok[i] == ':') {
            parts.push_back(cur);
            cur.clear();
          } else {
            cur += tok[i];
          }
        }
        PSC_CHECK(parts.size() >= 3, "bad message token " << tok);
        Message m;
        m.kind = unescape(parts[0]);
        m.uid = std::stoull(parts[1]);
        m.clock_tag = parts[2] == "-" ? kNoClockTag : std::stoll(parts[2]);
        for (std::size_t k = 3; k < parts.size(); ++k) {
          m.fields.push_back(parse_value(unescape(parts[k])));
        }
        e.action.msg = std::move(m);
      } else {
        e.action.args.push_back(parse_value(tok));
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

TimedTrace trace_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

// --- JSONL form --------------------------------------------------------------

namespace {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xf] << hex[ch & 0xf];
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void write_json_value(std::ostream& os, const Value& v) {
  std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          os << "{\"u\":null}";
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          os << "{\"i\":" << x << '}';
        } else if constexpr (std::is_same_v<T, double>) {
          os << "{\"f\":" << x << '}';
        } else {
          os << "{\"s\":";
          write_json_string(os, x);
          os << '}';
        }
      },
      v);
}

// A pointer-walking parser for the restricted JSON that write_trace_jsonl
// emits (no nested objects beyond the fixed schema, no unicode surrogates).
struct JsonCursor {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  }
  bool eat(char c) {
    skip_ws();
    if (p != end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  void expect(char c) {
    PSC_CHECK(eat(c), "trace JSONL: expected '" << c << "'");
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (p != end && *p != '"') {
      char ch = *p++;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      PSC_CHECK(p != end, "trace JSONL: dangling escape");
      switch (*p++) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          PSC_CHECK(end - p >= 4, "trace JSONL: short \\u escape");
          int v = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = *p++;
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              v |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              v |= h - 'A' + 10;
            } else {
              PSC_CHECK(false, "trace JSONL: bad \\u digit " << h);
            }
          }
          PSC_CHECK(v < 0x80, "trace JSONL: non-ASCII \\u escape");
          out += static_cast<char>(v);
          break;
        }
        default:
          PSC_CHECK(false, "trace JSONL: unknown escape");
      }
    }
    expect('"');
    return out;
  }
  // Numbers in this schema are int64 or decimal doubles.
  Value parse_number() {
    skip_ws();
    const char* start = p;
    if (p != end && (*p == '-' || *p == '+')) ++p;
    bool is_float = false;
    while (p != end && (std::isdigit(static_cast<unsigned char>(*p)) != 0 ||
                        *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                        *p == '+')) {
      if (*p == '.' || *p == 'e' || *p == 'E') is_float = true;
      ++p;
    }
    PSC_CHECK(p != start, "trace JSONL: expected a number");
    const std::string tok(start, p);
    if (is_float) return Value{std::stod(tok)};
    return Value{static_cast<std::int64_t>(std::stoll(tok))};
  }
  std::int64_t parse_int() {
    const Value v = parse_number();
    PSC_CHECK(std::holds_alternative<std::int64_t>(v),
              "trace JSONL: expected an integer");
    return std::get<std::int64_t>(v);
  }
  bool parse_bool() {
    skip_ws();
    if (end - p >= 4 && std::string_view(p, 4) == "true") {
      p += 4;
      return true;
    }
    if (end - p >= 5 && std::string_view(p, 5) == "false") {
      p += 5;
      return false;
    }
    PSC_CHECK(false, "trace JSONL: expected a boolean");
    return false;
  }
  void parse_null() {
    skip_ws();
    PSC_CHECK(end - p >= 4 && std::string_view(p, 4) == "null",
              "trace JSONL: expected null");
    p += 4;
  }
  // {"i":..}|{"f":..}|{"s":..}|{"u":null}
  Value parse_tagged_value() {
    expect('{');
    const std::string tag = parse_string();
    expect(':');
    Value v;
    if (tag == "i" || tag == "f") {
      v = parse_number();
      if (tag == "f" && std::holds_alternative<std::int64_t>(v)) {
        v = Value{static_cast<double>(std::get<std::int64_t>(v))};
      }
    } else if (tag == "s") {
      v = Value{parse_string()};
    } else if (tag == "u") {
      parse_null();
    } else {
      PSC_CHECK(false, "trace JSONL: unknown value tag \"" << tag << '"');
    }
    expect('}');
    return v;
  }
};

}  // namespace

void write_trace_jsonl(std::ostream& os, const TimedTrace& trace) {
  for (const auto& e : trace) {
    os << "{\"time\":" << e.time;
    if (e.clock != kNoClockTag) os << ",\"clock\":" << e.clock;
    if (e.owner >= 0) os << ",\"owner\":" << e.owner;
    os << ",\"visible\":" << (e.visible ? "true" : "false") << ",\"name\":";
    write_json_string(os, e.action.name);
    if (e.action.node != kNoNode) os << ",\"node\":" << e.action.node;
    if (e.action.peer != kNoNode) os << ",\"peer\":" << e.action.peer;
    if (!e.action.args.empty()) {
      os << ",\"args\":[";
      for (std::size_t i = 0; i < e.action.args.size(); ++i) {
        if (i != 0) os << ',';
        write_json_value(os, e.action.args[i]);
      }
      os << ']';
    }
    if (e.action.msg) {
      const auto& m = *e.action.msg;
      os << ",\"msg\":{\"kind\":";
      write_json_string(os, m.kind);
      os << ",\"uid\":" << m.uid;
      if (m.clock_tag != kNoClockTag) os << ",\"tag\":" << m.clock_tag;
      if (!m.fields.empty()) {
        os << ",\"fields\":[";
        for (std::size_t i = 0; i < m.fields.size(); ++i) {
          if (i != 0) os << ',';
          write_json_value(os, m.fields[i]);
        }
        os << ']';
      }
      os << '}';
    }
    os << "}\n";
  }
}

TimedTrace read_trace_jsonl(std::istream& is) {
  TimedTrace out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonCursor c{line.data(), line.data() + line.size()};
    TimedEvent e;
    c.expect('{');
    bool first = true;
    while (!c.eat('}')) {
      if (!first) c.expect(',');
      first = false;
      const std::string key = c.parse_string();
      c.expect(':');
      if (key == "time") {
        e.time = c.parse_int();
      } else if (key == "clock") {
        e.clock = c.parse_int();
      } else if (key == "owner") {
        e.owner = static_cast<int>(c.parse_int());
      } else if (key == "visible") {
        e.visible = c.parse_bool();
      } else if (key == "name") {
        e.action.name = c.parse_string();
      } else if (key == "node") {
        e.action.node = static_cast<int>(c.parse_int());
      } else if (key == "peer") {
        e.action.peer = static_cast<int>(c.parse_int());
      } else if (key == "args") {
        c.expect('[');
        if (!c.eat(']')) {
          do {
            e.action.args.push_back(c.parse_tagged_value());
          } while (c.eat(','));
          c.expect(']');
        }
      } else if (key == "msg") {
        Message m;
        c.expect('{');
        bool mfirst = true;
        while (!c.eat('}')) {
          if (!mfirst) c.expect(',');
          mfirst = false;
          const std::string mkey = c.parse_string();
          c.expect(':');
          if (mkey == "kind") {
            m.kind = c.parse_string();
          } else if (mkey == "uid") {
            m.uid = static_cast<std::uint64_t>(c.parse_int());
          } else if (mkey == "tag") {
            m.clock_tag = c.parse_int();
          } else if (mkey == "fields") {
            c.expect('[');
            if (!c.eat(']')) {
              do {
                m.fields.push_back(c.parse_tagged_value());
              } while (c.eat(','));
              c.expect(']');
            }
          } else {
            PSC_CHECK(false, "trace JSONL: unknown msg key \"" << mkey << '"');
          }
        }
        e.action.msg = std::move(m);
      } else {
        PSC_CHECK(false, "trace JSONL: unknown key \"" << key << '"');
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

TimedTrace read_trace_any(std::istream& is) {
  // Sniff the first non-whitespace byte without consuming it.
  int ch = is.peek();
  while (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
    is.get();
    ch = is.peek();
  }
  if (ch == '{') return read_trace_jsonl(is);
  return read_trace(is);
}

}  // namespace psc
