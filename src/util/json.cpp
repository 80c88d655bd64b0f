#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace dtm {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    DTM_REQUIRE(pos_ == s_.size(),
                "json: trailing garbage at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    DTM_REQUIRE(pos_ < s_.size(), "json: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    DTM_REQUIRE(peek() == c, "json: expected '" << c << "' at offset "
                                                << pos_ << ", got '"
                                                << s_[pos_] << "'");
    ++pos_;
  }

  bool consume(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        // Containers recurse, so hostile nesting would overflow the stack.
        DTM_REQUIRE(depth_ < Json::kMaxDepth,
                    "json: nesting deeper than " << Json::kMaxDepth
                                                 << " at offset " << pos_);
        ++depth_;
        Json v = s_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        DTM_REQUIRE(consume("true"), "json: bad literal at " << pos_);
        return Json(true);
      case 'f':
        DTM_REQUIRE(consume("false"), "json: bad literal at " << pos_);
        return Json(false);
      case 'n':
        DTM_REQUIRE(consume("null"), "json: bad literal at " << pos_);
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object o;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(o));
    }
    while (true) {
      DTM_REQUIRE(peek() == '"', "json: object key must be a string at "
                                     << pos_);
      std::string key = parse_string();
      expect(':');
      o.emplace(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(o));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array a;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(a));
    }
    while (true) {
      a.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(a));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      DTM_REQUIRE(pos_ < s_.size(), "json: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      DTM_REQUIRE(pos_ < s_.size(), "json: unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          DTM_REQUIRE(pos_ + 4 <= s_.size(), "json: bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              DTM_REQUIRE(false, "json: bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // spec names and labels are ASCII in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: DTM_REQUIRE(false, "json: bad escape '\\" << e << "'");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // Only exponent/fraction characters reach here (the leading minus
        // was consumed above), so the token is no longer integral.
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string tok = s_.substr(start, pos_ - start);
    DTM_REQUIRE(!tok.empty() && tok != "-",
                "json: bad number at offset " << start);
    try {
      if (integral) return Json(std::int64_t{std::stoll(tok)});
      return Json(std::stod(tok));
    } catch (const std::exception&) {
      DTM_REQUIRE(false, "json: unparseable number '" << tok << "'");
    }
    return Json();  // unreachable
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open containers around pos_
};

void escape_to(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void dump_to(std::ostream& os, const Json& v, int indent, int depth);

void newline_indent(std::ostream& os, int indent, int depth) {
  if (indent < 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

void dump_to(std::ostream& os, const Json& v, int indent, int depth) {
  if (v.is_null()) {
    os << "null";
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_int()) {
    os << v.as_int();
  } else if (v.is_number()) {
    const double d = v.as_double();
    DTM_REQUIRE(std::isfinite(d), "json: non-finite number");
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << d;
    os << tmp.str();
  } else if (v.is_string()) {
    escape_to(os, v.as_string());
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    if (a.empty()) {
      os << "[]";
      return;
    }
    os << '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) os << ',';
      newline_indent(os, indent, depth + 1);
      dump_to(os, a[i], indent, depth + 1);
    }
    newline_indent(os, indent, depth);
    os << ']';
  } else {
    const auto& o = v.as_object();
    if (o.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    bool first = true;
    for (const auto& [k, val] : o) {
      if (!first) os << ',';
      first = false;
      newline_indent(os, indent, depth + 1);
      escape_to(os, k);
      os << (indent < 0 ? ":" : ": ");
      dump_to(os, val, indent, depth + 1);
    }
    newline_indent(os, indent, depth);
    os << '}';
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump_to(os, *this, indent, 0);
  return os.str();
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace dtm
