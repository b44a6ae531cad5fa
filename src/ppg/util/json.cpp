#include "ppg/util/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "ppg/util/error.hpp"

namespace ppg {

std::string format_metric(double value, int sig_digits) {
  PPG_CHECK(sig_digits >= 0, "sig_digits must be non-negative");
  if (!std::isfinite(value)) {
    return value != value ? "nan" : (value > 0 ? "inf" : "-inf");
  }
  if (sig_digits > 0 && value != 0.0) {
    // Round to sig_digits significant digits, then print the rounded value
    // in its own shortest form (so 2.0 at 3 digits is "2", not "2.00", and
    // the printed string parses back to exactly the rounded double).
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*e", sig_digits - 1, value);
    value = std::strtod(buffer, nullptr);
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  PPG_CHECK(result.ec == std::errc(), "to_chars failed on a double");
  return std::string(buffer, result.ptr);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool json::as_bool() const {
  PPG_CHECK(kind_ == kind::boolean, "json value is not a boolean");
  return bool_;
}

double json::as_number() const {
  PPG_CHECK(kind_ == kind::number, "json value is not a number");
  return number_;
}

const std::string& json::as_string() const {
  PPG_CHECK(kind_ == kind::string, "json value is not a string");
  return string_;
}

std::uint64_t json::as_uint64() const {
  PPG_CHECK(is_exact_uint(),
            "json value is not an exact unsigned integer");
  return uint_;
}

void json::push_back(json value) {
  PPG_CHECK(kind_ == kind::array, "push_back requires a json array");
  array_.push_back(std::move(value));
}

const std::vector<json>& json::items() const {
  PPG_CHECK(kind_ == kind::array, "items() requires a json array");
  return array_;
}

json& json::operator[](std::string_view key) {
  if (kind_ == kind::null) kind_ = kind::object;
  PPG_CHECK(kind_ == kind::object, "operator[] requires a json object");
  for (auto& [name, value] : object_) {
    if (name == key) return value;
  }
  object_.emplace_back(std::string(key), json());
  return object_.back().second;
}

const json* json::find(std::string_view key) const {
  PPG_CHECK(kind_ == kind::object, "find() requires a json object");
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, json>>& json::members() const {
  PPG_CHECK(kind_ == kind::object, "members() requires a json object");
  return object_;
}

std::size_t json::size() const {
  if (kind_ == kind::array) return array_.size();
  if (kind_ == kind::object) return object_.size();
  return 0;
}

void json::dump(std::ostream& out, bool indent) const {
  dump_impl(out, indent, 0);
}

std::string json::dump_string(bool indent) const {
  std::ostringstream out;
  dump(out, indent);
  return out.str();
}

namespace {

void write_newline_indent(std::ostream& out, bool indent, int depth) {
  if (!indent) return;
  out << '\n';
  for (int i = 0; i < depth; ++i) out << "  ";
}

}  // namespace

void json::dump_impl(std::ostream& out, bool indent, int depth) const {
  switch (kind_) {
    case kind::null:
      out << "null";
      break;
    case kind::boolean:
      out << (bool_ ? "true" : "false");
      break;
    case kind::number:
      if (exact_uint_) {
        out << uint_;  // exact: never routed through double
      } else if (std::isfinite(number_)) {
        out << format_metric(number_);
      } else {
        out << "null";  // JSON has no representation for inf/nan
      }
      break;
    case kind::string:
      out << '"' << json_escape(string_) << '"';
      break;
    case kind::array: {
      if (array_.empty()) {
        out << "[]";
        break;
      }
      out << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out << ',';
        write_newline_indent(out, indent, depth + 1);
        array_[i].dump_impl(out, indent, depth + 1);
      }
      write_newline_indent(out, indent, depth);
      out << ']';
      break;
    }
    case kind::object: {
      if (object_.empty()) {
        out << "{}";
        break;
      }
      out << '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out << ',';
        write_newline_indent(out, indent, depth + 1);
        out << '"' << json_escape(object_[i].first) << "\":";
        if (indent) out << ' ';
        object_[i].second.dump_impl(out, indent, depth + 1);
      }
      write_newline_indent(out, indent, depth);
      out << '}';
      break;
    }
  }
}

bool operator==(const json& a, const json& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case json::kind::null:
      return true;
    case json::kind::boolean:
      return a.bool_ == b.bool_;
    case json::kind::number:
      // Numeric equality: exact-vs-exact compares the integers, otherwise
      // the double values (so 400 written from int equals 400 re-parsed
      // as an exact integer).
      if (a.exact_uint_ && b.exact_uint_) return a.uint_ == b.uint_;
      return a.number_ == b.number_;
    case json::kind::string:
      return a.string_ == b.string_;
    case json::kind::array:
      return a.array_ == b.array_;
    case json::kind::object:
      return a.object_ == b.object_;
  }
  return false;
}

namespace {

/// Strict recursive-descent JSON parser over a string_view.
class json_parser {
 public:
  json_parser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  json parse_document() {
    json value = parse_value(0);
    skip_whitespace();
    PPG_CHECK(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  json parse_value(std::size_t depth) {
    skip_whitespace();
    PPG_CHECK(pos_ < text_.size(), "unexpected end of JSON input");
    switch (text_[pos_]) {
      // `depth` containers already enclose this value, so opening another
      // is legal only while depth < max (max_depth counts container levels;
      // scalars are free).
      case '{':
        check_depth(depth);
        return parse_object(depth);
      case '[':
        check_depth(depth);
        return parse_array(depth);
      case '"':
        return json(parse_string());
      case 't':
        expect_literal("true");
        return json(true);
      case 'f':
        expect_literal("false");
        return json(false);
      case 'n':
        expect_literal("null");
        return json();
      default:
        return parse_number();
    }
  }

  void check_depth(std::size_t depth) const {
    PPG_CHECK(depth < max_depth_,
              "JSON nesting deeper than " + std::to_string(max_depth_) +
                  " levels");
  }

  json parse_object(std::size_t depth) {
    ++pos_;  // consume '{'
    json value = json::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      PPG_CHECK(peek() == '"', "expected a quoted object key");
      std::string key = parse_string();
      skip_whitespace();
      PPG_CHECK(peek() == ':', "expected ':' after object key");
      ++pos_;
      PPG_CHECK(value.find(key) == nullptr, "duplicate object key: " + key);
      value[key] = parse_value(depth + 1);
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      PPG_CHECK(c == '}', "expected ',' or '}' in object");
      ++pos_;
      return value;
    }
  }

  json parse_array(std::size_t depth) {
    ++pos_;  // consume '['
    json value = json::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      PPG_CHECK(c == ']', "expected ',' or ']' in array");
      ++pos_;
      return value;
    }
  }

  std::string parse_string() {
    ++pos_;  // consume opening quote
    std::string out;
    while (true) {
      PPG_CHECK(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        PPG_CHECK(static_cast<unsigned char>(c) >= 0x20,
                  "raw control character in JSON string");
        out += c;
        continue;
      }
      PPG_CHECK(pos_ < text_.size(), "unterminated escape sequence");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            PPG_CHECK(pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                          text_[pos_ + 1] == 'u',
                      "lone high surrogate in JSON string");
            pos_ += 2;
            const unsigned low = parse_hex4();
            PPG_CHECK(low >= 0xdc00 && low <= 0xdfff,
                      "invalid low surrogate in JSON string");
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          } else {
            PPG_CHECK(code < 0xdc00 || code > 0xdfff,
                      "lone low surrogate in JSON string");
          }
          append_utf8(out, code);
          break;
        }
        default:
          PPG_CHECK(false, std::string("invalid escape character: \\") + esc);
      }
    }
  }

  unsigned parse_hex4() {
    PPG_CHECK(pos_ + 4 <= text_.size(), "truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        PPG_CHECK(false, "invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  json parse_number() {
    const std::size_t start = pos_;
    bool digits_only = true;
    if (peek() == '-') {
      digits_only = false;
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
        digits_only = false;
      }
      ++pos_;
    }
    PPG_CHECK(pos_ > start, "expected a JSON value");
    const std::string token(text_.substr(start, pos_ - start));
    // A pure-digit token that fits uint64 is restored exactly (so 64-bit
    // seeds survive a write/parse round trip); everything else is a
    // double.
    if (digits_only && token.size() <= 20) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long exact = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return json(static_cast<std::uint64_t>(exact));
      }
    }
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    PPG_CHECK(end == token.c_str() + token.size(),
              "malformed JSON number: " + token);
    return json(value);
  }

  void expect_literal(std::string_view literal) {
    PPG_CHECK(text_.substr(pos_, literal.size()) == literal,
              "malformed JSON literal");
    pos_ += literal.size();
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    PPG_CHECK(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
};

}  // namespace

json json::parse(std::string_view text) {
  return parse(text, parse_limits{});
}

json json::parse(std::string_view text, const parse_limits& limits) {
  PPG_CHECK(limits.max_depth >= 1, "json parse_limits: max_depth must be >= 1");
  PPG_CHECK(limits.max_bytes == 0 || text.size() <= limits.max_bytes,
            "JSON input of " + std::to_string(text.size()) +
                " bytes exceeds the " + std::to_string(limits.max_bytes) +
                "-byte limit");
  return json_parser(text, limits.max_depth).parse_document();
}

namespace {

std::string describe(std::string_view where, std::string_view key,
                     const char* what) {
  std::string message(where);
  message += ": ";
  message += what;
  message += " '";
  message += key;
  message += "'";
  return message;
}

}  // namespace

const json& json_require(const json& object, std::string_view key,
                         std::string_view where) {
  PPG_CHECK(object.is_object(),
            std::string(where) + ": expected a JSON object");
  const json* member = object.find(key);
  PPG_CHECK(member != nullptr, describe(where, key, "missing key"));
  return *member;
}

std::uint64_t json_require_uint(const json& object, std::string_view key,
                                std::string_view where) {
  const json& member = json_require(object, key, where);
  PPG_CHECK(member.is_exact_uint(),
            describe(where, key, "expected an unsigned integer at key"));
  return member.as_uint64();
}

double json_require_number(const json& object, std::string_view key,
                           std::string_view where) {
  const json& member = json_require(object, key, where);
  PPG_CHECK(member.is_number(),
            describe(where, key, "expected a number at key"));
  return member.as_number();
}

const std::string& json_require_string(const json& object,
                                       std::string_view key,
                                       std::string_view where) {
  const json& member = json_require(object, key, where);
  PPG_CHECK(member.is_string(),
            describe(where, key, "expected a string at key"));
  return member.as_string();
}

const std::vector<json>& json_require_array(const json& object,
                                            std::string_view key,
                                            std::string_view where) {
  const json& member = json_require(object, key, where);
  PPG_CHECK(member.is_array(),
            describe(where, key, "expected an array at key"));
  return member.items();
}

void json_require_keys(const json& object,
                       const std::vector<std::string_view>& keys,
                       std::string_view where) {
  PPG_CHECK(object.is_object(),
            std::string(where) + ": expected a JSON object");
  for (const auto key : keys) {
    (void)json_require(object, key, where);
  }
  for (const auto& [name, value] : object.members()) {
    (void)value;
    bool known = false;
    for (const auto key : keys) {
      if (name == key) {
        known = true;
        break;
      }
    }
    PPG_CHECK(known, describe(where, name, "unknown key"));
  }
}

std::vector<std::uint64_t> json_require_uint_array(const json& object,
                                                   std::string_view key,
                                                   std::string_view where) {
  const auto& items = json_require_array(object, key, where);
  std::vector<std::uint64_t> values;
  values.reserve(items.size());
  for (const auto& item : items) {
    PPG_CHECK(item.is_exact_uint(),
              describe(where, key, "expected unsigned integers in array"));
    values.push_back(item.as_uint64());
  }
  return values;
}

json json_uint_array(const std::vector<std::uint64_t>& values) {
  json array = json::array();
  for (const auto value : values) {
    array.push_back(value);
  }
  return array;
}

}  // namespace ppg
