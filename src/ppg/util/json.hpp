// Minimal JSON document type: an ordered-object/array/string/number/bool/
// null variant with a writer and a strict recursive-descent parser. No
// external dependencies — this backs the `ppg-bench` artifact files
// (BENCH_*.json) and must stay byte-stable across platforms, so all number
// formatting goes through format_metric (shortest round-trip via
// std::to_chars, never locale-dependent).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppg {

/// Formats a double as the shortest decimal string that parses back to the
/// identical bits (std::to_chars). With `sig_digits > 0` the value is first
/// rounded to that many significant digits and the rounded value is printed
/// shortest-form — so "0.6667" rather than "0.666700" or a truncated
/// std::to_string. Every numeric cell of a scenario table and every number
/// in a JSON artifact is rendered by this one helper, which is what makes
/// the human tables and the machine artifacts agree.
[[nodiscard]] std::string format_metric(double value, int sig_digits = 0);

/// A JSON value. Objects preserve insertion order (artifact diffs stay
/// readable); lookup is linear, which is fine at artifact sizes.
class json {
 public:
  enum class kind { null, boolean, number, string, array, object };

  // Scalars convert implicitly so artifact-building code reads naturally
  // (result["n"] = 400; result["engine"] = "census";). Unsigned integers
  // are kept exact (not routed through double, which silently corrupts
  // values above 2^53 — e.g. a 64-bit master seed the artifact must
  // record faithfully); they serialize as plain JSON integers and the
  // parser restores them exactly.
  json() : kind_(kind::null) {}
  json(bool value) : kind_(kind::boolean), bool_(value) {}
  json(double value) : kind_(kind::number), number_(value) {}
  json(int value) : json(static_cast<double>(value)) {}
  json(std::int64_t value) : json(static_cast<double>(value)) {}
  json(std::uint64_t value)
      : kind_(kind::number),
        number_(static_cast<double>(value)),
        uint_(value),
        exact_uint_(true) {}
  json(std::string value) : kind_(kind::string), string_(std::move(value)) {}
  json(const char* value) : json(std::string(value)) {}

  [[nodiscard]] static json array() {
    json value;
    value.kind_ = kind::array;
    return value;
  }
  [[nodiscard]] static json object() {
    json value;
    value.kind_ = kind::object;
    return value;
  }

  [[nodiscard]] kind type() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == kind::null; }
  [[nodiscard]] bool is_number() const { return kind_ == kind::number; }
  [[nodiscard]] bool is_string() const { return kind_ == kind::string; }
  [[nodiscard]] bool is_array() const { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const { return kind_ == kind::object; }

  /// Scalar accessors; each checks the stored kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  /// The exact unsigned value; requires a number written as an unsigned
  /// integer (constructed from uint64 or parsed from a pure-digit token).
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] bool is_exact_uint() const {
    return kind_ == kind::number && exact_uint_;
  }

  /// Array access. push_back requires kind array.
  void push_back(json value);
  [[nodiscard]] const std::vector<json>& items() const;

  /// Object access: operator[] inserts a null member on first use (requires
  /// kind object or null, which is promoted); find returns nullptr when the
  /// key is absent.
  json& operator[](std::string_view key);
  [[nodiscard]] const json* find(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, json>>& members()
      const;

  /// Number of elements (array) or members (object); 0 for scalars.
  [[nodiscard]] std::size_t size() const;

  /// Serializes with 2-space indentation when `indent` is true, compact
  /// otherwise. Keys and strings are escaped per RFC 8259; non-finite
  /// numbers serialize as null (JSON has no inf/nan).
  void dump(std::ostream& out, bool indent = true) const;
  [[nodiscard]] std::string dump_string(bool indent = true) const;

  /// Resource bounds for parsing untrusted input (network bodies, uploaded
  /// checkpoints). `max_bytes == 0` means unlimited; `max_depth` is the
  /// deepest admitted container nesting — `max_depth == 4` accepts
  /// `[[[[1]]]]` and rejects a fifth level (the parser recurses once per
  /// level, so this is also the stack bound). Scalars don't count.
  struct parse_limits {
    std::size_t max_bytes = 0;
    std::size_t max_depth = 128;
  };

  /// Strict parser for the subset this writer emits (standard JSON with
  /// \uXXXX escapes, including surrogate pairs). Throws ppg::invariant_error
  /// on malformed input, trailing garbage, or nesting deeper than 128.
  [[nodiscard]] static json parse(std::string_view text);

  /// parse() with explicit resource bounds: rejects input larger than
  /// `limits.max_bytes` (when nonzero) or nested deeper than
  /// `limits.max_depth` with a pointed ppg::invariant_error *before* doing
  /// unbounded work — the entry point for untrusted network input
  /// (ppg-serve request bodies).
  [[nodiscard]] static json parse(std::string_view text,
                                  const parse_limits& limits);

  friend bool operator==(const json& a, const json& b);
  friend bool operator!=(const json& a, const json& b) { return !(a == b); }

 private:
  void dump_impl(std::ostream& out, bool indent, int depth) const;

  kind kind_ = kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t uint_ = 0;       // exact value when exact_uint_
  bool exact_uint_ = false;
  std::string string_;
  std::vector<json> array_;
  std::vector<std::pair<std::string, json>> object_;
};

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes): ", \, and control characters become escape sequences.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Strict-access helpers for schema'd documents (engine snapshots,
/// checkpoint headers, spec recipes): each names the offending key in the
/// ppg::invariant_error it throws, so a corrupt or hand-edited checkpoint
/// fails with a message instead of a silent default. `where` prefixes the
/// message with the document being parsed (e.g. "checkpoint spec").
[[nodiscard]] const json& json_require(const json& object,
                                       std::string_view key,
                                       std::string_view where);
[[nodiscard]] std::uint64_t json_require_uint(const json& object,
                                              std::string_view key,
                                              std::string_view where);
[[nodiscard]] double json_require_number(const json& object,
                                         std::string_view key,
                                         std::string_view where);
[[nodiscard]] const std::string& json_require_string(const json& object,
                                                     std::string_view key,
                                                     std::string_view where);
[[nodiscard]] const std::vector<json>& json_require_array(
    const json& object, std::string_view key, std::string_view where);

/// Strict shape check: `object` must be an object whose member set is
/// exactly `keys` (unknown keys are rejected — a key this version does not
/// understand could change the meaning of the state being restored).
void json_require_keys(const json& object,
                       const std::vector<std::string_view>& keys,
                       std::string_view where);

/// Reads an array of exact unsigned integers (a census, an RNG state).
[[nodiscard]] std::vector<std::uint64_t> json_require_uint_array(
    const json& object, std::string_view key, std::string_view where);

/// Writes a vector of unsigned integers as a JSON array of exact integers.
[[nodiscard]] json json_uint_array(const std::vector<std::uint64_t>& values);

}  // namespace ppg
