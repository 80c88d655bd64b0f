// Minimal self-contained JSON value: parse, build, serialize.
//
// Exists so RunSpecs are shareable artifacts (files, CI matrices) without
// pulling a dependency into the build. Supports the full JSON grammar with
// the usual simulator-friendly restrictions: numbers round-trip as int64
// when integral (no precision loss on ids/seeds), object keys keep
// insertion order on serialize (std::map order — deterministic diffs).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/check.hpp"

namespace dtm {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : v_(b) {}  // NOLINT(google-explicit-constructor)
  Json(std::int64_t n) : v_(n) {}    // NOLINT(google-explicit-constructor)
  Json(int n) : v_(std::int64_t{n}) {}  // NOLINT(google-explicit-constructor)
  Json(double d) : v_(d) {}          // NOLINT(google-explicit-constructor)
  Json(std::string s) : v_(std::move(s)) {}  // NOLINT
  Json(const char* s) : v_(std::string(s)) {}  // NOLINT
  Json(Array a) : v_(std::move(a)) {}   // NOLINT(google-explicit-constructor)
  Json(Object o) : v_(std::move(o)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::monostate>(v_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_int() const {
    return std::holds_alternative<std::int64_t>(v_);
  }
  [[nodiscard]] bool is_number() const {
    return is_int() || std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v_);
  }

  [[nodiscard]] bool as_bool() const {
    DTM_REQUIRE(is_bool(), "json: not a bool");
    return std::get<bool>(v_);
  }
  [[nodiscard]] std::int64_t as_int() const {
    DTM_REQUIRE(is_number(), "json: not a number");
    if (is_int()) return std::get<std::int64_t>(v_);
    return static_cast<std::int64_t>(std::get<double>(v_));
  }
  [[nodiscard]] double as_double() const {
    DTM_REQUIRE(is_number(), "json: not a number");
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
    return std::get<double>(v_);
  }
  [[nodiscard]] const std::string& as_string() const {
    DTM_REQUIRE(is_string(), "json: not a string");
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const Array& as_array() const {
    DTM_REQUIRE(is_array(), "json: not an array");
    return std::get<Array>(v_);
  }
  [[nodiscard]] const Object& as_object() const {
    DTM_REQUIRE(is_object(), "json: not an object");
    return std::get<Object>(v_);
  }
  [[nodiscard]] Object& as_object() {
    DTM_REQUIRE(is_object(), "json: not an object");
    return std::get<Object>(v_);
  }

  /// Object member access; `has` for optional fields, `at` requires.
  [[nodiscard]] bool has(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto& o = as_object();
    const auto it = o.find(key);
    DTM_REQUIRE(it != o.end(), "json: missing key '" << key << "'");
    return it->second;
  }

  /// Compact single-line serialization (`indent < 0`) or pretty-printed
  /// with the given indent width.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict parser; throws CheckError with the byte offset on malformed
  /// input, trailing garbage, or nesting deeper than kMaxDepth.
  [[nodiscard]] static Json parse(const std::string& text);
  static constexpr int kMaxDepth = 256;

  friend bool operator==(const Json&, const Json&) = default;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               Array, Object>
      v_;
};

}  // namespace dtm
