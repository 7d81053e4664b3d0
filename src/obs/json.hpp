// Minimal JSON value: build, dump, parse.
//
// The observability layer emits Chrome trace_event files, metrics registry
// dumps, and bench telemetry (AIO_BENCH_JSON) — all JSON — and the tests
// must round-trip what was written.  The toolchain has no JSON dependency,
// so this is a small self-contained value type: objects preserve insertion
// order (stable, diffable output), numbers are doubles (integral values
// print without a fraction), and `parse` is a strict recursive-descent
// reader returning nullopt on malformed input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace aio::obs {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double v) : value_(v) {}
  Json(int v) : value_(static_cast<double>(v)) {}
  Json(unsigned v) : value_(static_cast<double>(v)) {}
  Json(long v) : value_(static_cast<double>(v)) {}
  Json(unsigned long v) : value_(static_cast<double>(v)) {}
  Json(long long v) : value_(static_cast<double>(v)) {}
  Json(unsigned long long v) : value_(static_cast<double>(v)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(const char* s) : value_(std::string(s)) {}

  /// Empty object / array with room reserved for `capacity` members.
  [[nodiscard]] static Json object(std::size_t capacity = 0) { return reserved<Object>(capacity); }
  [[nodiscard]] static Json array(std::size_t capacity = 0) { return reserved<Array>(capacity); }

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed reads; a mismatched read returns the type's zero value.
  [[nodiscard]] bool boolean() const { return is_bool() && std::get<bool>(value_); }
  [[nodiscard]] double number() const { return is_number() ? std::get<double>(value_) : 0.0; }
  [[nodiscard]] const std::string& str() const;

  /// Object: appends or overwrites `key`.  Converts a non-object in place.
  Json& set(std::string key, Json value);
  /// Array: appends.  Converts a non-array in place.
  Json& push(Json value);

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Array / object element count; 0 for scalars.
  [[nodiscard]] std::size_t size() const;
  /// Array element (unchecked against scalars; throws via vector::at).
  [[nodiscard]] const Json& at(std::size_t i) const { return std::get<Array>(value_).at(i); }
  [[nodiscard]] const Array& items() const { return std::get<Array>(value_); }
  [[nodiscard]] const Object& entries() const { return std::get<Object>(value_); }

  /// Compact serialization (no insignificant whitespace).
  [[nodiscard]] std::string dump() const;

  /// Strict parse of a complete JSON document; nullopt on any error.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

  /// Serializes a double the way dump() does (integral values without a
  /// fraction) — shared with writers that stream JSON without building it.
  static void append_number(std::string& out, double v);
  /// Appends `s` as a quoted, escaped JSON string.
  static void append_quoted(std::string& out, std::string_view s);

 private:
  template <class V>
  static Json reserved(std::size_t n) {
    Json j;
    j.value_.emplace<V>().reserve(n);
    return j;
  }

  void dump_to(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace aio::obs
