// Minimal JSON value type for the declarative experiment layer.
//
// The ScenarioSpec API (experiment/spec.*) needs to parse and emit spec
// files without external dependencies, with two properties a
// general-purpose library would not promise:
//  * doubles round-trip exactly (printed with max_digits10, so
//    parse(serialize(spec)) == spec bit-for-bit), and
//  * unsigned 64-bit integers (seeds, spec hashes) survive without being
//    squeezed through a double.
// Object key order is preserved, which keeps serialized specs diffable
// and the spec hash canonical.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gossip::json {

/// Parse/shape error; `what()` carries the offset and a precise message
/// ("expected ':' after object key at offset 41").
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}
};

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object (JSON objects here are small).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

class Value {
public:
  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Value(std::uint64_t u) : kind_(Kind::kInt), int_(u) {}          // NOLINT
  Value(std::int64_t i);                                          // NOLINT
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}           // NOLINT
  Value(unsigned u) : Value(static_cast<std::uint64_t>(u)) {}     // NOLINT
  Value(double d) : kind_(Kind::kDouble), double_(d) {}           // NOLINT
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Value(const char* s) : Value(std::string(s)) {}                 // NOLINT
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}   // NOLINT
  Value(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}  // NOLINT

  [[nodiscard]] Kind kind() const { return kind_; }

  // Typed accessors; throw Error naming the actual kind on mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_u64() const;   ///< requires integral
  [[nodiscard]] double as_double() const;       ///< any number
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Negative flag for kInt values (stored sign-and-magnitude).
  [[nodiscard]] bool int_negative() const { return int_negative_; }

  /// Object lookup; nullptr when `key` is absent (or not an object).
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Appends/sets `key` in an object value.
  void set(const std::string& key, Value v);

  bool operator==(const Value& other) const;

  /// Compact (indent < 0) or pretty serialization. Doubles are printed
  /// with max_digits10 so they re-parse to the identical bit pattern.
  [[nodiscard]] std::string dump(int indent = -1) const;

private:
  friend Value parse(const std::string&);
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::uint64_t int_ = 0;   // magnitude
  bool int_negative_ = false;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one JSON document (trailing non-whitespace is an error).
Value parse(const std::string& text);

}  // namespace gossip::json
