// JSON document model. Objects preserve insertion order (Redfish payloads are
// much easier to eyeball and diff that way); lookup is linear, which is the
// right trade-off for the small objects Redfish uses.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ofmf::json {

class Json;
struct Field;

using Array = std::vector<Json>;
using Member = std::pair<std::string, Json>;

/// Insertion-ordered object.
class Object {
 public:
  Json* Find(std::string_view key);
  const Json* Find(std::string_view key) const;
  /// Inserts or overwrites.
  Json& Set(std::string key, Json value);
  bool Erase(std::string_view key);
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  auto begin() { return members_.begin(); }
  auto end() { return members_.end(); }
  auto begin() const { return members_.begin(); }
  auto end() const { return members_.end(); }

  bool operator==(const Object& other) const;

 private:
  std::vector<Member> members_;
};

enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

const char* to_string(Type t);

class Json {
 public:
  Json() : data_(nullptr) {}
  Json(std::nullptr_t) : data_(nullptr) {}              // NOLINT
  Json(bool b) : data_(b) {}                            // NOLINT
  Json(int v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(long v) : data_(static_cast<std::int64_t>(v)) {}      // NOLINT
  Json(long long v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned long v) : data_(static_cast<std::int64_t>(v)) {}       // NOLINT
  Json(unsigned long long v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(double v) : data_(v) {}                          // NOLINT
  Json(const char* s) : data_(std::string(s)) {}        // NOLINT
  Json(std::string s) : data_(std::move(s)) {}          // NOLINT
  Json(std::string_view s) : data_(std::string(s)) {}   // NOLINT
  Json(Array a) : data_(std::move(a)) {}                // NOLINT
  Json(Object o) : data_(std::move(o)) {}               // NOLINT

  static Json MakeObject() { return Json(Object{}); }
  static Json MakeArray() { return Json(Array{}); }
  /// Builds an object from key/value pairs: Json::Obj({{"a", 1}, {"b", "x"}}).
  /// Each value is moved out of the list (see Field), so a list must not be
  /// passed to Obj twice.
  static Json Obj(std::initializer_list<Field> fields);
  static Json Arr(std::initializer_list<Json> items);

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors; callers must check the type first (asserted in debug).
  bool as_bool() const { return std::get<bool>(data_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  double as_double() const;  // int promotes to double
  const std::string& as_string() const { return std::get<std::string>(data_); }
  Array& as_array() { return std::get<Array>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  Object& as_object() { return std::get<Object>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }

  // Object conveniences. at() returns a shared null for missing keys.
  const Json& at(std::string_view key) const;
  Json& operator[](std::string_view key);  // inserts null if absent (object only)
  bool Contains(std::string_view key) const;

  /// Object member with a fallback when missing or wrong type.
  std::string GetString(std::string_view key, std::string fallback = "") const;
  std::int64_t GetInt(std::string_view key, std::int64_t fallback = 0) const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  bool operator==(const Json& other) const { return data_ == other.data_; }
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> data_;
};

/// One Json::Obj initializer. An initializer_list only hands out const
/// elements; `mutable` lets Obj move each value into the object instead of
/// deep-copying it, so `{"Histograms", Json(std::move(histograms))}` costs no
/// copy of the array.
struct Field {
  std::string key;
  mutable Json value;
};

/// The canonical shared null (returned by at() for missing members).
const Json& NullJson();

}  // namespace ofmf::json
