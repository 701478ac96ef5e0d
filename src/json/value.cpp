#include "json/value.hpp"

#include <algorithm>
#include <cassert>

namespace ofmf::json {

Json* Object::Find(std::string_view key) {
  for (auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json* Object::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Object::Set(std::string key, Json value) {
  if (Json* existing = Find(key)) {
    *existing = std::move(value);
    return *existing;
  }
  members_.emplace_back(std::move(key), std::move(value));
  return members_.back().second;
}

bool Object::Erase(std::string_view key) {
  auto it = std::find_if(members_.begin(), members_.end(),
                         [&](const Member& m) { return m.first == key; });
  if (it == members_.end()) return false;
  members_.erase(it);
  return true;
}

bool Object::operator==(const Object& other) const {
  // Order-insensitive comparison: Redfish semantics treat member order as
  // irrelevant even though we preserve it for output.
  if (members_.size() != other.members_.size()) return false;
  for (const auto& [k, v] : members_) {
    const Json* o = other.Find(k);
    if (o == nullptr || !(*o == v)) return false;
  }
  return true;
}

const char* to_string(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "boolean";
    case Type::kInt: return "integer";
    case Type::kDouble: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

Json Json::Obj(std::initializer_list<Field> fields) {
  Object o;
  for (const Field& f : fields) o.Set(f.key, std::move(f.value));
  return Json(std::move(o));
}

Json Json::Arr(std::initializer_list<Json> items) { return Json(Array(items)); }

Type Json::type() const {
  switch (data_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kInt;
    case 3: return Type::kDouble;
    case 4: return Type::kString;
    case 5: return Type::kArray;
    default: return Type::kObject;
  }
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(as_int());
  return std::get<double>(data_);
}

const Json& Json::at(std::string_view key) const {
  if (is_object()) {
    if (const Json* found = as_object().Find(key)) return *found;
  }
  return NullJson();
}

Json& Json::operator[](std::string_view key) {
  assert(is_object());
  Object& obj = as_object();
  if (Json* found = obj.Find(key)) return *found;
  return obj.Set(std::string(key), Json());
}

bool Json::Contains(std::string_view key) const {
  return is_object() && as_object().Contains(key);
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json& v = at(key);
  if (v.is_string()) return v.as_string();
  return fallback;
}

std::int64_t Json::GetInt(std::string_view key, std::int64_t fallback) const {
  const Json& v = at(key);
  if (v.is_int()) return v.as_int();
  if (v.is_double()) return static_cast<std::int64_t>(v.as_double());
  return fallback;
}

double Json::GetDouble(std::string_view key, double fallback) const {
  const Json& v = at(key);
  if (v.is_number()) return v.as_double();
  return fallback;
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json& v = at(key);
  if (v.is_bool()) return v.as_bool();
  return fallback;
}

const Json& NullJson() {
  static const Json null_value;
  return null_value;
}

}  // namespace ofmf::json
