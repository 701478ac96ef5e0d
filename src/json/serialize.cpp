#include "json/serialize.hpp"

#include <charconv>
#include <cmath>

namespace ofmf::json {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void AppendEscaped(std::string& out, std::string_view s) {
  out.push_back('"');
  // Characters that need no escape are appended a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4], kHexDigits[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void AppendInt(std::string& out, std::int64_t v) {
  char buffer[24];  // "-9223372036854775808" is 20 characters
  const std::to_chars_result written = std::to_chars(buffer, buffer + sizeof(buffer), v);
  out.append(buffer, written.ptr);
}

void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no NaN/Inf; emit null (matches common tooling behaviour).
    out += "null";
    return;
  }
  // Shortest form that parses back to the same bits; never longer than
  // "-2.2250738585072014e-308" (24 characters).
  char buffer[32];
  const std::to_chars_result written = std::to_chars(buffer, buffer + sizeof(buffer), v);
  const std::string_view text(buffer, static_cast<std::size_t>(written.ptr - buffer));
  out += text;
  // Ensure a serialized double re-parses as a double, not an int.
  if (text.find_first_of(".e") == std::string_view::npos) out += ".0";
}

void Write(const Json& value, std::string& out, int indent, int depth) {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (value.type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Type::kInt: AppendInt(out, value.as_int()); break;
    case Type::kDouble: AppendDouble(out, value.as_double()); break;
    case Type::kString: AppendEscaped(out, value.as_string()); break;
    case Type::kArray: {
      const Array& arr = value.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Json& item : arr) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        Write(item, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& obj = value.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        AppendEscaped(out, k);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        Write(v, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string Serialize(const Json& value) {
  std::string out;
  Write(value, out, -1, 0);
  return out;
}

std::string SerializePretty(const Json& value) {
  std::string out;
  Write(value, out, 2, 0);
  return out;
}

std::string QuoteString(std::string_view s) {
  std::string out;
  AppendEscaped(out, s);
  return out;
}

}  // namespace ofmf::json
