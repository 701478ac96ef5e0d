#include "json/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

namespace ofmf::json {
namespace {

class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  Result<Json> Run() {
    SkipWhitespace();
    OFMF_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters after document");
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char expected) {
    if (AtEnd() || Peek() != expected) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<Json> ParseValue(std::size_t depth) {
    if (depth > options_.max_depth) return Error("maximum nesting depth exceeded");
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        OFMF_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return Json(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Json(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Json(nullptr);
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject(std::size_t depth) {
    Consume('{');
    Object obj;
    SkipWhitespace();
    if (Consume('}')) return Json(std::move(obj));
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key string");
      OFMF_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      OFMF_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Result<Json> ParseArray(std::size_t depth) {
    Consume('[');
    Array arr;
    SkipWhitespace();
    if (Consume(']')) return Json(std::move(arr));
    while (true) {
      SkipWhitespace();
      OFMF_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      // Characters that need no decoding are appended a run at a time.
      const std::size_t run = pos_;
      while (!AtEnd()) {
        const unsigned char c = static_cast<unsigned char>(Peek());
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (AtEnd()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') return Error("raw control character in string");
      if (AtEnd()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          OFMF_ASSIGN_OR_RETURN(unsigned cp, ParseHex4());
          // Surrogate pairs.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!ConsumeLiteral("\\u")) return Error("unpaired high surrogate");
            OFMF_ASSIGN_OR_RETURN(unsigned low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) return Error("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default: return Error("invalid escape character");
      }
    }
    return out;
  }

  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else return Error("invalid hex digit in \\u escape");
    }
    return value;
  }

  static void AppendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<Json> ParseNumber() {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || !IsDigit(Peek())) {
      return Error("invalid number");
    }
    // Leading zero rule: "0" alone or "0." is fine, "01" is not.
    if (Peek() == '0') {
      ++pos_;
      if (!AtEnd() && IsDigit(Peek())) {
        return Error("leading zero in number");
      }
    } else {
      while (!AtEnd() && IsDigit(Peek())) ++pos_;
    }
    bool is_integer = true;
    if (!AtEnd() && Peek() == '.') {
      is_integer = false;
      ++pos_;
      if (AtEnd() || !IsDigit(Peek())) {
        return Error("digit required after decimal point");
      }
      while (!AtEnd() && IsDigit(Peek())) ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      is_integer = false;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || !IsDigit(Peek())) {
        return Error("digit required in exponent");
      }
      while (!AtEnd() && IsDigit(Peek())) ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_integer) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Fall through: out-of-range integers become doubles.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports underflow and overflow alike and leaves `value`
      // unset. strtod tells them apart: underflow rounds toward zero (1e-400
      // parses as 0.0), overflow gives infinity, which is rejected below.
      value = std::strtod(std::string(token).c_str(), nullptr);
    } else if (ec != std::errc() || ptr != token.data() + token.size()) {
      return Error("invalid number");
    }
    if (std::isinf(value)) return Error("number out of range");
    return Json(value);
  }

  std::string_view text_;
  ParseOptions options_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> Parse(std::string_view text, const ParseOptions& options) {
  return Parser(text, options).Run();
}

}  // namespace ofmf::json
