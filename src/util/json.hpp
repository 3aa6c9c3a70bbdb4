// Minimal recursive-descent JSON parser — consumes the telemetry
// artifacts the system itself emits (metrics snapshots, Chrome traces,
// JSONL events, BENCH_*.json blocks) for analysis and validation. Strict
// on structure, no external dependencies. Promoted from the test-only
// json_lint.hpp when `dynkge analyze` started reading traces at runtime.
#pragma once

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace dynkge::util {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  bool has(const std::string& key) const {
    return is_object() && object.count(key) > 0;
  }
  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) {
      throw std::runtime_error("json: missing key " + key);
    }
    return it->second;
  }
};

class JsonParser {
 public:
  /// Deeper nesting is rejected rather than recursed into (the stack).
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parse the whole input as one JSON value; trailing garbage throws.
  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::string(literal).size();
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    JsonValue value;
    switch (peek()) {
      case '{':
      case '[':
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        value = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      case '"':
        value.type = JsonValue::Type::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        value.type = JsonValue::Type::kBool;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return value;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      expect(':');
      if (!value.object.emplace(std::move(key), parse_value()).second) {
        fail("duplicate object key");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              fail("bad \\u escape");
            }
          }
          // The emitters only escape control characters; validation is
          // enough, no UTF-8 decoding.
          out.push_back('?');
          pos_ += 4;
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number: " + token);
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

inline JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace dynkge::util
