// Tiny JSON parser shared by the observability tests: just enough JSON to
// validate the exporters — objects, arrays, strings with the escapes our
// serializers emit, numbers, booleans, null. Returns nullopt on any syntax
// error, which the tests treat as "output is not valid JSON".
#pragma once

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mini_json {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is(Type t) const { return type == t; }
  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!value(v)) return std::nullopt;
    ws();
    if (pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;  // validated but not decoded; exporters never emit it
            out += '?';
            break;
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }
  bool value(JsonValue& out) {
    ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = JsonValue::Type::kObject;
      ws();
      if (eat('}')) return true;
      while (true) {
        std::string key;
        ws();
        if (!string(key)) return false;
        if (!eat(':')) return false;
        JsonValue child;
        if (!value(child)) return false;
        out.object.emplace(std::move(key), std::move(child));
        if (eat(',')) continue;
        return eat('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out.type = JsonValue::Type::kArray;
      ws();
      if (eat(']')) return true;
      while (true) {
        JsonValue child;
        if (!value(child)) return false;
        out.array.push_back(std::move(child));
        if (eat(',')) continue;
        return eat(']');
      }
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return string(out.str);
    }
    if (c == 't') {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.type = JsonValue::Type::kNull;
      return literal("null");
    }
    // number
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out.number = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    out.type = JsonValue::Type::kNumber;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

inline std::optional<JsonValue> parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace mini_json
