#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace cosched {

std::string JsonWriter::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  COSCHED_CHECK_MSG(!first_.empty(), "value written outside any scope");
  if (!first_.back()) out_ << ',';
  first_.back() = false;
}

void JsonWriter::key_prefix(const std::string& key) {
  comma();
  out_ << '"' << escape(key) << "\":";
}

void JsonWriter::number(double v) {
  if (!std::isfinite(v)) {
    out_ << "null";  // JSON has no NaN/inf
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out_ << buf;
}

JsonWriter& JsonWriter::begin_object() {
  if (!first_.empty()) comma();
  out_ << '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::begin_object(const std::string& key) {
  key_prefix(key);
  out_ << '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  COSCHED_CHECK(!first_.empty());
  out_ << '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& key) {
  key_prefix(key);
  out_ << '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  if (!first_.empty()) comma();
  out_ << '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  COSCHED_CHECK(!first_.empty());
  out_ << ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, const std::string& v) {
  key_prefix(key);
  out_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, const char* v) {
  return value(key, std::string(v));
}

JsonWriter& JsonWriter::value(const std::string& key, double v) {
  key_prefix(key);
  number(v);
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, std::int64_t v) {
  key_prefix(key);
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& key, int v) {
  return value(key, static_cast<std::int64_t>(v));
}

JsonWriter& JsonWriter::value(const std::string& key, bool v) {
  key_prefix(key);
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  out_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  number(v);
  return *this;
}

std::string JsonWriter::str() const {
  COSCHED_CHECK_MSG(first_.empty(), "unclosed JSON scope");
  return out_.str();
}

// --- JsonValue -------------------------------------------------------------

bool JsonValue::as_bool() const {
  COSCHED_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  COSCHED_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

std::optional<std::int64_t> JsonValue::exact_int() const {
  // Range first: casting a double beyond int64 is undefined.
  if (kind_ != Kind::kNumber || !(std::fabs(number_) < 0x1p63) ||
      number_ != std::trunc(number_)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(number_);
}

const std::string& JsonValue::as_string() const {
  COSCHED_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  COSCHED_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  COSCHED_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  COSCHED_CHECK_MSG(v != nullptr, "JSON object has no key '" << key << "'");
  return *v;
}

std::vector<std::string> JsonValue::keys() const {
  COSCHED_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  std::vector<std::string> out;
  out.reserve(object_.size());
  for (const auto& [k, v] : object_) out.push_back(k);
  return out;
}

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.array_ = std::move(items);
  return j;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.object_ = std::move(members);
  return j;
}

// --- parse_json ------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("JSON parse error at line " + std::to_string(line) +
                ", column " + std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      }
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::null();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::object(std::move(members));
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape digit");
            }
          }
          // The writer only emits \u00XX for control characters; reject
          // anything wider rather than mis-decode it.
          if (code > 0xff) fail("unsupported \\u escape beyond U+00FF");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) {
        pos_ = start;
        fail("invalid number '" + token + "'");
      }
      return JsonValue::number(v);
    } catch (const std::exception&) {
      pos_ = start;
      fail("invalid number '" + token + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open around pos_
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace cosched
