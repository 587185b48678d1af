// Minimal streaming JSON writer (no DOM): correct escaping, automatic
// comma placement, scope balancing checked at destruction. Used by the
// report module to export simulation results for downstream analysis.
// Plus a small recursive-descent parser (JsonValue / parse_json) for
// reading the writer's output back — the golden-metrics regression suite
// round-trips its pinned baselines through it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace cosched {

class JsonWriter {
 public:
  JsonWriter() = default;

  // Scopes. Keys apply when inside an object.
  JsonWriter& begin_object();
  JsonWriter& begin_object(const std::string& key);
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key);
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Values (keyed forms for objects, bare forms for arrays).
  JsonWriter& value(const std::string& key, const std::string& v);
  JsonWriter& value(const std::string& key, const char* v);
  JsonWriter& value(const std::string& key, double v);
  JsonWriter& value(const std::string& key, std::int64_t v);
  JsonWriter& value(const std::string& key, int v);
  JsonWriter& value(const std::string& key, bool v);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(double v);

  /// The document; all scopes must be closed.
  std::string str() const;

  static std::string escape(const std::string& raw);

 private:
  void comma();
  void key_prefix(const std::string& key);
  void number(double v);

  std::ostringstream out_;
  /// One entry per open scope; true = next element is the scope's first
  /// (no comma needed). Empty at the root.
  std::vector<bool> first_;
};

/// A parsed JSON document node. Numbers are stored as double (sufficient
/// for the metric baselines this parser serves); object keys are ordered
/// so documents re-serialize deterministically.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; abort (COSCHED_CHECK) on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  /// The number as an int64 when it is integral and in int64's range;
  /// nullopt otherwise, and for any other kind. Never aborts.
  std::optional<std::int64_t> exact_int() const;

  /// Object access. `at` aborts on a missing key; `find` returns nullptr.
  const JsonValue& at(const std::string& key) const;
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Object keys in document order.
  std::vector<std::string> keys() const;

  // Construction (used by the parser and by tests).
  static JsonValue null();
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue string(std::string v);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Deepest nesting parse_json accepts: the parser and JsonValue's
/// destructor recurse once per level.
inline constexpr int kMaxJsonDepth = 256;

/// Parses a complete JSON document (trailing whitespace allowed, nothing
/// else). Throws cosched::Error with a line/column location on malformed
/// input, including nesting deeper than kMaxJsonDepth.
JsonValue parse_json(const std::string& text);

}  // namespace cosched
