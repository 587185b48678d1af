#include "obs/diff.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace cosched::obs {
namespace {

std::vector<std::string> split_lines(const std::string& doc) {
  std::vector<std::string> lines;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Parse a trace line; nullptr-kind (null JsonValue has kind kNull) can't
/// distinguish "parsed null" from "unparseable", so track success
/// separately.
bool try_parse(const std::string& line, JsonValue* out) {
  try {
    *out = parse_json(line);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Structural equality on parsed JSON (numbers as the parser's doubles —
/// both sides came through the same parser, so this is exact for any
/// value the writer can round-trip).
bool json_equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.as_bool() == b.as_bool();
    case JsonValue::Kind::kNumber: return a.as_number() == b.as_number();
    case JsonValue::Kind::kString: return a.as_string() == b.as_string();
    case JsonValue::Kind::kArray: {
      const auto& av = a.as_array();
      const auto& bv = b.as_array();
      if (av.size() != bv.size()) return false;
      for (std::size_t i = 0; i < av.size(); ++i) {
        if (!json_equal(av[i], bv[i])) return false;
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      if (a.keys() != b.keys()) return false;
      for (const std::string& key : a.keys()) {
        if (!json_equal(a.at(key), b.at(key))) return false;
      }
      return true;
    }
  }
  return false;
}

bool is_manifest(const JsonValue& v) {
  if (v.kind() != JsonValue::Kind::kObject) return false;
  const JsonValue* type = v.find("type");
  return type != nullptr && type->kind() == JsonValue::Kind::kString &&
         type->as_string() == "manifest";
}

/// Object equality ignoring the given key (manifest "execution" block:
/// runs required to agree byte-for-byte may legitimately differ there).
bool objects_equal_ignoring(const JsonValue& a, const JsonValue& b,
                            const std::string& ignored) {
  auto keys_of = [&ignored](const JsonValue& v) {
    std::vector<std::string> keys = v.keys();
    keys.erase(std::remove(keys.begin(), keys.end(), ignored), keys.end());
    return keys;
  };
  const auto a_keys = keys_of(a);
  if (a_keys != keys_of(b)) return false;
  for (const std::string& key : a_keys) {
    if (!json_equal(a.at(key), b.at(key))) return false;
  }
  return true;
}

/// Are two trace records the same, up to non-semantic metadata?
bool records_equal(const std::string& a_line, const std::string& b_line) {
  if (a_line == b_line) return true;
  JsonValue a;
  JsonValue b;
  if (!try_parse(a_line, &a) || !try_parse(b_line, &b)) return false;
  if (is_manifest(a) && is_manifest(b)) {
    return objects_equal_ignoring(a, b, "execution");
  }
  return json_equal(a, b);
}

void render_scalar(std::ostream& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out << "null"; break;
    case JsonValue::Kind::kBool: out << (v.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::kNumber: {
      if (const std::optional<std::int64_t> i = v.exact_int()) {
        out << *i;
      } else {
        out << v.as_number();
      }
      break;
    }
    case JsonValue::Kind::kString: out << '"' << v.as_string() << '"'; break;
    case JsonValue::Kind::kArray: {
      out << '[';
      const auto& items = v.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out << ',';
        render_scalar(out, items[i]);
      }
      out << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out << '{';
      bool first = true;
      for (const std::string& key : v.keys()) {
        if (!first) out << ' ';
        first = false;
        out << key << '=';
        render_scalar(out, v.at(key));
      }
      out << '}';
      break;
    }
  }
}

/// One record decoded to "type=... t_us=... field=value ...", with type
/// and t_us hoisted to the front so the eye lands on the event kind and
/// sim-time first. Lines TraceRecord::parse rejects render raw.
std::string decode(const std::string& line) {
  TraceRecord record;
  try {
    record = TraceRecord::parse(line);
  } catch (const Error&) {
    return line;
  }
  std::ostringstream out;
  out << "type=" << record.type << " t_us=" << record.t_us;
  for (const std::string& key : record.fields.keys()) {
    if (key == "type" || key == "t_us") continue;
    out << ' ' << key << '=';
    render_scalar(out, record.fields.at(key));
  }
  return out.str();
}

/// First field (document order) whose values disagree between two parsed
/// records; empty when the difference is structural (key sets differ) or
/// the lines did not parse.
std::string first_differing_field(const std::string& a_line,
                                  const std::string& b_line,
                                  std::string* a_val, std::string* b_val) {
  JsonValue a;
  JsonValue b;
  if (!try_parse(a_line, &a) || !try_parse(b_line, &b)) return "";
  if (a.kind() != JsonValue::Kind::kObject ||
      b.kind() != JsonValue::Kind::kObject) {
    return "";
  }
  for (const std::string& key : a.keys()) {
    const JsonValue* other = b.find(key);
    if (other == nullptr) continue;
    if (!json_equal(a.at(key), *other)) {
      std::ostringstream av;
      std::ostringstream bv;
      render_scalar(av, a.at(key));
      render_scalar(bv, *other);
      *a_val = av.str();
      *b_val = bv.str();
      return key;
    }
  }
  return "";
}

/// Scheduler-pass context at a record index: scans the common prefix for
/// the nearest enclosing pass_begin/pass_end pair.
std::string pass_context(const std::vector<std::string>& lines,
                         std::size_t div) {
  std::int64_t pass = -1;
  std::size_t begin_at = 0;
  bool inside = false;
  for (std::size_t i = 0; i < div && i < lines.size(); ++i) {
    JsonValue v;
    if (!try_parse(lines[i], &v) || v.kind() != JsonValue::Kind::kObject) {
      continue;
    }
    const JsonValue* type = v.find("type");
    if (type == nullptr || type->kind() != JsonValue::Kind::kString) continue;
    if (type->as_string() == "pass_begin") {
      const JsonValue* p = v.find("pass");
      pass = p != nullptr ? p->exact_int().value_or(-1) : -1;
      begin_at = i;
      inside = true;
    } else if (type->as_string() == "pass_end") {
      inside = false;
    }
  }
  std::ostringstream out;
  if (inside) {
    out << "inside scheduler pass " << pass << " (pass_begin at record "
        << begin_at << ")";
  } else if (pass >= 0) {
    out << "between scheduler passes (last complete pass " << pass << ")";
  } else {
    out << "before the first scheduler pass";
  }
  return out.str();
}

}  // namespace

DiffResult diff_streams(const std::string& a_name, const std::string& a_jsonl,
                        const std::string& b_name, const std::string& b_jsonl,
                        const DiffOptions& opts) {
  const std::vector<std::string> a = split_lines(a_jsonl);
  const std::vector<std::string> b = split_lines(b_jsonl);
  const std::size_t shared = std::min(a.size(), b.size());

  DiffResult result;
  std::size_t div = shared;
  for (std::size_t i = 0; i < shared; ++i) {
    if (!records_equal(a[i], b[i])) {
      div = i;
      break;
    }
  }

  std::ostringstream out;
  out << "A: " << a_name << " (" << a.size() << " records)\n"
      << "B: " << b_name << " (" << b.size() << " records)\n";

  if (div == shared && a.size() == b.size()) {
    result.identical = true;
    result.first_divergence = a.size();
    out << "streams identical (" << a.size() << " records)\n";
    result.report = out.str();
    return result;
  }

  result.identical = false;
  result.first_divergence = div;
  out << "first divergence: record " << div << " (0-based)\n"
      << "  " << pass_context(a, div) << "\n";

  const auto context = static_cast<std::size_t>(std::max(opts.context, 0));
  const std::size_t from = div > context ? div - context : 0;
  if (from < div) {
    out << "  last records both streams agree on:\n";
    for (std::size_t i = from; i < div; ++i) {
      out << "    [" << i << "] " << decode(a[i]) << "\n";
    }
  }

  if (div < a.size() && div < b.size()) {
    out << "  A[" << div << "]: " << decode(a[div]) << "\n"
        << "  B[" << div << "]: " << decode(b[div]) << "\n";
    std::string a_val;
    std::string b_val;
    const std::string field =
        first_differing_field(a[div], b[div], &a_val, &b_val);
    if (!field.empty()) {
      out << "  first differing field: " << field << " (" << a_val << " vs "
          << b_val << ")\n";
    }
    out << "  A raw: " << a[div] << "\n"
        << "  B raw: " << b[div] << "\n";
  } else {
    // One stream is a strict prefix of the other.
    const bool a_longer = a.size() > b.size();
    const auto& longer = a_longer ? a : b;
    out << "  " << (a_longer ? "B" : "A")
        << " ends here; " << (a_longer ? "A" : "B") << " continues:\n";
    const std::size_t to = std::min(longer.size(), div + 1 + context);
    for (std::size_t i = div; i < to; ++i) {
      out << "    " << (a_longer ? "A" : "B") << "[" << i << "] "
          << decode(longer[i]) << "\n";
    }
  }

  for (const auto* side : {&a, &b}) {
    const char tag = side == &a ? 'A' : 'B';
    const std::size_t to = std::min(side->size(), div + 1 + context);
    if (div + 1 < to) {
      out << "  " << tag << " records after the divergence:\n";
      for (std::size_t i = div + 1; i < to; ++i) {
        out << "    " << tag << "[" << i << "] " << decode((*side)[i]) << "\n";
      }
    }
  }

  result.report = out.str();
  return result;
}

}  // namespace cosched::obs
