#include "util/flags.hpp"

#include <charconv>
#include <cmath>

#include "util/check.hpp"

namespace cosched {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    COSCHED_REQUIRE(!body.empty(), "bare '--' is not a valid flag");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";  // valueless flag: boolean "true"
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  used_[name] = true;
  return &it->second;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& def) const {
  const std::string* v = find(name);
  return v ? *v : def;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const std::string* v = find(name);
  if (!v) return def;
  std::int64_t out = 0;
  auto [p, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  COSCHED_REQUIRE(ec == std::errc{} && p == v->data() + v->size(),
                  "flag --" << name << " expects an integer, got '" << *v
                            << "'");
  return out;
}

int Flags::get_int_in(const std::string& name, int def, int lo,
                      int hi) const {
  const std::int64_t out = get_int(name, def);
  COSCHED_REQUIRE(out >= lo && out <= hi,
                  "flag --" << name << " must be between " << lo << " and "
                            << hi << ", got " << out);
  return static_cast<int>(out);
}

double Flags::get_double(const std::string& name, double def) const {
  const std::string* v = find(name);
  if (!v) return def;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  COSCHED_REQUIRE(end == v->c_str() + v->size() && !v->empty(),
                  "flag --" << name << " expects a number, got '" << *v
                            << "'");
  COSCHED_REQUIRE(std::isfinite(out),
                  "flag --" << name << " expects a finite number, got '"
                            << *v << "'");
  return out;
}

double Flags::get_positive_double(const std::string& name,
                                  double def) const {
  if (!has(name)) return def;
  const double out = get_double(name, def);
  COSCHED_REQUIRE(out > 0, "flag --" << name << " must be positive, got "
                                     << out);
  return out;
}

SimDuration Flags::get_seconds(const std::string& name, double def) const {
  const double s = get_double(name, def);
  COSCHED_REQUIRE(s >= 0 && s <= static_cast<double>(kMaxInputSeconds),
                  "flag --" << name << " must be between 0 and "
                            << kMaxInputSeconds << " s, got " << s);
  return from_seconds(s);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const std::string* v = find(name);
  if (!v) return def;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw Error("flag --" + name + " expects a boolean, got '" + *v + "'");
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!used_.count(name)) out.push_back(name);
  }
  return out;
}

}  // namespace cosched
