// Minimal command-line flag parsing for examples and bench binaries.
// Supports "--name=value", "--name value", and bare "--name" booleans.
// Flags no getter read are listed by unused(); the CLI warns about them
// after the run instead of failing it.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace cosched {

class Flags {
 public:
  /// Parses argv. Positional (non --) arguments are collected in order.
  Flags(int argc, const char* const* argv);

  /// Typed getters with defaults. A present-but-valueless flag reads as
  /// "true" for booleans and is an error for other types.
  std::string get_string(const std::string& name,
                         const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// get_int that must lie in [lo, hi], as an int: an out-of-range value
  /// fails with one line naming the flag and the range.
  int get_int_in(const std::string& name, int def, int lo,
                 int hi = std::numeric_limits<int>::max()) const;
  /// Rejects NaN and infinities as well as malformed numbers.
  double get_double(const std::string& name, double def) const;
  /// get_double that must be > 0 when the flag is given.
  double get_positive_double(const std::string& name, double def) const;
  /// A number of seconds in [0, kMaxInputSeconds], as a SimDuration.
  SimDuration get_seconds(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  bool has(const std::string& name) const;
  const std::vector<std::string>& positional() const { return positional_; }

  /// Returns flags that were parsed but never read by a getter — callers
  /// print these as "unused flag" warnings after wiring all getters.
  std::vector<std::string> unused() const;

 private:
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace cosched
