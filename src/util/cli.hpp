// Minimal command-line flag parser for the example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name`. Unknown flags
// are reported rather than silently ignored so example invocations stay honest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace motsim {

class CliArgs {
 public:
  /// Parses argv. On malformed input, `ok()` is false and `error()` explains.
  CliArgs(int argc, const char* const* argv);

  /// False once argv or a value read by get_int/get_count was malformed;
  /// `error()` names the first offending flag. Check it after the last get.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  /// Signed decimal (for values where a negative means "none"). Anything
  /// but an optional '-' and digits is an error, and yields `def`.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Count or millisecond value: a non-negative decimal no larger than
  /// `max`, with no sign and no trailing characters. Anything else is an
  /// error, and yields `def`.
  std::uint64_t get_count(const std::string& name, std::uint64_t def,
                          std::uint64_t max = UINT64_MAX) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were parsed but never queried; used by examples to warn about
  /// typos. Call after all get()/has() calls.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  mutable std::string error_;
};

}  // namespace motsim
