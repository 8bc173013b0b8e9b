// Minimal command-line flag parser for the example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name`. A program
// reads its flags, then calls finish(): a flag it never asked for is an
// error, so a typo stops the program instead of running it on defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace motsim {

class CliArgs {
 public:
  /// Splits argv into flags and positionals. Parsing cannot fail: values
  /// are checked when a getter reads them, and unknown flags by finish().
  CliArgs(int argc, const char* const* argv);

  /// False once a value read by a typed getter was malformed, or once
  /// finish() found an unknown flag; `error()` names the first offending
  /// flag.
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
  /// A bare `--name` is true. A value must be true/1/yes or false/0/no;
  /// anything else (such as a path that `--name path` took as the value)
  /// is an error, and yields `def`.
  bool get_bool(const std::string& name, bool def = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Ends the flag reads: a flag that no getter (has() included) queried
  /// becomes the error, unless a malformed value already is. Returns ok().
  bool finish() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  mutable std::string error_;
};

}  // namespace motsim
