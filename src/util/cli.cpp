#include "util/cli.hpp"

#include <cstdint>

#include "util/strings.hpp"

namespace motsim {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--name value` if the next token is not itself a flag, else boolean.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  std::string_view digits = it->second;
  const bool negative = starts_with(digits, "-");
  if (negative) digits.remove_prefix(1);
  std::uint64_t magnitude = 0;
  if (!parse_u64(digits, magnitude) ||
      magnitude > static_cast<std::uint64_t>(INT64_MAX)) {
    if (error_.empty()) {
      error_ = "--" + name + ": expected an integer, got '" + it->second + "'";
    }
    return def;
  }
  const auto value = static_cast<std::int64_t>(magnitude);
  return negative ? -value : value;
}

std::uint64_t CliArgs::get_count(const std::string& name, std::uint64_t def,
                                 std::uint64_t max) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  std::uint64_t value = 0;
  if (!parse_u64(it->second, value) || value > max) {
    if (error_.empty()) {
      error_ = "--" + name + ": expected a non-negative integer" +
               (max == UINT64_MAX ? "" : " up to " + std::to_string(max)) +
               ", got '" + it->second + "'";
    }
    return def;
  }
  return value;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  queried_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  if (error_.empty()) {
    error_ = "--" + name + ": expected true or false, got '" + v + "'";
  }
  return def;
}

bool CliArgs::finish() const {
  if (!ok()) return false;
  for (const auto& flag : flags_) {
    if (!queried_.count(flag.first)) {
      error_ = "unknown flag --" + flag.first;
      return false;
    }
  }
  return true;
}

}  // namespace motsim
