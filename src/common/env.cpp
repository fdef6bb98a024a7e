#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace gossip {

std::optional<std::string> env_string(const std::string& name) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  return std::string(raw);
}

namespace {

/// Strict decimal parse shared by the checked knobs; empty optional on
/// anything that is not a plain uint64.
std::optional<std::uint64_t> parse_strict_u64(const std::string& s) {
  const bool all_digits =
      !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      });
  if (!all_digits || s.size() > 20) return std::nullopt;
  try {
    return std::stoull(s);
  } catch (...) {
    return std::nullopt;  // > 2^64-1
  }
}

}  // namespace

std::uint64_t env_u64_positive(const std::string& name,
                               std::uint64_t fallback) {
  const auto raw = env_string(name);
  if (!raw) return fallback;
  const auto value = parse_strict_u64(*raw);
  if (!value || *value == 0) {
    throw EnvError(name + ": expected a positive integer, got '" + *raw +
                   "'");
  }
  return *value;
}

std::uint64_t env_u64_checked(const std::string& name,
                              std::uint64_t fallback) {
  const auto raw = env_string(name);
  if (!raw) return fallback;
  const auto value = parse_strict_u64(*raw);
  if (!value) {
    throw EnvError(name + ": expected an unsigned integer, got '" + *raw +
                   "'");
  }
  return *value;
}

bool env_flag_strict(const std::string& name) {
  const auto raw = env_string(name);
  if (!raw) return false;
  std::string lowered = *raw;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lowered == "1" || lowered == "true" || lowered == "on" ||
      lowered == "yes") {
    return true;
  }
  if (lowered == "0" || lowered == "false" || lowered == "off" ||
      lowered == "no") {
    return false;
  }
  throw EnvError(name + ": expected a boolean (1/0/true/false/on/off), got '" +
                 *raw + "'");
}

}  // namespace gossip
