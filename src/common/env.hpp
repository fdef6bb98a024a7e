// Environment-variable configuration knobs.
//
// gossip_run scales the paper's experiments down by default so a sweep
// over every registered scenario finishes in minutes; these helpers read
// the GOSSIP_* overrides that restore paper scale.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace gossip {

/// A GOSSIP_* knob holds a value the harness cannot honor. The message is
/// one line, names the variable, and quotes the offending value —
/// callers print it verbatim and exit.
class EnvError : public std::runtime_error {
public:
  explicit EnvError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Raw environment lookup; empty optional when unset.
std::optional<std::string> env_string(const std::string& name);

// ---- strict knob parsing (the spec-resolution layer) -------------------
//
// The engine facade resolves GOSSIP_THREADS / GOSSIP_SHARDS / GOSSIP_FULL
// through these: a malformed or zero value must stop the run with a clear
// one-line EnvError instead of silently falling back — a typo'd
// GOSSIP_THREADS=1O would otherwise quietly serialize a 64-core sweep.

/// Positive integer knob: unset => `fallback`; anything that is not a
/// plain positive decimal integer (including 0, "", trailing garbage,
/// negatives) => EnvError.
std::uint64_t env_u64_positive(const std::string& name,
                               std::uint64_t fallback);

/// Strict integer knob that allows zero (seeds): unset => `fallback`;
/// malformed => EnvError.
std::uint64_t env_u64_checked(const std::string& name,
                              std::uint64_t fallback);

/// Strict boolean knob: unset => false; 1/true/on/yes => true;
/// 0/false/off/no => false (case-insensitive); anything else => EnvError.
bool env_flag_strict(const std::string& name);

}  // namespace gossip
