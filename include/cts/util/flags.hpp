// Tiny command-line / environment flag parser for benches and examples.
//
// Experiments accept overrides like --frames=500000 --reps=60 and honour
// the REPRO_FULL=1 environment switch that selects the paper's full
// simulation scale.  This parser supports only what the harness needs:
// --key=value and --key value pairs plus boolean --key.

#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cts::util {

/// Parsed command-line flags with typed accessors and defaults.
class Flags {
 public:
  /// Parses argv; unknown positional arguments are ignored.  Throws
  /// InvalidArgument on a malformed flag token (e.g. "--=3").
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Parsed --key tokens that are not in `known`, sorted.  A typo like
  /// --frmes=500000 is otherwise silently ignored and the run proceeds at
  /// default scale.
  std::vector<std::string> unknown_keys(
      const std::vector<std::string>& known) const;

  /// Prints one warning line per unknown key to `os` (listing the known
  /// flags once); returns the number of unknown keys.  When an unknown key
  /// is a near-miss of a known flag the warning names it:
  ///   [warning: unknown flag --metrcs ignored (did you mean --metrics?)]
  std::size_t warn_unknown(std::ostream& os,
                           const std::vector<std::string>& known) const;

  /// The known flag closest to `key` in edit distance, or "" when nothing
  /// is close enough to plausibly be a typo (distance must be <= 2 and
  /// strictly less than half the key length).
  static std::string suggest(const std::string& key,
                             const std::vector<std::string>& known);

 private:
  std::map<std::string, std::string> values_;
};

/// Strict full-string double parse: `text` must be exactly one finite
/// decimal/scientific number ("1.5", "-2e3").  Returns false on empty
/// input, trailing junk ("1.5abc"), or overflow ("1e999").  Underflow to
/// zero/denormal is accepted.  Stores the value in *out on success.
bool try_parse_double(const std::string& text, double* out) noexcept;

/// Strict full-string integer parse (the env_int treatment): `text` must
/// be exactly one base-10 64-bit integer.  Returns false on empty input,
/// trailing junk ("12abc"), or overflow.
bool try_parse_int(const std::string& text, std::int64_t* out) noexcept;

/// Strict full-string unsigned parse: `text` must be one or more decimal
/// digits and nothing else (no sign, no whitespace) whose value fits in
/// 64 bits.  Returns false on empty input, any other character, or
/// overflow ("18446744073709551616").
bool try_parse_u64(const std::string& text, std::uint64_t* out) noexcept;

/// True when environment variable `name` is set to a truthy value
/// ("1", "true", "yes", "on", case-insensitive).
bool env_flag(const std::string& name);

/// Reads an integer environment variable, returning `fallback` when unset.
/// A set-but-malformed value (partial parse like "12abc", overflow, empty)
/// throws InvalidArgument naming the variable and the offending value —
/// a typo'd override must never silently run at the wrong scale.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

}  // namespace cts::util
