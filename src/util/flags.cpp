#include "cts/util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "cts/util/error.hpp"

namespace cts::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;  // ignore positionals
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      const std::string key = token.substr(0, eq);
      require(!key.empty(), "Flags: empty flag name in '--" + token + "'");
      values_[key] = token.substr(eq + 1);
      continue;
    }
    require(!token.empty(), "Flags: bare '--' is not a flag");
    // "--key value" when the next token is not itself a flag; otherwise a
    // boolean "--key".
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[i + 1];
      ++i;
    } else {
      values_[token] = "true";
    }
  }
}

bool Flags::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::get_string(const std::string& key,
                              const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  // Strict full-string parse (the env_int treatment): "--reps=12abc" would
  // otherwise run 12 replications, and an overflowing value would wrap.
  if (!try_parse_int(it->second, &value)) {
    throw InvalidArgument("Flags: --" + key + " expects an integer, got '" +
                          it->second + "'");
  }
  return value;
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  // Strict full-string parse: std::stod would silently accept "1.5abc" and
  // a threshold typo would gate on the wrong number.
  if (!try_parse_double(it->second, &value)) {
    throw InvalidArgument("Flags: --" + key + " expects a number, got '" +
                          it->second + "'");
  }
  return value;
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::vector<std::string> Flags::unknown_keys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown.push_back(key);  // values_ is sorted, so unknown is too
    }
  }
  return unknown;
}

namespace {

/// Levenshtein distance with early exit once the best achievable distance
/// exceeds `limit` (flag names are short, so the O(a*b) matrix is cheap).
std::size_t edit_distance(const std::string& a, const std::string& b,
                          std::size_t limit) {
  if (a.size() > b.size() + limit || b.size() > a.size() + limit) {
    return limit + 1;
  }
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> curr(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    std::size_t row_min = curr[0];
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, sub});
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > limit) return limit + 1;
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

}  // namespace

std::string Flags::suggest(const std::string& key,
                           const std::vector<std::string>& known) {
  // A typo plausibly maps back when it is within 2 edits and the edits do
  // not rewrite most of the word (--x is never "close to" --csv).
  const std::size_t limit = 2;
  std::string best;
  std::size_t best_distance = limit + 1;
  for (const std::string& candidate : known) {
    const std::size_t d = edit_distance(key, candidate, limit);
    if (d < best_distance && 2 * d < std::max(key.size(), candidate.size())) {
      best = candidate;
      best_distance = d;
    }
  }
  return best;
}

std::size_t Flags::warn_unknown(std::ostream& os,
                                const std::vector<std::string>& known) const {
  const std::vector<std::string> unknown = unknown_keys(known);
  if (unknown.empty()) return 0;
  for (const auto& key : unknown) {
    os << "[warning: unknown flag --" << key << " ignored";
    const std::string near = suggest(key, known);
    if (!near.empty()) os << " (did you mean --" << near << "?)";
    os << "]\n";
  }
  os << "[known flags:";
  for (const auto& key : known) os << " --" << key;
  os << "]\n";
  return unknown.size();
}

bool try_parse_double(const std::string& text, double* out) noexcept {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  // Overflow is an error; underflow to zero/denormal is an acceptable
  // representation of a tiny input.
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    return false;
  }
  if (out != nullptr) *out = value;
  return true;
}

bool try_parse_int(const std::string& text, std::int64_t* out) noexcept {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  if (errno == ERANGE) return false;
  if (out != nullptr) *out = value;
  return true;
}

bool try_parse_u64(const std::string& text, std::uint64_t* out) noexcept {
  // strtoull alone would accept leading whitespace and a sign (and negate
  // "-1" to 2^64 - 1), so the digits-only check comes first.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  if (out != nullptr) *out = value;
  return true;
}

bool env_flag(const std::string& name) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return false;
  std::string v = raw;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  // A set-but-malformed value is a user error, never a silent fallback:
  // "REPRO_REPS=12abc" would otherwise run 12 replications (std::stoll
  // accepts partial parses) and an overflowing value would silently run at
  // default scale.  Require one full-string integer.
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') {
    throw InvalidArgument("env " + name + ": expected an integer, got '" +
                          raw + "'");
  }
  if (errno == ERANGE) {
    throw InvalidArgument("env " + name + ": value '" + raw +
                          "' is out of range for a 64-bit integer");
  }
  return value;
}

}  // namespace cts::util
