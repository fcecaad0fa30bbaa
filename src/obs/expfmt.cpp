#include "cts/obs/expfmt.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

namespace cts::obs {

namespace {

// OpenMetrics sample values: decimal doubles plus the spelled infinities.
// Shortest round-trip formatting so common edges render as written
// ("0.1", not "0.10000000000000001") without losing precision.
std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string render_labels(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += openmetrics_label_escape(v);
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string openmetrics_name(const std::string& name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string openmetrics_label_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void write_openmetrics(std::ostream& os, const MetricsShard& shard,
                       const OpenMetricsOptions& opts) {
  const std::string base_labels = render_labels(opts.labels);
  // One exposition never declares a family twice, even when different
  // registry sections sanitize to the same name: a later family takes
  // '_' suffixes until its name is free.
  std::set<std::string> used;
  const auto family = [&used](const std::string& raw) {
    std::string name = openmetrics_name(raw);
    while (used.count(name) > 0) name += "_";
    used.insert(name);
    return name;
  };
  const auto with_extra = [&opts](const std::string& k, const std::string& v) {
    auto labels = opts.labels;
    labels.emplace_back(k, v);
    return render_labels(labels);
  };

  for (const auto& [raw, v] : shard.counters()) {
    const std::string name = family(raw);
    os << "# TYPE " << name << " counter\n";
    os << name << "_total" << base_labels << " " << v << "\n";
  }

  for (const auto& [raw, s] : shard.sums()) {
    const std::string name = family(raw);
    os << "# TYPE " << name << " gauge\n";
    os << name << base_labels << " " << format_value(s.value()) << "\n";
  }

  for (const auto& [raw, g] : shard.gauges()) {
    const std::string name = family(raw);
    os << "# TYPE " << name << " gauge\n";
    os << name << base_labels << " " << format_value(g.value) << "\n";
  }

  for (const auto& [raw, h] : shard.log_histograms()) {
    const std::string name = family(raw);
    os << "# TYPE " << name << " summary\n";
    for (const double q : {0.5, 0.95, 0.99, 0.999}) {
      os << name << with_extra("quantile", format_value(q)) << " "
         << format_value(h.percentile(q)) << "\n";
    }
    const auto& st = h.stats();
    const double sum =
        st.count() > 0 ? st.mean() * static_cast<double>(st.count()) : 0.0;
    os << name << "_sum" << base_labels << " " << format_value(sum) << "\n";
    os << name << "_count" << base_labels << " " << st.count() << "\n";
  }

  os << "# EOF\n";
}

// ---------------------------------------------------------------------------
// Validator

namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

bool parse_sample_value(const std::string& s, double* out) {
  if (s == "+Inf") { *out = HUGE_VAL; return true; }
  if (s == "-Inf") { *out = -HUGE_VAL; return true; }
  if (s == "NaN") { *out = NAN; return true; }
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

struct Sample {
  std::string family;  ///< declared family this sample belongs to
  std::string suffix;  ///< "", "_total", "_bucket", "_sum", "_count", ...
  std::map<std::string, std::string> labels;
  double value = 0.0;
  std::size_t line = 0;
};

/// Parses `name{k="v",...} value [timestamp]`; returns false with *err set.
bool parse_sample_line(const std::string& line, std::string* name,
                       std::map<std::string, std::string>* labels,
                       double* value, std::string* err) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  *name = line.substr(0, i);
  if (!valid_metric_name(*name)) {
    *err = "invalid metric name '" + *name + "'";
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      if (eq == std::string::npos) { *err = "malformed label set"; return false; }
      const std::string key = line.substr(i, eq - i);
      if (key.empty() || !valid_metric_name(key) ||
          key.find(':') != std::string::npos) {
        *err = "invalid label name '" + key + "'";
        return false;
      }
      if (eq + 1 >= line.size() || line[eq + 1] != '"') {
        *err = "label value for '" + key + "' is not quoted";
        return false;
      }
      std::string val;
      std::size_t j = eq + 2;
      bool closed = false;
      while (j < line.size()) {
        const char c = line[j];
        if (c == '\\') {
          if (j + 1 >= line.size()) break;
          const char n = line[j + 1];
          if (n == '\\') val += '\\';
          else if (n == '"') val += '"';
          else if (n == 'n') val += '\n';
          else { *err = "bad escape in label value"; return false; }
          j += 2;
        } else if (c == '"') {
          closed = true;
          ++j;
          break;
        } else {
          val += c;
          ++j;
        }
      }
      if (!closed) { *err = "unterminated label value"; return false; }
      if (labels->count(key) > 0) {
        *err = "duplicate label '" + key + "'";
        return false;
      }
      (*labels)[key] = val;
      i = j;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      *err = "label set not closed";
      return false;
    }
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    *err = "expected space before sample value";
    return false;
  }
  ++i;
  const std::size_t sp = line.find(' ', i);
  const std::string value_str =
      sp == std::string::npos ? line.substr(i) : line.substr(i, sp - i);
  if (!parse_sample_value(value_str, value)) {
    *err = "unparseable sample value '" + value_str + "'";
    return false;
  }
  if (sp != std::string::npos) {
    // Optional timestamp: must itself be a number.
    double ts = 0.0;
    const std::string ts_str = line.substr(sp + 1);
    if (!parse_sample_value(ts_str, &ts)) {
      *err = "unparseable timestamp '" + ts_str + "'";
      return false;
    }
  }
  return true;
}

std::string labels_key(const std::map<std::string, std::string>& labels,
                       const std::set<std::string>& skip = {}) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (skip.count(k) > 0) continue;
    out += k;
    out += "=";
    out += v;
    out += ";";
  }
  return out;
}

}  // namespace

std::vector<std::string> validate_openmetrics(const std::string& text) {
  std::vector<std::string> errors;
  const auto fail = [&errors](std::size_t line_no, const std::string& what) {
    errors.push_back("line " + std::to_string(line_no) + ": " + what);
  };

  if (text.empty() || text.back() != '\n') {
    errors.push_back("exposition must end with a newline");
  }

  std::map<std::string, std::string> families;  // name -> type
  std::vector<Sample> samples;
  std::set<std::string> seen_sample_keys;
  bool saw_eof = false;

  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (saw_eof) {
      fail(line_no, "content after '# EOF' terminator");
      break;
    }
    if (line.empty()) {
      fail(line_no, "empty line (not allowed in OpenMetrics)");
      continue;
    }
    if (line[0] == '#') {
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      std::istringstream ls(line);
      std::string hash, kind, name;
      ls >> hash >> kind >> name;
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (!valid_metric_name(name)) {
          fail(line_no, "invalid family name '" + name + "'");
          continue;
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "unknown" && type != "info" &&
            type != "stateset" && type != "gaugehistogram") {
          fail(line_no, "unknown metric type '" + type + "'");
          continue;
        }
        if (families.count(name) > 0) {
          fail(line_no, "family '" + name + "' declared twice");
          continue;
        }
        families[name] = type;
      } else if (kind != "HELP" && kind != "UNIT") {
        fail(line_no, "unknown comment directive '" + kind + "'");
      }
      continue;
    }

    Sample s;
    s.line = line_no;
    std::string name, err;
    if (!parse_sample_line(line, &name, &s.labels, &s.value, &err)) {
      fail(line_no, err);
      continue;
    }
    // Resolve the declared family: exact match first, then the type
    // suffixes OpenMetrics reserves.
    static const char* kSuffixes[] = {"_total", "_bucket", "_sum", "_count",
                                      "_created"};
    if (families.count(name) > 0) {
      s.family = name;
    } else {
      for (const char* suffix : kSuffixes) {
        const std::size_t len = std::string(suffix).size();
        if (name.size() > len &&
            name.compare(name.size() - len, len, suffix) == 0) {
          const std::string base = name.substr(0, name.size() - len);
          if (families.count(base) > 0) {
            s.family = base;
            s.suffix = suffix;
            break;
          }
        }
      }
    }
    if (s.family.empty()) {
      fail(line_no, "sample '" + name + "' has no preceding # TYPE family");
      continue;
    }

    const std::string& type = families[s.family];
    if (type == "counter") {
      if (s.suffix != "_total" && s.suffix != "_created") {
        fail(line_no, "counter sample must be '" + s.family + "_total'");
      }
      if (s.value < 0.0) fail(line_no, "counter value is negative");
    } else if (type == "gauge") {
      if (!s.suffix.empty()) {
        fail(line_no,
             "gauge sample must use the bare family name '" + s.family + "'");
      }
    } else if (type == "histogram") {
      if (s.suffix == "_bucket" && s.labels.count("le") == 0) {
        fail(line_no, "histogram bucket without 'le' label");
      }
      if (s.suffix.empty()) {
        fail(line_no, "histogram sample needs a _bucket/_sum/_count suffix");
      }
    } else if (type == "summary") {
      if (s.suffix.empty() && s.labels.count("quantile") == 0) {
        fail(line_no, "summary sample without 'quantile' label");
      }
      if (s.labels.count("quantile") > 0) {
        double q = 0.0;
        if (!parse_sample_value(s.labels.at("quantile"), &q) || q < 0.0 ||
            q > 1.0) {
          fail(line_no, "summary quantile outside [0, 1]");
        }
      }
    }

    const std::string key = name + "|" + labels_key(s.labels);
    if (!seen_sample_keys.insert(key).second) {
      fail(line_no, "duplicate sample '" + name + "'");
    }
    samples.push_back(std::move(s));
  }

  if (!saw_eof) {
    errors.push_back("missing '# EOF' terminator");
  }

  // Cross-sample checks per family (and per label set minus le/quantile).
  for (const auto& [fname, type] : families) {
    if (type == "histogram") {
      // group -> ordered (le, cumulative count) plus the _count value.
      std::map<std::string, std::vector<std::pair<double, double>>> buckets;
      std::map<std::string, double> counts;
      std::map<std::string, std::size_t> first_line;
      for (const Sample& s : samples) {
        if (s.family != fname) continue;
        const std::string group = labels_key(s.labels, {"le"});
        if (first_line.count(group) == 0) first_line[group] = s.line;
        if (s.suffix == "_bucket") {
          double le = 0.0;
          if (s.labels.count("le") == 0 ||
              !parse_sample_value(s.labels.at("le"), &le)) {
            continue;  // already reported above
          }
          buckets[group].emplace_back(le, s.value);
        } else if (s.suffix == "_count") {
          counts[group] = s.value;
        }
      }
      for (const auto& [group, seq] : buckets) {
        const std::size_t at = first_line[group];
        for (std::size_t i = 1; i < seq.size(); ++i) {
          if (seq[i].first <= seq[i - 1].first) {
            fail(at, "histogram '" + fname + "' le edges not increasing");
          }
          if (seq[i].second < seq[i - 1].second) {
            fail(at, "histogram '" + fname +
                         "' bucket counts not cumulative (decreasing)");
          }
        }
        if (seq.empty() || !std::isinf(seq.back().first)) {
          fail(at, "histogram '" + fname + "' missing le=\"+Inf\" bucket");
        } else if (counts.count(group) > 0 &&
                   seq.back().second != counts[group]) {
          fail(at, "histogram '" + fname + "' +Inf bucket != _count");
        }
      }
    } else if (type == "summary") {
      bool has_quantile = false;
      for (const Sample& s : samples) {
        if (s.family == fname && s.labels.count("quantile") > 0) {
          has_quantile = true;
          break;
        }
      }
      if (!has_quantile) {
        errors.push_back("summary '" + fname +
                         "' has no quantile samples (quantile gauges "
                         "required)");
      }
    }
  }

  return errors;
}

}  // namespace cts::obs
