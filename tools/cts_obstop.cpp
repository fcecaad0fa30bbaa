// cts-obstop: live status monitor for cts_shardd workers.
//
//   cts_obstop --workers=HOST:PORT,... [--interval=SECS] [--iterations=N]
//              [--timeout=SECS] [--slo=METRIC:pQ:MS,...] [--check] [--quiet]
//   cts_obstop --workers=HOST:PORT,... --json
//   cts_obstop --workers=HOST:PORT --openmetrics
//   cts_obstop --validate FILE.json... FILE.jsonl... FILE.om...
//
// Polls each worker's cts.statsreq.v1 endpoint (the job port — cts_shardd
// answers stats concurrently with jobs, without touching the job budget)
// and renders one throttled table row per worker: pid, uptime, jobs in
// flight / ok / failed / retried, served stats queries, the job wall time
// observed by the worker itself, and the p50/p95/p99/p999 job latency from
// the worker's log-bucketed histogram (2% relative error).  On a TTY the
// table repaints in place; when stdout is a pipe it appends one table per
// poll.
//
// --slo=METRIC:pQ:MS declares a latency objective against any log
// histogram the worker exports ("shardd.job_wall_ms:p99:250" = the job
// p99 must stay under 250 ms; comma-separate several).  A breaching
// worker's row turns red on a TTY and the breach is reported on stderr.
// --check makes it a gate: poll once and exit 3 when any SLO is breached.
//
// --json is the scripting mode: query every worker once and print the raw
// schema-valid cts.stats.v1 replies verbatim — a single worker's object as
// is, several workers wrapped in a JSON array — then exit.  CI uses it to
// probe live daemons.  --openmetrics asks one worker (exactly one — a
// merged exposition would repeat TYPE lines) for the OpenMetrics 1.0 text
// variant and prints it verbatim, scrape-style.
//
// --validate turns the tool into the strict checker for the observability
// artifacts: each *.jsonl argument is checked line by line as cts.events.v1
// (every line a strict RFC 8259 object with a "schema" string member),
// *.om / *.prom / *.openmetrics as OpenMetrics 1.0 text (type lines,
// cumulative bucket monotonicity, quantile ranges, single EOF), any other
// file as one strict JSON document (a merged trace or a stats reply).
//
// Exit codes: 0 success, 1 a worker could not be queried (or a validated
// file failed), 2 usage errors, 3 an SLO breached under --check.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cts/net/socket.hpp"
#include "cts/net/stats.hpp"
#include "cts/obs/expfmt.hpp"
#include "cts/obs/json.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/table.hpp"

namespace net = cts::net;
namespace obs = cts::obs;
namespace cu = cts::util;
namespace sim = cts::sim;

namespace {

void usage() {
  std::printf(
      "usage: cts_obstop --workers=HOST:PORT,... [--interval=SECS]\n"
      "                  [--iterations=N] [--timeout=SECS]\n"
      "                  [--slo=METRIC:pQ:MS,...] [--check] [--quiet]\n"
      "       cts_obstop --workers=HOST:PORT,... --json\n"
      "       cts_obstop --workers=HOST:PORT --openmetrics\n"
      "       cts_obstop --validate FILE.json... FILE.jsonl... FILE.om...\n\n"
      "Polls cts_shardd stats endpoints (cts.statsreq.v1 on the job port)\n"
      "and renders a live per-worker status table with p50/p95/p99/p999\n"
      "job latency columns.  --slo declares latency objectives against any\n"
      "exported log histogram (e.g. shardd.job_wall_ms:p99:250); breaching\n"
      "rows turn red, and with --check one poll is made and a breach exits\n"
      "3.  --json prints each worker's raw cts.stats.v1 reply once and\n"
      "exits (scripting / CI); --openmetrics prints one worker's\n"
      "OpenMetrics 1.0 exposition instead.  --validate strictly checks\n"
      "observability artifacts: *.jsonl as cts.events.v1 lines, *.om /\n"
      "*.prom / *.openmetrics as OpenMetrics 1.0 text, anything else as\n"
      "one RFC 8259 document.\n"
      "Exit codes: 0 success, 1 query/validation failure, 2 usage error,\n"
      "3 SLO breach under --check.\n");
}

/// Tokens not consumed by the flag parser, mirroring Flags' rule that a
/// bare "--key" followed by a non-flag token takes it as its value.
std::vector<std::string> positionals(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      if (token.find('=') == std::string::npos && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        ++i;  // "--key value"
      }
      continue;
    }
    out.push_back(token);
  }
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// -------------------------------------------------------------------------
// --validate

/// Checks one cts.events.v1 JSONL file: every non-empty line must be a
/// strict JSON object carrying a "schema" string member.
bool validate_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cts_obstop: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t events = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string error;
    if (!obs::json_parse_check(line, &error)) {
      std::fprintf(stderr, "cts_obstop: %s:%zu: %s\n", path.c_str(), lineno,
                   error.c_str());
      return false;
    }
    const obs::JsonValue doc = obs::json_parse(line);
    const obs::JsonValue* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string()) {
      std::fprintf(stderr,
                   "cts_obstop: %s:%zu: missing \"schema\" string member\n",
                   path.c_str(), lineno);
      return false;
    }
    ++events;
  }
  if (events == 0) {
    std::fprintf(stderr, "cts_obstop: %s: no events\n", path.c_str());
    return false;
  }
  return true;
}

/// Deep checks for schema-tagged scenario artifacts: a structurally valid
/// JSON file that claims cts.scenarioresult.v1 / cts.scenariotrace.v1 must
/// also satisfy that schema (spec echo reparses, rep tallies consistent,
/// trace columns aligned).
bool validate_scenario_schemas(const std::string& path,
                               const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* schema =
      doc.is_object() ? doc.find("schema") : nullptr;
  if (schema == nullptr || !schema->is_string()) return true;
  try {
    if (schema->as_string() == sim::kScenarioResultSchema) {
      const sim::ScenarioResultDoc result = sim::parse_scenario_result(text);
      (void)sim::parse_scenario(result.spec_text);  // the echo must reparse
    } else if (schema->as_string() == sim::kScenarioTraceSchema) {
      for (const obs::JsonValue& hop : doc.at("hops").items) {
        const std::size_t rows = hop.at("frames").items.size();
        cu::require(hop.at("workload").items.size() == rows &&
                        hop.at("arrived").items.size() == rows &&
                        hop.at("lost").items.size() == rows,
                    "trace column lengths disagree for hop '" +
                        hop.at("name").as_string() + "'");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_obstop: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

bool validate_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cts_obstop: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!obs::json_parse_check(buffer.str(), &error)) {
    std::fprintf(stderr, "cts_obstop: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return validate_scenario_schemas(path, buffer.str());
}

/// Checks one OpenMetrics 1.0 exposition with the strict validator from
/// cts/obs/expfmt — type lines, cumulative buckets, EOF terminator.
bool validate_openmetrics_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cts_obstop: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> errors =
      obs::validate_openmetrics(buffer.str());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "cts_obstop: %s: %s\n", path.c_str(), e.c_str());
  }
  return errors.empty();
}

bool is_openmetrics_path(const std::string& path) {
  return ends_with(path, ".om") || ends_with(path, ".prom") ||
         ends_with(path, ".openmetrics");
}

int run_validate(const std::vector<std::string>& files, bool quiet) {
  if (files.empty()) {
    std::fprintf(stderr, "cts_obstop: --validate needs at least one file\n");
    return 2;
  }
  bool all_ok = true;
  for (const std::string& path : files) {
    const bool ok = ends_with(path, ".jsonl") ? validate_jsonl(path)
                    : is_openmetrics_path(path)
                        ? validate_openmetrics_file(path)
                        : validate_json(path);
    if (ok && !quiet) std::printf("%s: OK\n", path.c_str());
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

// -------------------------------------------------------------------------
// --json (one-shot)

int run_json(const std::vector<net::Endpoint>& workers, double timeout_s,
             bool quiet) {
  std::vector<std::string> replies;
  bool all_ok = true;
  for (const net::Endpoint& ep : workers) {
    try {
      std::string raw;
      (void)net::query_stats(ep, timeout_s, &raw);  // parse validates
      replies.push_back(std::move(raw));
    } catch (const std::exception& e) {
      all_ok = false;
      if (!quiet) {
        std::fprintf(stderr, "cts_obstop: %s: %s\n", ep.str().c_str(),
                     e.what());
      }
    }
  }
  if (replies.size() == 1 && workers.size() == 1) {
    std::printf("%s\n", replies.front().c_str());
  } else {
    // Replies are schema-valid JSON documents; the array wrapper is pure
    // concatenation, so each survives byte-identical.
    std::string out = "[";
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (i > 0) out += ",";
      out += replies[i];
    }
    out += "]";
    std::printf("%s\n", out.c_str());
  }
  return all_ok ? 0 : 1;
}

// -------------------------------------------------------------------------
// --openmetrics (one-shot scrape)

int run_openmetrics(const std::vector<net::Endpoint>& workers,
                    double timeout_s, bool quiet) {
  if (workers.size() != 1) {
    // A merged multi-worker exposition would repeat every # TYPE line and
    // fail strict validation; scrapers poll one target per request anyway.
    std::fprintf(stderr,
                 "cts_obstop: --openmetrics takes exactly one worker\n");
    return 2;
  }
  try {
    const std::string text =
        net::query_stats_openmetrics(workers.front(), timeout_s);
    std::fputs(text.c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    if (!quiet) {
      std::fprintf(stderr, "cts_obstop: %s: %s\n",
                   workers.front().str().c_str(), e.what());
    }
    return 1;
  }
}

// -------------------------------------------------------------------------
// live table

/// One --slo=METRIC:pQ:MS objective: log histogram METRIC's q-quantile
/// must stay under MS milliseconds.
struct SloSpec {
  std::string metric;
  std::string plabel;       ///< "p99" etc., as the user wrote it
  double quantile = 0;      ///< in (0, 1]
  double threshold_ms = 0;  ///< breach when percentile > threshold
};

/// Parses a comma-separated --slo list; throws InvalidArgument with the
/// offending entry on malformed input.
std::vector<SloSpec> parse_slos(const std::string& arg) {
  std::vector<SloSpec> specs;
  std::size_t start = 0;
  while (start <= arg.size()) {
    std::size_t end = arg.find(',', start);
    if (end == std::string::npos) end = arg.size();
    const std::string entry = arg.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const auto bad = [&entry](const std::string& why) {
      cu::require(false, "--slo entry '" + entry + "': " + why +
                             " (expected METRIC:pQ:MS, e.g. "
                             "shardd.job_wall_ms:p99:250)");
    };
    const std::size_t c2 = entry.rfind(':');
    const std::size_t c1 =
        c2 == std::string::npos ? std::string::npos : entry.rfind(':', c2 - 1);
    if (c1 == std::string::npos || c1 == 0) bad("need METRIC:pQ:MS");
    SloSpec spec;
    spec.metric = entry.substr(0, c1);
    spec.plabel = entry.substr(c1 + 1, c2 - c1 - 1);
    if (spec.plabel.size() < 2 || spec.plabel[0] != 'p') {
      bad("quantile must be pNN (p50, p95, p99, p999)");
    }
    double scale = 1;
    double digits = 0;
    for (std::size_t i = 1; i < spec.plabel.size(); ++i) {
      const char ch = spec.plabel[i];
      if (ch < '0' || ch > '9') bad("quantile must be pNN");
      digits = digits * 10 + (ch - '0');
      scale *= 10;
    }
    spec.quantile = digits / scale;  // p50 -> 0.50, p999 -> 0.999
    if (spec.quantile <= 0 || spec.quantile >= 1) {
      bad("quantile must be in (p0, p<1)");
    }
    // Strict full-string parse: std::stod would silently accept "250abc"
    // and gate on the wrong threshold.
    const std::string threshold_text = entry.substr(c2 + 1);
    if (!cu::try_parse_double(threshold_text, &spec.threshold_ms)) {
      bad("threshold must be a number of milliseconds, got '" +
          threshold_text + "'");
    }
    if (spec.threshold_ms <= 0) bad("threshold must be > 0 ms");
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string format_duration(double seconds) {
  if (seconds < 120) return cu::format_fixed(seconds, 0) + "s";
  if (seconds < 7200) return cu::format_fixed(seconds / 60.0, 1) + "m";
  return cu::format_fixed(seconds / 3600.0, 1) + "h";
}

int run_table(const std::vector<net::Endpoint>& workers, double interval_s,
              long long iterations, double timeout_s,
              const std::vector<SloSpec>& slos, bool check, bool quiet) {
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  if (check) iterations = 1;  // one poll, then gate on the result
  bool every_poll_ok = true;
  bool any_breach = false;
  for (long long poll = 0; iterations <= 0 || poll < iterations; ++poll) {
    if (poll > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(interval_s));
    }
    cu::TextTable table({"worker", "pid", "up", "inflight", "ok", "fail",
                         "retry", "stats", "job mean ms", "p50", "p95",
                         "p99", "p999"});
    std::vector<bool> breached_row;
    for (const net::Endpoint& ep : workers) {
      try {
        const net::WorkerStats s = net::query_stats(ep, timeout_s);
        // The mean is exact (Welford); the percentiles are within the log
        // histogram's 2% relative error.
        std::string wall_ms = "-";
        std::string p50 = "-", p95 = "-", p99 = "-", p999 = "-";
        const auto& logs = s.metrics.log_histograms();
        const auto it = logs.find("shardd.job_wall_ms");
        if (it != logs.end() && it->second.stats().count() > 0) {
          wall_ms = cu::format_fixed(it->second.stats().mean(), 0);
          p50 = cu::format_fixed(it->second.percentile(0.50), 1);
          p95 = cu::format_fixed(it->second.percentile(0.95), 1);
          p99 = cu::format_fixed(it->second.percentile(0.99), 1);
          p999 = cu::format_fixed(it->second.percentile(0.999), 1);
        }
        bool breach = false;
        for (const SloSpec& slo : slos) {
          const auto sit = logs.find(slo.metric);
          if (sit == logs.end() || sit->second.stats().count() == 0) {
            continue;  // nothing observed yet: no breach to report
          }
          const double value = sit->second.percentile(slo.quantile);
          if (value > slo.threshold_ms) {
            breach = true;
            if (!quiet) {
              std::fprintf(stderr,
                           "cts_obstop: SLO breach on %s: %s %s = %.1f ms "
                           "> %.1f ms\n",
                           s.worker.c_str(), slo.metric.c_str(),
                           slo.plabel.c_str(), value, slo.threshold_ms);
            }
          }
        }
        any_breach = any_breach || breach;
        breached_row.push_back(breach);
        table.add_row({s.worker, std::to_string(s.pid),
                       format_duration(s.uptime_s),
                       std::to_string(s.jobs_in_flight),
                       std::to_string(s.jobs_ok),
                       std::to_string(s.jobs_failed),
                       std::to_string(s.jobs_retried),
                       std::to_string(s.stats_served), wall_ms, p50, p95,
                       p99, p999});
      } catch (const std::exception& e) {
        every_poll_ok = false;
        breached_row.push_back(false);
        table.add_row({ep.str(), "-", "-", "-", "-", "-", "-", "-", "-",
                       "-", "-", "-", "-"});
        if (!quiet) {
          std::fprintf(stderr, "cts_obstop: %s: %s\n", ep.str().c_str(),
                       e.what());
        }
      }
    }
    if (tty) std::printf("\033[H\033[2J");  // repaint in place
    std::string rendered = table.render();
    if (tty && any_breach) {
      // Red rows for breaching workers: colorize whole lines after the
      // fact so ANSI escapes never skew the column-width computation.
      // render() output is line 0 header, line 1 underline, then one line
      // per row in insertion order.
      std::istringstream in(rendered);
      std::ostringstream out;
      std::string line;
      std::size_t lineno = 0;
      while (std::getline(in, line)) {
        const std::size_t row = lineno >= 2 ? lineno - 2 : breached_row.size();
        if (row < breached_row.size() && breached_row[row]) {
          out << "\033[31m" << line << "\033[0m\n";
        } else {
          out << line << '\n';
        }
        ++lineno;
      }
      rendered = out.str();
    }
    std::printf("%s", rendered.c_str());
    std::fflush(stdout);
  }
  if (!every_poll_ok) return 1;
  if (check && any_breach) return 3;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    flags.warn_unknown(std::cerr,
                       cu::cli::flag_names(cu::cli::kObstopFlags));
    const bool quiet = flags.get_bool("quiet", false);

    if (flags.has("validate")) {
      // --validate FILE... or --validate=FILE: the flag's own value (when
      // it consumed the first file) joins the positional file list.
      std::vector<std::string> files = positionals(argc, argv);
      const std::string value = flags.get_string("validate", "");
      if (value != "true" && !value.empty()) {
        files.insert(files.begin(), value);
      }
      return run_validate(files, quiet);
    }

    const std::string worker_arg = flags.get_string("workers", "");
    if (worker_arg.empty()) {
      usage();
      return 2;
    }
    const std::vector<net::Endpoint> workers =
        net::parse_worker_list(worker_arg);
    const double timeout_s = flags.get_double("timeout", 5.0);
    if (timeout_s <= 0) {
      std::fprintf(stderr, "cts_obstop: --timeout must be > 0\n");
      return 2;
    }

    if (flags.get_bool("json", false)) {
      return run_json(workers, timeout_s, quiet);
    }
    if (flags.get_bool("openmetrics", false)) {
      return run_openmetrics(workers, timeout_s, quiet);
    }

    const std::vector<SloSpec> slos = parse_slos(flags.get_string("slo", ""));
    const bool check = flags.get_bool("check", false);
    if (check && slos.empty()) {
      std::fprintf(stderr, "cts_obstop: --check needs at least one --slo\n");
      return 2;
    }
    const double interval_s = flags.get_double("interval", 2.0);
    if (interval_s <= 0) {
      std::fprintf(stderr, "cts_obstop: --interval must be > 0\n");
      return 2;
    }
    return run_table(workers, interval_s, flags.get_int("iterations", 0),
                     timeout_s, slos, check, quiet);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_obstop: %s\n", e.what());
    return 2;
  }
}
