#include "cts/net/server.hpp"

#include <unistd.h>

#include <atomic>
#include <exception>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <list>
#include <sstream>
#include <thread>
#include <utility>

#include "cts/obs/expfmt.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/span_stats.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"

namespace cts::net {

namespace {

constexpr double kRequestReadTimeoutS = 30.0;
constexpr double kReplyWriteTimeoutS = 60.0;
/// Accept poll interval: short enough that the budget exits promptly and
/// finished handler threads are joined soon after they return.
constexpr double kAcceptTimeoutS = 0.25;

/// The request's top-level "schema" tag; "" when absent or not JSON (the
/// daemon's strict parser then produces the structured error reply).
std::string schema_of(const std::string& request) {
  try {
    const obs::JsonValue doc = obs::json_parse(request);
    const obs::JsonValue* tag = doc.find("schema");
    if (tag != nullptr && tag->is_string()) return tag->as_string();
  } catch (const util::Error&) {
  }
  return "";
}

/// Connection threads of one run(): joined as they finish, and all of them
/// on destruction, so no handler outlives run() even when it unwinds.
class Handlers {
 public:
  Handlers() = default;
  Handlers(const Handlers&) = delete;
  Handlers& operator=(const Handlers&) = delete;
  ~Handlers() {
    for (Slot& slot : slots_) {
      if (slot.thread.joinable()) slot.thread.join();
    }
  }

  template <typename Fn>
  void spawn(Fn fn) {
    Slot& slot = slots_.emplace_back();
    slot.thread = std::thread([&slot, fn = std::move(fn)]() mutable {
      fn();
      slot.done.store(true, std::memory_order_release);
    });
  }

  void join_finished() {
    slots_.remove_if([](Slot& slot) {
      if (!slot.done.load(std::memory_order_acquire)) return false;
      slot.thread.join();
      return true;
    });
  }

 private:
  struct Slot {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Slot> slots_;  ///< stable addresses: threads hold their Slot
};

}  // namespace

ServerConfig daemon_config(const util::Flags& flags, std::string tool,
                           std::string prefix, std::string unit) {
  ServerConfig config;
  const std::int64_t port = flags.get_int("port", 0);
  util::require(port >= 0 && port <= 65535, "--port must be in [0, 65535]");
  config.port = static_cast<std::uint16_t>(port);
  config.port_file = flags.get_string("port-file", "");
  config.budget = flags.get_int("max-" + unit + "s", 0);
  config.quiet = flags.get_bool("quiet", false);
  config.profile = obs::profile_request_from_flags(flags);
  config.tool = std::move(tool);
  config.prefix = std::move(prefix);
  config.unit = std::move(unit);

  // Event sink: --log beats stderr; --quiet silences the default stderr
  // sink but an explicit --log file still receives events.
  const std::string log_path = flags.get_string("log", "");
  obs::EventLog& log = obs::EventLog::global();
  if (!log_path.empty()) {
    log.open(log_path);
  } else if (!config.quiet) {
    log.to_stream(&std::cerr);
  }
  log.set_min_level(
      obs::parse_log_level(flags.get_string("log-level", "info")));
  return config;
}

Exchange::Exchange(Server& server, const Socket& conn, std::string request,
                   std::int64_t recv_us)
    : server_(server),
      conn_(conn),
      request_(std::move(request)),
      recv_us_(recv_us),
      served_before_(server.admit()) {}

Exchange::~Exchange() {
  // The reply never went out, but the budget was spent: count the request
  // as served so --max-requests / --max-jobs stay deterministic.
  if (!settled_) server_.settle(false);
}

void Exchange::reply(const std::string& body, bool ok) {
  send_frame(conn_, body, kReplyWriteTimeoutS);
  settled_ = true;
  server_.settle(ok);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      listener_(listen_on(config_.port, &port_)),
      start_s_(util::monotonic_s()) {}

long long Server::admit() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++in_flight_;
  return served_;
}

void Server::settle(bool ok) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++served_;
  --in_flight_;
  ++(ok ? ok_ : failed_);
}

bool Server::budget_spent() {
  const std::lock_guard<std::mutex> lock(mu_);
  return config_.budget > 0 && served_ >= config_.budget;
}

void Server::reply_stats(const Socket& conn, const std::string& request,
                         const Service& service) {
  StatsFormat format = StatsFormat::kJson;
  try {
    format = parse_stats_request(request);
  } catch (const util::Error& e) {
    // Unknown format: answer in JSON rather than dropping the scrape; the
    // monitor's own parser will surface the mismatch.
    obs::log_warn("stats.bad_format", {{"error", e.what()}});
  }

  WorkerStats stats;
  stats.worker = config_.tool + ":" + std::to_string(port_);
  stats.pid = static_cast<std::int64_t>(::getpid());
  stats.uptime_s = util::monotonic_s() - start_s_;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_served_;  // this query counts itself
    stats.jobs_in_flight = in_flight_;
    stats.jobs_ok = ok_;
    stats.jobs_failed = failed_;
    stats.stats_served = stats_served_;
  }
  stats.metrics = metrics_.snapshot();
  if (service.add_stats) service.add_stats(stats);
  stats.spans = obs::aggregate_spans(obs::TraceRecorder::global().events());

  if (format == StatsFormat::kOpenMetrics) {
    // Exposition view: the lossless snapshot plus the liveness fields that
    // live outside the registry, labelled with the worker id.
    obs::MetricsShard shard = stats.metrics;
    const std::string& p = config_.prefix;
    shard.gauge(p + ".uptime_s", stats.uptime_s);
    shard.gauge(p + "." + config_.unit + "s_in_flight",
                static_cast<double>(stats.jobs_in_flight));
    shard.add(p + ".stats_served", stats.stats_served);
    obs::OpenMetricsOptions om;
    om.labels = {{"worker", stats.worker}};
    std::ostringstream os;
    obs::write_openmetrics(os, shard, om);
    send_frame(conn, os.str(), kReplyWriteTimeoutS);
  } else {
    send_frame(conn, write_stats_json(stats), kReplyWriteTimeoutS);
  }
  obs::log_debug("stats.query", {});
}

void Server::serve_connection(Socket conn, const Service& service) {
  try {
    std::string request = recv_frame(conn, kRequestReadTimeoutS);
    const std::int64_t recv_us = obs::TraceRecorder::global().now_us();
    if (schema_of(request) == kStatsRequestSchema) {
      reply_stats(conn, request, service);
      return;
    }
    Exchange exchange(*this, conn, std::move(request), recv_us);
    service.handle(exchange);
  } catch (const std::exception& e) {
    // A broken connection (NetError) affects only that client; keep
    // serving.  Nothing escapes the thread's entry function.
    obs::log_warn("conn.error", {{"error", e.what()}});
  }
}

int Server::run(const Service& service) {
  const std::string& tool = config_.tool;
  // Spans feed the stats endpoint's span table (and shardd's per-job
  // capture), so the recorder is always on in a daemon.
  obs::TraceRecorder::global().enable();

  std::printf("%s: listening on port %u%s\n", tool.c_str(),
              static_cast<unsigned>(port_), config_.listen_note.c_str());
  std::fflush(stdout);
  if (!config_.port_file.empty()) {
    std::ofstream pf(config_.port_file);
    pf << port_ << "\n";
    if (!pf) {
      std::fprintf(stderr, "%s: cannot write port file %s\n", tool.c_str(),
                   config_.port_file.c_str());
      return 2;
    }
  }
  const bool profiling = config_.profile.wanted();
  if (profiling) obs::Profiler::global().start(config_.profile.sampling);
  std::vector<obs::LogField> start_fields = {
      {"port", static_cast<std::int64_t>(port_)}};
  start_fields.insert(start_fields.end(), config_.start_fields.begin(),
                      config_.start_fields.end());
  obs::log_info("daemon.start", std::move(start_fields));

  {
    Handlers handlers;
    while (!budget_spent()) {
      Socket conn = accept_connection(listener_, kAcceptTimeoutS);
      handlers.join_finished();
      if (conn.valid()) {
        handlers.spawn([this, &service, conn = std::move(conn)]() mutable {
          serve_connection(std::move(conn), service);
        });
      }
    }
  }  // joins every handler still running

  if (profiling) obs::finish_profile(config_.profile, tool.c_str());
  const std::string budget_flag = "max-" + config_.unit + "s";
  std::vector<obs::LogField> exit_fields = {
      {"served", static_cast<std::int64_t>(served_)}};
  if (service.add_exit_fields) service.add_exit_fields(exit_fields);
  exit_fields.emplace_back("reason", budget_flag);
  obs::log_info("daemon.exit", std::move(exit_fields));
  if (!config_.quiet) {
    std::fprintf(stderr, "[served %lld %s(s); exiting (--%s)]\n", served_,
                 config_.unit.c_str(), budget_flag.c_str());
  }
  return 0;
}

}  // namespace cts::net
