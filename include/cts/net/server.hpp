// The daemon skeleton cts_cacd and cts_shardd share: one TCP port, one
// thread per connection, one framed request and one framed reply each.
//
// Server owns everything that is not the daemon's own request handling:
// the listener, the "listening on port" line and the port file, the accept
// loop and the reply budget (--max-requests / --max-jobs), the
// cts.statsreq.v1 endpoint (cts.stats.v1 JSON or OpenMetrics text), the
// in-flight / ok / failed / stats-served counters, the sampling profiler's
// lifetime and the exit log line.  A request whose schema tag is anything
// but cts.statsreq.v1 goes to the daemon's Service::handle as an Exchange.
//
// Lifetime: handler threads are never detached.  Finished ones are joined
// as the accept loop turns, and run() returns (or unwinds) only after every
// handler has returned, so no handler ever outlives the Server or the
// daemon state it captures.  The join is bounded by the handlers' own
// deadlines: the request read, the reply write and any work the daemon
// bounds itself (cacd batch deadlines, shardd job timeouts).  A stats query
// is answered on its own thread while other handlers run, and never counts
// against the budget.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "cts/net/socket.hpp"
#include "cts/net/stats.hpp"
#include "cts/obs/event_log.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/profiler.hpp"
#include "cts/util/flags.hpp"

namespace cts::net {

/// What the two daemons differ in, plus the flag values they pass through.
struct ServerConfig {
  std::string tool;    ///< "cts_cacd": message prefix; worker id "tool:port"
  std::string prefix;  ///< metric prefix: "cacd" -> cacd.uptime_s
  /// One non-stats request: "request" names the cacd.requests_in_flight
  /// gauge, the --max-requests budget and "[served N request(s); ...]".
  std::string unit;
  long long budget = 0;  ///< replies after which run() returns; 0: never
  std::uint16_t port = 0;                 ///< 0 picks an ephemeral port
  std::string port_file;                  ///< "" = none
  std::string listen_note;                ///< appended to the listening line
  std::vector<obs::LogField> start_fields;  ///< extra daemon.start fields
  obs::ProfileRequest profile;
  bool quiet = false;  ///< no exit line on stderr
};

/// The ServerConfig for the flags every daemon shares: --port, --port-file,
/// --max-<unit>s, --quiet and --profile*.  Also points the global event log
/// at --log (else stderr unless --quiet) with --log-level.  Throws
/// InvalidArgument on a --port outside [0, 65535].
ServerConfig daemon_config(const util::Flags& flags, std::string tool,
                           std::string prefix, std::string unit);

class Server;

/// One admitted request (any schema but cts.statsreq.v1).  The handler
/// answers it with reply(); one that returns or throws without a reply
/// counts as served and failed.
class Exchange {
 public:
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;
  ~Exchange();

  const std::string& request() const { return request_; }
  /// TraceRecorder clock when the request frame had arrived.
  std::int64_t recv_us() const { return recv_us_; }
  /// Replies counted when this request was admitted.
  long long served_before() const { return served_before_; }

  /// Sends `body`, then counts the request served and ok or failed.
  /// Throws NetError / NetTimeout when the client is gone.
  void reply(const std::string& body, bool ok);

 private:
  friend class Server;
  Exchange(Server& server, const Socket& conn, std::string request,
           std::int64_t recv_us);

  Server& server_;
  const Socket& conn_;
  std::string request_;
  std::int64_t recv_us_ = 0;
  long long served_before_ = 0;
  bool settled_ = false;
};

/// The daemon side of a Server.  Only `handle` is required; it runs on
/// the connection's thread, concurrently with other handlers.
struct Service {
  std::function<void(Exchange&)> handle;
  /// Adds the daemon's own fields to every stats snapshot.
  std::function<void(WorkerStats&)> add_stats;
  /// Adds fields to daemon.exit, between "served" and "reason".
  std::function<void(std::vector<obs::LogField>&)> add_exit_fields;
};

class Server {
 public:
  /// Binds the listener.  Throws NetError when the port is taken.
  explicit Server(ServerConfig config);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return port_; }
  /// Daemon-lifetime registry the stats endpoint snapshots.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Announces the port, serves until the budget is spent and every
  /// handler has returned, then writes the profile and logs the exit.
  /// Returns the process exit code: 0, or 2 when the port file cannot be
  /// written.
  int run(const Service& service);

 private:
  friend class Exchange;

  void serve_connection(Socket conn, const Service& service);
  void reply_stats(const Socket& conn, const std::string& request,
                   const Service& service);
  long long admit();
  void settle(bool ok);
  bool budget_spent();

  ServerConfig config_;
  std::uint16_t port_ = 0;  ///< before listener_: listen_on() stores it
  Socket listener_;
  double start_s_ = 0;
  obs::MetricsRegistry metrics_;

  std::mutex mu_;  ///< guards the counters below
  long long served_ = 0;  ///< replies sent or failed (the budget)
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t stats_served_ = 0;
  std::uint64_t in_flight_ = 0;  ///< admitted, not yet settled
};

}  // namespace cts::net
