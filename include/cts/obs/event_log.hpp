// Leveled structured event log (JSONL, schema cts.events.v1) plus a
// fixed-size ring-buffer flight recorder.
//
// The daemons (cts_shardd, cts_cacd, cts_simd) emit one machine-parsable
// line per operational event — job accepted, job done, worker declared
// down — so a distributed run can be reconstructed post-mortem with grep
// and json_parse instead of regexes over free-form stderr:
//
//   {"schema":"cts.events.v1","ts_ms":1754524800123,"pid":4242,
//    "level":"info","event":"job.done",
//    "fields":{"bench":"fig9_sim_markov","shard":"0/2","wall_ms":812.4}}
//
// Two consumers with different needs share one emit path:
//   * the sink (a JSONL file via open(), or an ostream such as stderr)
//     receives events at or above min_level(), flushed per line so a log
//     of a SIGKILLed process is complete up to the last event;
//   * the ring buffer receives EVERY event regardless of level — it is
//     the flight recorder: when a job times out or a child is killed, the
//     last ring_capacity() events (including debug detail that never hit
//     the sink) are dumped via dump_ring(), answering "what was it doing
//     right before it died".
//
// Thread-safe; the global() instance is deliberately leaked like the
// other obs singletons so destructor-order issues cannot lose events.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace cts::obs {

inline constexpr char kEventsSchema[] = "cts.events.v1";

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" / "info" / "warn" / "error".
const char* level_name(LogLevel level) noexcept;

/// Parses a level name, case-insensitively ("INFO" == "info"); throws
/// util::InvalidArgument on anything else, naming the accepted spellings.
LogLevel parse_log_level(const std::string& name);

/// One typed key/value pair of an event's `fields` object.
struct LogField {
  enum class Kind { kString, kInt, kUint, kDouble, kBool };

  LogField(std::string field, std::string value)
      : name(std::move(field)), kind(Kind::kString), s(std::move(value)) {}
  LogField(std::string field, const char* value)
      : name(std::move(field)), kind(Kind::kString), s(value) {}
  LogField(std::string field, std::int64_t value)
      : name(std::move(field)), kind(Kind::kInt), i(value) {}
  LogField(std::string field, int value)
      : name(std::move(field)), kind(Kind::kInt), i(value) {}
  LogField(std::string field, std::uint64_t value)
      : name(std::move(field)), kind(Kind::kUint), u(value) {}
  LogField(std::string field, double value)
      : name(std::move(field)), kind(Kind::kDouble), d(value) {}
  LogField(std::string field, bool value)
      : name(std::move(field)), kind(Kind::kBool), b(value) {}

  std::string name;
  Kind kind;
  std::string s;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
};

/// One structured event.
struct LogEvent {
  LogLevel level = LogLevel::kInfo;
  std::string event;             ///< short dotted name, e.g. "job.done"
  std::vector<LogField> fields;
  std::int64_t ts_ms = 0;        ///< wall clock, milliseconds since epoch
};

/// Leveled JSONL event log + flight-recorder ring buffer.
class EventLog {
 public:
  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Process-wide log.  Deliberately leaked (see MetricsRegistry).
  static EventLog& global();

  /// Opens `path` (append) as the sink; throws util::InvalidArgument
  /// naming the path when it cannot be opened.  Replaces a stream sink.
  void open(const std::string& path);

  /// Uses `os` as the sink (e.g. &std::cerr); nullptr silences the sink.
  /// Replaces a file sink.
  void to_stream(std::ostream* os);

  void set_min_level(LogLevel level);
  LogLevel min_level() const;

  /// Resizes the flight-recorder ring (default 256); oldest events are
  /// evicted when the new capacity is smaller.  0 disables the ring.
  void set_ring_capacity(std::size_t capacity);
  std::size_t ring_capacity() const;

  /// Records one event: always into the ring, and into the sink when
  /// `level` >= min_level().  Timestamped here.  Never throws — a logging
  /// failure must not take down a daemon.
  void log(LogLevel level, std::string event,
           std::vector<LogField> fields = {}) noexcept;

  /// Copy of the flight-recorder contents, oldest first.
  std::vector<LogEvent> ring() const;

  std::uint64_t recorded() const;  ///< events seen (any level)
  std::uint64_t emitted() const;   ///< lines actually written to the sink

  /// Dumps the ring (oldest first, every level) as JSONL to `os`.
  void dump_ring(std::ostream& os) const;

  /// Dumps the ring to `path`; returns false on I/O failure.
  bool dump_ring_to(const std::string& path) const;

  /// Drops ring contents and counters and detaches the sinks (tests).
  void reset();

  /// One cts.events.v1 JSON line for `e` (no trailing newline).
  static std::string format_line(const LogEvent& e);

 private:
  void emit_locked(const LogEvent& e);

  mutable std::mutex mu_;
  LogLevel min_level_ = LogLevel::kInfo;
  std::unique_ptr<std::ostream> file_;  ///< owning file sink
  std::ostream* stream_ = nullptr;      ///< non-owning stream sink
  std::deque<LogEvent> ring_;
  std::size_t ring_capacity_ = 256;
  std::uint64_t recorded_ = 0;
  std::uint64_t emitted_ = 0;
};

/// Convenience wrappers over EventLog::global().
void log_debug(std::string event, std::vector<LogField> fields = {});
void log_info(std::string event, std::vector<LogField> fields = {});
void log_warn(std::string event, std::vector<LogField> fields = {});
void log_error(std::string event, std::vector<LogField> fields = {});

}  // namespace cts::obs
