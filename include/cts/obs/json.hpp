// Minimal JSON emission, validation and parsing for the observability
// exporters and the wire protocols.
//
// The run-report (--metrics) and Chrome-trace (--trace) writers need
// well-formed JSON without an external dependency.  JsonWriter tracks the
// container stack and inserts commas/colons itself, so an exporter cannot
// produce structurally invalid output; json_parse_check is a strict
// recursive-descent validator used by the tests and the ctest smoke test
// to confirm the emitted files actually parse; json_parse builds a small
// DOM (JsonValue) from the same grammar, which the wire parsers (jobs,
// CAC queries, stats replies) and cts_simd's report merge and diff read.

#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cts::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).  Control characters are emitted as \u00XX.
std::string json_escape(const std::string& s);

/// Streaming JSON writer with automatic comma/colon placement.
///
/// Usage:
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("counters").begin_object(); ... w.end_object();
///   w.end_object();
///
/// Structural misuse (a value where a key is required, unbalanced
/// begin/end) throws util::InvalidArgument via require().
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; the next call must produce its value.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);  ///< non-finite values are emitted as null
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splices `json` — which must itself be one well-formed JSON value —
  /// into the document as the next value.
  JsonWriter& raw(const std::string& json);

  /// True once the single top-level value is complete and balanced.
  bool complete() const { return top_level_done_; }

 private:
  enum class Frame { kObject, kArray };

  void before_value();

  std::ostream& os_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;     ///< parallel to stack_: no comma needed yet
  bool pending_key_ = false;    ///< key() written, value expected
  bool top_level_done_ = false;
};

/// Strictly validates that `text` is one complete JSON value (RFC 8259
/// grammar, no trailing garbage).  Returns true on success; on failure
/// returns false and, when `error` is non-null, stores a message with the
/// byte offset of the problem.
bool json_parse_check(const std::string& text, std::string* error = nullptr);

/// Parsed JSON value: a small DOM for reading the files this library
/// itself emits (run reports, shard files, wire messages).  Object member
/// order is preserved.  Accessors with a type precondition throw
/// util::InvalidArgument on mismatch so schema errors surface as one
/// catchable exception rather than silent zeros.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            ///< arrays
  std::vector<std::pair<std::string, JsonValue>> members;  ///< objects

  bool is_null() const noexcept { return type == Type::kNull; }
  bool is_bool() const noexcept { return type == Type::kBool; }
  bool is_number() const noexcept { return type == Type::kNumber; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_object() const noexcept { return type == Type::kObject; }

  bool as_bool() const;          ///< requires kBool
  double as_number() const;      ///< requires kNumber
  /// Requires a kNumber that is a finite integer in [0, 2^53]; throws
  /// InvalidArgument naming `field` otherwise.  This and as_int are the
  /// checked conversions from a wire number to an integer type: casting an
  /// out-of-range double is undefined behaviour.  Callers storing into a
  /// narrower type check their own bound.
  std::uint64_t as_uint(const std::string& field) const;
  /// The signed variant of as_uint: a finite integer in [-2^53, 2^53].
  std::int64_t as_int(const std::string& field) const;
  const std::string& as_string() const;  ///< requires kString

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const noexcept;
  /// Object member lookup; throws InvalidArgument when absent.
  const JsonValue& at(const std::string& key) const;
  /// Array element; throws InvalidArgument when out of range.
  const JsonValue& at(std::size_t index) const;
  /// Array / object element count (0 for scalars).
  std::size_t size() const noexcept;
};

/// Parses `text` (same strict RFC 8259 grammar as json_parse_check) into a
/// DOM.  Throws util::InvalidArgument with the byte offset on failure.
JsonValue json_parse(const std::string& text);

}  // namespace cts::obs
