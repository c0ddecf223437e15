// Wire protocol of the campaign service: line-delimited JSON requests and
// responses over a Unix-domain stream socket.
//
// Every request is one JSON object per line with a leading "type" —
// submit | status | cancel | results | shutdown. Responses are control
// lines (objects whose FIRST key is "type") interleaved with record lines:
// a record line is the exact record_json_line() serialization of one
// SweepRecord, verbatim — it starts with {"index": and carries no "type",
// so clients split the stream on the first key without parsing records.
// That verbatim framing is the byte-identity contract: a client appending
// record lines to a file reproduces JsonlSink output exactly.
//
// Campaign specs travel as a nested object under "spec": scalars by name
// (doubles as 17-significant-digit decimals, durations as integer
// nanoseconds, the campaign seed as a *quoted* decimal string — u64 doesn't
// survive a double round-trip), axes as an "axes" object keyed by record
// column name with one array per axis. Unknown keys are errors, missing
// keys keep SweepSpec defaults — the request format inherits the CLI's
// override semantics.
#pragma once

#include <cstdint>
#include <string>

#include "support/json.hpp"
#include "sweep/spec.hpp"

namespace iw::service {

enum class RequestType : std::uint8_t {
  submit,
  status,
  cancel,
  results,
  shutdown,
};

/// One parsed request line. Fields beyond `type` are meaningful only for
/// the request types that carry them.
struct Request {
  RequestType type = RequestType::status;
  std::string client;          ///< submit: requesting client name
  int priority = 0;            ///< submit: within-client priority (desc)
  sweep::SweepSpec spec;       ///< submit: the campaign
  std::uint64_t job = 0;       ///< cancel / results: target job id
};

/// Parses one request line. Throws std::runtime_error with a
/// protocol-shaped message on malformed JSON, unknown type, unknown keys,
/// or out-of-domain values.
[[nodiscard]] Request parse_request(const std::string& line);

/// Serializes `spec` into the protocol's "spec" object (no newline). The
/// client CLI uses this; parse of the result reproduces `spec` exactly.
[[nodiscard]] std::string spec_to_json(const sweep::SweepSpec& spec);

/// Parses a protocol "spec" object back into a SweepSpec.
[[nodiscard]] sweep::SweepSpec spec_from_json(const json::Value& v);

// --- request lines (client side) -------------------------------------------
[[nodiscard]] std::string submit_line(const std::string& client, int priority,
                                      const sweep::SweepSpec& spec);
[[nodiscard]] std::string status_line();
[[nodiscard]] std::string cancel_line(std::uint64_t job);
[[nodiscard]] std::string results_line(std::uint64_t job);
[[nodiscard]] std::string shutdown_line();

// --- response lines (server side) ------------------------------------------
[[nodiscard]] std::string error_response(const std::string& code,
                                         const std::string& message);
[[nodiscard]] std::string accepted_response(std::uint64_t job,
                                            std::size_t points,
                                            std::size_t cached);
[[nodiscard]] std::string done_response(std::uint64_t job, std::size_t records,
                                        std::size_t cache_hits,
                                        std::size_t computed);
[[nodiscard]] std::string cancelled_response(std::uint64_t job,
                                             std::size_t records);
/// Terminator of a "results" replay: the record lines streamed before it
/// are the `records` points completed so far. A job id the daemon does not
/// know gets error_response("unknown-job", ...) instead.
[[nodiscard]] std::string results_response(std::uint64_t job,
                                           std::size_t records);
/// Immediate answer to a "cancel" request (any connection may cancel; the
/// submitting connection's stream still receives every completed record
/// followed by the terminal "cancelled" line). `accepted` is false when
/// the job is unknown or already finished.
[[nodiscard]] std::string cancel_ack_response(std::uint64_t job,
                                              bool accepted);
[[nodiscard]] std::string bye_response();

/// True if `line` is a record line (starts with `{"index":`) rather than a
/// control line. The dichotomy is structural: record_json_line() always
/// emits index first, and every control builder above emits "type" first.
[[nodiscard]] bool is_record_line(const std::string& line);

}  // namespace iw::service
