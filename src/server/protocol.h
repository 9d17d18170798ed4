#ifndef UGUIDE_SERVER_PROTOCOL_H_
#define UGUIDE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/session.h"
#include "core/session_state.h"
#include "core/token_codec.h"
#include "live/mutation.h"
#include "oracle/expert.h"

namespace uguide {

/// \file
/// \brief The uguided wire protocol: newline-delimited JSON, one frame per
/// line, hand-rolled on both sides (the daemon must stay dependency-free).
///
/// Client frames (`op` discriminates):
///   {"op":"open","id":"s1","strategy":"FDQ-BMC","budget":64.0,
///    "resume":false}
///   {"op":"next","id":"s1"}                       // re-deliver (reconnect)
///   {"op":"answer","id":"s1","seq":3,"answer":"yes",
///    "retry_cost":"0x0p+0","exhausted":false}     // last two optional
///   {"op":"close","id":"s1"}                      // abandon, journal kept
///   {"op":"ping"}
///   {"op":"health"}                               // overload introspection
///   {"op":"mutate","id":"m1","ops":[              // live-data mutations
///    {"kind":"append","values":["v0","v1",...]},
///    {"kind":"update","row":7,"col":2,"value":"x"},
///    {"kind":"delete","row":4}]}
///
/// Server frames (`type` discriminates):
///   {"type":"question","id":"s1","seq":3,"kind":"cell","row":7,"col":2,
///    "cost":"0x1p+0","replayed":false}            // fd adds "lhs"/"rhs"
///   {"type":"report","id":"s1","report":"strategy=...\n..."}
///   {"type":"error","id":"s1","code":"overloaded","status":9,
///    "retry_after_ms":200,"message":"..."}        // retry_after_ms optional
///   {"type":"closed","id":"s1"}
///   {"type":"pong"}
///   {"type":"health","brownout":0,"active_sessions":3,...}
///   {"type":"mutated","id":"m1","version":4,"applied":3,"refused":0}
///
/// Error frames carry two machine-readable fields: `code`, a stable slug a
/// client can branch on ("overloaded", "rate_limited", "quarantined",
/// "bad_frame", ...), and `status`, the numeric StatusCode. Refusals the
/// client should retry additionally carry `retry_after_ms`. The parser
/// requires both fields and refuses an error frame whose `code` is not a
/// string.
///
/// Doubles that must survive the round trip bit-exactly (costs, budgets,
/// report fields) travel as C hexfloat *strings* and FD left-hand sides as
/// hex masks, spelled by the token codec the session journal shares
/// (core/token_codec.h); plain JSON numbers are only used for integers.
/// Each frame's fields are declared once, in protocol.cc (DESIGN.md §10.2).

/// \brief A parsed JSON value — the minimal subset the protocol needs.
///
/// The parser is the tolerant half of the robustness principle: it accepts
/// any standards-shaped input (arbitrary whitespace, nested containers,
/// \uXXXX escapes) but never crashes, never recurses past kMaxDepth, and
/// rejects trailing garbage. Numbers are kept as doubles only, so integer
/// getters accept a number only where a double is exact (int range, or at
/// most 2^53 in magnitude for 64-bit fields).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Containers deeper than this fail to parse (stack safety under fuzz).
  static constexpr int kMaxDepth = 32;

  /// Parses exactly one JSON value spanning the whole input.
  static Result<JsonValue> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }

  /// Object member lookup; null when absent (or not an object).
  const JsonValue* Get(std::string_view key) const;

  /// The member as an int, range-checked; `fallback` when absent.
  Result<int> GetInt(std::string_view key, int fallback) const;
  /// The member as an int64_t, refused past 2^53 in magnitude; `fallback`
  /// when absent.
  Result<int64_t> GetInt64(std::string_view key, int64_t fallback) const;
  /// The member as a string; error when absent unless `required` is false
  /// (then empty).
  Result<std::string> GetString(std::string_view key, bool required) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Serializes `text` as a JSON string literal (quotes included). Control
/// characters and DEL are \u-escaped, so the line never holds a raw
/// newline; other bytes (UTF-8 included) are copied, so any byte string
/// survives JsonValue::Parse unchanged.
std::string JsonQuote(std::string_view text);

/// The client→server operations.
enum class ClientOp { kOpen, kNext, kAnswer, kClose, kPing, kHealth, kMutate };

/// One parsed client frame; fields beyond `op`/`id` are op-specific.
struct ClientFrame {
  ClientOp op = ClientOp::kPing;
  std::string id;
  // open
  std::string strategy;
  double budget = 0.0;
  bool has_budget = false;
  bool resume = false;
  // answer
  int seq = -1;
  Answer answer = Answer::kIdk;
  double retry_cost = 0.0;
  bool exhausted = false;
  // mutate
  std::vector<Mutation> mutations;
};

/// Parses one client line. Any malformed input yields a Status (never a
/// crash) — this is the daemon's attack surface and the fuzz target's
/// entry point.
Result<ClientFrame> ParseClientFrame(std::string_view line);

/// Serializes a client frame (no trailing newline) — the load generator's
/// writer, kept next to the parser so the two cannot drift.
std::string FormatClientFrame(const ClientFrame& frame);

/// The server→client frame types.
enum class ServerFrameType {
  kQuestion,
  kReport,
  kError,
  kClosed,
  kPong,
  kHealth,
  kMutated
};

/// Machine-readable error slugs carried in error frames' `code`. Kept as
/// named constants so the daemon, loadgen, and tests cannot drift.
namespace error_code {
inline constexpr char kOverloaded[] = "overloaded";
inline constexpr char kRateLimited[] = "rate_limited";
inline constexpr char kQuarantined[] = "quarantined";
inline constexpr char kBadFrame[] = "bad_frame";
inline constexpr char kDraining[] = "draining";
/// The session's journal can no longer persist answers (failed write or
/// fsync). The in-memory session is consistent but must not advance; the
/// client should close and re-open elsewhere.
inline constexpr char kStorageFailed[] = "storage_failed";
/// The journal failed its checksum (bit-rot / mid-file corruption) and was
/// quarantined; a resume can never succeed. Terminal, do not retry.
inline constexpr char kJournalCorrupt[] = "journal_corrupt";
/// A resume pinned to a data version the live dataset no longer serves
/// (the epoch ring moved on, or the base content changed). Replaying the
/// journaled answers onto different data would be silently wrong, so the
/// refusal is terminal — open a fresh session instead.
inline constexpr char kVersionMismatch[] = "version_mismatch";
}  // namespace error_code

/// The default slug for a status with no call-site-specific code (e.g.
/// kNotFound → "not_found", kResourceExhausted → "overloaded").
const char* DefaultErrorCode(StatusCode code);

/// The op=health reply: the daemon's overload posture in one frame. The
/// session/admission fields come from the SessionManager; the connection
/// fields are filled by the daemon's reactor (zero when the manager is
/// driven without one, as in unit tests).
struct HealthInfo {
  int brownout = 0;  ///< 0 normal, 1 over soft limit, 2 near hard limit.
  int active_sessions = 0;
  int active_connections = 0;
  // SessionManager counters.
  int64_t opened = 0;
  int64_t finished = 0;
  int64_t evicted = 0;
  int64_t refused = 0;
  // AdmissionController counters.
  int64_t rate_limited = 0;
  int64_t deadline_shed = 0;
  int64_t brownout_refused = 0;
  int64_t brownout_shed = 0;
  // Reactor counters.
  int64_t accepted = 0;
  int64_t dropped = 0;
  int64_t dropped_slow_reader = 0;
  int64_t reaped_idle = 0;
  // Durable-state counters: the startup recovery scan's index plus the
  // running quarantine/storage-failure tallies.
  int64_t journals_resumable = 0;
  int64_t journals_finished = 0;
  int64_t journals_quarantined = 0;
  int64_t journals_gced = 0;
  int64_t storage_failed = 0;
};

/// One parsed server frame (the load generator's read side).
struct ServerFrame {
  ServerFrameType type = ServerFrameType::kPong;
  std::string id;
  SessionQuestion question;  // kQuestion
  std::string report;        // kReport: canonical SerializeSessionReport text
  int code = 0;              // kError: StatusCode as int (wire: "status")
  std::string error_code;    // kError: machine-readable slug (wire: "code")
  int retry_after_ms = -1;   // kError: retry hint; negative = absent
  std::string message;       // kError
  HealthInfo health;         // kHealth
  // kMutated
  DataVersion version = 0;
  int applied = 0;
  int refused = 0;
};

/// Parses one server line; tolerant, never crashes.
Result<ServerFrame> ParseServerFrame(std::string_view line);

/// Serializes any server frame: the inverse of ParseServerFrame.
std::string FormatServerFrame(const ServerFrame& frame);

std::string FormatQuestionFrame(const std::string& id,
                                const SessionQuestion& question);
std::string FormatReportFrame(const std::string& id,
                              const SessionReport& report);
/// Error with the status's default slug and no retry hint.
std::string FormatErrorFrame(const std::string& id, const Status& status);
/// Error with an explicit slug and (when `retry_after_ms` >= 0) a retry
/// hint — the structured-refusal form every admission shed uses.
std::string FormatErrorFrame(const std::string& id, const Status& status,
                             const std::string& code, int retry_after_ms);
std::string FormatClosedFrame(const std::string& id);
std::string FormatPongFrame();
std::string FormatHealthFrame(const HealthInfo& health);
/// The op=mutate acknowledgement: the data version after the batch plus
/// how many ops applied / were refused.
std::string FormatMutatedFrame(const std::string& id, DataVersion version,
                               int applied, int refused);

/// \brief Canonical, byte-comparable text form of a SessionReport.
///
/// Every double is a hexfloat, every collection is emitted in its stored
/// (deterministic) order — two reports serialize identically iff the runs
/// were bit-identical, which is exactly the check the load generator
/// performs against its in-process reference run.
std::string SerializeSessionReport(const SessionReport& report);

}  // namespace uguide

#endif  // UGUIDE_SERVER_PROTOCOL_H_
