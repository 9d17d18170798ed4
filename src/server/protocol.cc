#include "server/protocol.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace uguide {

namespace {

constexpr size_t kMaxFrameBytes = 1 << 20;  // 1 MiB: no legitimate frame
                                            // comes close; bounds hostile
                                            // allocations during parse.

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("protocol: " + what);
}

}  // namespace

/// Recursive-descent JSON parser over a cursor. Depth-limited; every
/// failure is a Status.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    UGUIDE_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) return Malformed("trailing bytes after value");
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > JsonValue::kMaxDepth) return Malformed("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Malformed("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (ConsumeWord("null")) return JsonValue();
    if (ConsumeWord("true")) return MakeBool(true);
    if (ConsumeWord("false")) return MakeBool(false);
    return ParseNumber();
  }

  static JsonValue MakeBool(bool value) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = value;
    return v;
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return v;
    while (true) {
      SkipSpace();
      UGUIDE_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Malformed("expected ':' in object");
      UGUIDE_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      v.object_.emplace_back(std::move(key.string_), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      return Malformed("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return v;
    while (true) {
      UGUIDE_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
      v.array_.push_back(std::move(item));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      return Malformed("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    if (!Consume('"')) return Malformed("expected string");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Malformed("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') break;
      if (c < 0x20) return Malformed("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      if (pos_ >= text_.size()) return Malformed("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          UGUIDE_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          // Surrogate pairs: a high surrogate must be followed by \uDC00..
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!ConsumeWord("\\u")) return Malformed("lone high surrogate");
            UGUIDE_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Malformed("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Malformed("lone low surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Malformed("unknown escape");
      }
      if (out.size() > kMaxFrameBytes) return Malformed("string too long");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kString;
    v.string_ = std::move(out);
    return v;
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Malformed("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Malformed("bad \\u escape digit");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Malformed("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(token.c_str(), &end);
    if (errno == ERANGE || end != token.c_str() + token.size()) {
      return Malformed("bad number");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

namespace {

Result<Answer> ParseAnswerToken(std::string_view token) {
  if (token == "yes") return Answer::kYes;
  if (token == "no") return Answer::kNo;
  if (token == "idk") return Answer::kIdk;
  return Malformed("bad answer token");
}

const char* KindToken(QuestionKind kind) {
  switch (kind) {
    case QuestionKind::kCell:
      return "cell";
    case QuestionKind::kTuple:
      return "tuple";
    case QuestionKind::kFd:
      return "fd";
  }
  return "?";
}

Result<QuestionKind> ParseKindToken(std::string_view token) {
  if (token == "cell") return QuestionKind::kCell;
  if (token == "tuple") return QuestionKind::kTuple;
  if (token == "fd") return QuestionKind::kFd;
  return Malformed("bad question kind");
}

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  if (text.size() > kMaxFrameBytes) return Malformed("frame too large");
  return JsonParser(text).Parse();
}

const JsonValue* JsonValue::Get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<int> JsonValue::GetInt(std::string_view key, int fallback) const {
  const JsonValue* v = Get(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) return Malformed(std::string(key) + " must be a number");
  const double d = v->number_value();
  if (d < static_cast<double>(std::numeric_limits<int>::min()) ||
      d > static_cast<double>(std::numeric_limits<int>::max()) ||
      d != static_cast<double>(static_cast<int64_t>(d))) {
    return Malformed(std::string(key) + " out of integer range");
  }
  return static_cast<int>(d);
}

Result<bool> JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Get(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) return Malformed(std::string(key) + " must be a bool");
  return v->bool_value();
}

Result<std::string> JsonValue::GetString(std::string_view key,
                                         bool required) const {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) return Malformed("missing field: " + std::string(key));
    return std::string();
  }
  if (!v->is_string()) return Malformed(std::string(key) + " must be a string");
  return v->string_value();
}

std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x7F) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(raw);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string HexFloat(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

Result<double> ParseHexFloat(std::string_view token) {
  if (token.empty() || token.size() > 64) return Malformed("bad float token");
  const std::string owned(token);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return Malformed("bad float token");
  }
  return value;
}

Result<ClientFrame> ParseClientFrame(std::string_view line) {
  UGUIDE_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) return Malformed("frame must be an object");
  UGUIDE_ASSIGN_OR_RETURN(std::string op, root.GetString("op", true));

  ClientFrame frame;
  UGUIDE_ASSIGN_OR_RETURN(frame.id, root.GetString("id", false));
  if (op == "ping") {
    frame.op = ClientOp::kPing;
    return frame;
  }
  if (op == "health") {
    frame.op = ClientOp::kHealth;
    return frame;
  }
  if (frame.id.empty()) return Malformed("missing field: id");
  if (frame.id.size() > 128) return Malformed("id too long");

  if (op == "open") {
    frame.op = ClientOp::kOpen;
    UGUIDE_ASSIGN_OR_RETURN(frame.strategy, root.GetString("strategy", true));
    const JsonValue* budget = root.Get("budget");
    if (budget != nullptr) {
      if (budget->is_number()) {
        frame.budget = budget->number_value();
      } else if (budget->is_string()) {
        UGUIDE_ASSIGN_OR_RETURN(frame.budget,
                                ParseHexFloat(budget->string_value()));
      } else {
        return Malformed("budget must be a number or hexfloat string");
      }
      frame.has_budget = true;
    }
    UGUIDE_ASSIGN_OR_RETURN(frame.resume, root.GetBool("resume", false));
    return frame;
  }
  if (op == "next") {
    frame.op = ClientOp::kNext;
    return frame;
  }
  if (op == "answer") {
    frame.op = ClientOp::kAnswer;
    UGUIDE_ASSIGN_OR_RETURN(frame.seq, root.GetInt("seq", -1));
    if (frame.seq < 0) return Malformed("missing field: seq");
    UGUIDE_ASSIGN_OR_RETURN(std::string answer,
                            root.GetString("answer", true));
    UGUIDE_ASSIGN_OR_RETURN(frame.answer, ParseAnswerToken(answer));
    const JsonValue* retry = root.Get("retry_cost");
    if (retry != nullptr) {
      if (!retry->is_string()) {
        return Malformed("retry_cost must be a hexfloat string");
      }
      UGUIDE_ASSIGN_OR_RETURN(frame.retry_cost,
                              ParseHexFloat(retry->string_value()));
    }
    UGUIDE_ASSIGN_OR_RETURN(frame.exhausted, root.GetBool("exhausted", false));
    return frame;
  }
  if (op == "close") {
    frame.op = ClientOp::kClose;
    return frame;
  }
  if (op == "mutate") {
    frame.op = ClientOp::kMutate;
    const JsonValue* ops = root.Get("ops");
    if (ops == nullptr || ops->kind() != JsonValue::Kind::kArray) {
      return Malformed("missing field: ops");
    }
    const std::vector<JsonValue>& items = ops->array_items();
    if (items.empty()) return Malformed("ops must be non-empty");
    if (items.size() > 1024) return Malformed("too many ops");
    for (const JsonValue& item : items) {
      if (!item.is_object()) return Malformed("op must be an object");
      UGUIDE_ASSIGN_OR_RETURN(std::string kind, item.GetString("kind", true));
      Mutation m;
      if (kind == "append") {
        m.kind = MutationKind::kAppend;
        const JsonValue* values = item.Get("values");
        if (values == nullptr || values->kind() != JsonValue::Kind::kArray) {
          return Malformed("append needs values");
        }
        for (const JsonValue& v : values->array_items()) {
          if (!v.is_string()) return Malformed("append values must be strings");
          m.values.push_back(v.string_value());
        }
        if (m.values.empty()) return Malformed("append needs values");
      } else if (kind == "update") {
        m.kind = MutationKind::kUpdate;
        UGUIDE_ASSIGN_OR_RETURN(int row, item.GetInt("row", -1));
        UGUIDE_ASSIGN_OR_RETURN(int col, item.GetInt("col", -1));
        if (row < 0 || col < 0) return Malformed("bad update target");
        m.row = row;
        m.col = col;
        UGUIDE_ASSIGN_OR_RETURN(m.value, item.GetString("value", true));
      } else if (kind == "delete") {
        m.kind = MutationKind::kDelete;
        UGUIDE_ASSIGN_OR_RETURN(int row, item.GetInt("row", -1));
        if (row < 0) return Malformed("bad delete target");
        m.row = row;
      } else {
        return Malformed("unknown mutation kind: " + kind);
      }
      frame.mutations.push_back(std::move(m));
    }
    return frame;
  }
  return Malformed("unknown op: " + op);
}

std::string FormatClientFrame(const ClientFrame& frame) {
  std::ostringstream out;
  switch (frame.op) {
    case ClientOp::kPing:
      return "{\"op\":\"ping\"}";
    case ClientOp::kHealth:
      return "{\"op\":\"health\"}";
    case ClientOp::kOpen:
      out << "{\"op\":\"open\",\"id\":" << JsonQuote(frame.id)
          << ",\"strategy\":" << JsonQuote(frame.strategy);
      if (frame.has_budget) {
        out << ",\"budget\":" << JsonQuote(HexFloat(frame.budget));
      }
      if (frame.resume) out << ",\"resume\":true";
      out << "}";
      return out.str();
    case ClientOp::kNext:
      out << "{\"op\":\"next\",\"id\":" << JsonQuote(frame.id) << "}";
      return out.str();
    case ClientOp::kAnswer:
      out << "{\"op\":\"answer\",\"id\":" << JsonQuote(frame.id)
          << ",\"seq\":" << frame.seq
          << ",\"answer\":\"" << AnswerName(frame.answer) << "\"";
      if (frame.retry_cost != 0.0) {
        out << ",\"retry_cost\":" << JsonQuote(HexFloat(frame.retry_cost));
      }
      if (frame.exhausted) out << ",\"exhausted\":true";
      out << "}";
      return out.str();
    case ClientOp::kClose:
      out << "{\"op\":\"close\",\"id\":" << JsonQuote(frame.id) << "}";
      return out.str();
    case ClientOp::kMutate: {
      out << "{\"op\":\"mutate\",\"id\":" << JsonQuote(frame.id)
          << ",\"ops\":[";
      for (size_t i = 0; i < frame.mutations.size(); ++i) {
        const Mutation& m = frame.mutations[i];
        if (i > 0) out << ",";
        switch (m.kind) {
          case MutationKind::kAppend:
            out << "{\"kind\":\"append\",\"values\":[";
            for (size_t j = 0; j < m.values.size(); ++j) {
              if (j > 0) out << ",";
              out << JsonQuote(m.values[j]);
            }
            out << "]}";
            break;
          case MutationKind::kUpdate:
            out << "{\"kind\":\"update\",\"row\":" << m.row
                << ",\"col\":" << m.col
                << ",\"value\":" << JsonQuote(m.value) << "}";
            break;
          case MutationKind::kDelete:
            out << "{\"kind\":\"delete\",\"row\":" << m.row << "}";
            break;
        }
      }
      out << "]}";
      return out.str();
    }
  }
  return "{}";
}

std::string FormatQuestionFrame(const std::string& id,
                                const SessionQuestion& question) {
  std::ostringstream out;
  out << "{\"type\":\"question\",\"id\":" << JsonQuote(id)
      << ",\"seq\":" << question.index << ",\"kind\":\""
      << KindToken(question.kind) << "\"";
  switch (question.kind) {
    case QuestionKind::kCell:
      out << ",\"row\":" << question.cell.row
          << ",\"col\":" << question.cell.col;
      break;
    case QuestionKind::kTuple:
      out << ",\"row\":" << question.row;
      break;
    case QuestionKind::kFd: {
      char mask[24];
      std::snprintf(mask, sizeof(mask), "%" PRIx64, question.fd.lhs.mask());
      out << ",\"lhs\":\"" << mask << "\",\"rhs\":" << question.fd.rhs;
      break;
    }
  }
  out << ",\"cost\":" << JsonQuote(HexFloat(question.nominal_cost));
  if (question.replayed) out << ",\"replayed\":true";
  out << "}";
  return out.str();
}

std::string FormatReportFrame(const std::string& id,
                              const SessionReport& report) {
  return "{\"type\":\"report\",\"id\":" + JsonQuote(id) +
         ",\"report\":" + JsonQuote(SerializeSessionReport(report)) + "}";
}

const char* DefaultErrorCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return "bad_request";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kNotImplemented:
      return "not_implemented";
    case StatusCode::kResourceExhausted:
      return error_code::kOverloaded;
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDataLoss:
      return error_code::kJournalCorrupt;
  }
  return "error";
}

std::string FormatErrorFrame(const std::string& id, const Status& status,
                             const std::string& code, int retry_after_ms) {
  std::ostringstream out;
  out << "{\"type\":\"error\",";
  if (!id.empty()) out << "\"id\":" << JsonQuote(id) << ",";
  out << "\"code\":" << JsonQuote(code)
      << ",\"status\":" << static_cast<int>(status.code());
  if (retry_after_ms >= 0) out << ",\"retry_after_ms\":" << retry_after_ms;
  out << ",\"message\":" << JsonQuote(status.message()) << "}";
  return out.str();
}

std::string FormatErrorFrame(const std::string& id, const Status& status) {
  return FormatErrorFrame(id, status, DefaultErrorCode(status.code()),
                          /*retry_after_ms=*/-1);
}

std::string FormatClosedFrame(const std::string& id) {
  return "{\"type\":\"closed\",\"id\":" + JsonQuote(id) + "}";
}

std::string FormatPongFrame() { return "{\"type\":\"pong\"}"; }

std::string FormatMutatedFrame(const std::string& id, DataVersion version,
                               int applied, int refused) {
  std::ostringstream out;
  out << "{\"type\":\"mutated\",\"id\":" << JsonQuote(id)
      << ",\"version\":" << version << ",\"applied\":" << applied
      << ",\"refused\":" << refused << "}";
  return out.str();
}

std::string FormatHealthFrame(const HealthInfo& health) {
  std::ostringstream out;
  out << "{\"type\":\"health\",\"brownout\":" << health.brownout
      << ",\"active_sessions\":" << health.active_sessions
      << ",\"active_connections\":" << health.active_connections
      << ",\"opened\":" << health.opened << ",\"finished\":" << health.finished
      << ",\"evicted\":" << health.evicted << ",\"refused\":" << health.refused
      << ",\"rate_limited\":" << health.rate_limited
      << ",\"deadline_shed\":" << health.deadline_shed
      << ",\"brownout_refused\":" << health.brownout_refused
      << ",\"brownout_shed\":" << health.brownout_shed
      << ",\"accepted\":" << health.accepted
      << ",\"dropped\":" << health.dropped
      << ",\"dropped_slow_reader\":" << health.dropped_slow_reader
      << ",\"reaped_idle\":" << health.reaped_idle
      << ",\"journals_resumable\":" << health.journals_resumable
      << ",\"journals_finished\":" << health.journals_finished
      << ",\"journals_quarantined\":" << health.journals_quarantined
      << ",\"journals_gced\":" << health.journals_gced
      << ",\"storage_failed\":" << health.storage_failed << "}";
  return out.str();
}

Result<ServerFrame> ParseServerFrame(std::string_view line) {
  UGUIDE_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) return Malformed("frame must be an object");
  UGUIDE_ASSIGN_OR_RETURN(std::string type, root.GetString("type", true));

  ServerFrame frame;
  UGUIDE_ASSIGN_OR_RETURN(frame.id, root.GetString("id", false));
  if (type == "pong") {
    frame.type = ServerFrameType::kPong;
    return frame;
  }
  if (type == "closed") {
    frame.type = ServerFrameType::kClosed;
    return frame;
  }
  if (type == "error") {
    frame.type = ServerFrameType::kError;
    // `code` is the machine-readable slug and `status` the numeric
    // StatusCode; the daemon always sends both.
    UGUIDE_ASSIGN_OR_RETURN(frame.error_code, root.GetString("code", true));
    if (root.Get("status") == nullptr) {
      return Malformed("missing field: status");
    }
    UGUIDE_ASSIGN_OR_RETURN(frame.code, root.GetInt("status", 0));
    UGUIDE_ASSIGN_OR_RETURN(frame.retry_after_ms,
                            root.GetInt("retry_after_ms", -1));
    UGUIDE_ASSIGN_OR_RETURN(frame.message, root.GetString("message", false));
    return frame;
  }
  if (type == "health") {
    frame.type = ServerFrameType::kHealth;
    HealthInfo& h = frame.health;
    UGUIDE_ASSIGN_OR_RETURN(h.brownout, root.GetInt("brownout", 0));
    UGUIDE_ASSIGN_OR_RETURN(h.active_sessions,
                            root.GetInt("active_sessions", 0));
    UGUIDE_ASSIGN_OR_RETURN(h.active_connections,
                            root.GetInt("active_connections", 0));
    const std::pair<std::string_view, int64_t*> counters[] = {
        {"opened", &h.opened},
        {"finished", &h.finished},
        {"evicted", &h.evicted},
        {"refused", &h.refused},
        {"rate_limited", &h.rate_limited},
        {"deadline_shed", &h.deadline_shed},
        {"brownout_refused", &h.brownout_refused},
        {"brownout_shed", &h.brownout_shed},
        {"accepted", &h.accepted},
        {"dropped", &h.dropped},
        {"dropped_slow_reader", &h.dropped_slow_reader},
        {"reaped_idle", &h.reaped_idle},
        {"journals_resumable", &h.journals_resumable},
        {"journals_finished", &h.journals_finished},
        {"journals_quarantined", &h.journals_quarantined},
        {"journals_gced", &h.journals_gced},
        {"storage_failed", &h.storage_failed}};
    for (const auto& [key, target] : counters) {
      UGUIDE_ASSIGN_OR_RETURN(const int value, root.GetInt(key, 0));
      *target = value;
    }
    return frame;
  }
  if (type == "report") {
    frame.type = ServerFrameType::kReport;
    UGUIDE_ASSIGN_OR_RETURN(frame.report, root.GetString("report", true));
    return frame;
  }
  if (type == "mutated") {
    frame.type = ServerFrameType::kMutated;
    UGUIDE_ASSIGN_OR_RETURN(const int version, root.GetInt("version", 0));
    if (version < 0) return Malformed("bad version");
    frame.version = static_cast<DataVersion>(version);
    UGUIDE_ASSIGN_OR_RETURN(frame.applied, root.GetInt("applied", 0));
    UGUIDE_ASSIGN_OR_RETURN(frame.refused, root.GetInt("refused", 0));
    return frame;
  }
  if (type == "question") {
    frame.type = ServerFrameType::kQuestion;
    UGUIDE_ASSIGN_OR_RETURN(frame.question.index, root.GetInt("seq", -1));
    if (frame.question.index < 0) return Malformed("missing field: seq");
    UGUIDE_ASSIGN_OR_RETURN(std::string kind, root.GetString("kind", true));
    UGUIDE_ASSIGN_OR_RETURN(frame.question.kind, ParseKindToken(kind));
    switch (frame.question.kind) {
      case QuestionKind::kCell: {
        UGUIDE_ASSIGN_OR_RETURN(int row, root.GetInt("row", -1));
        UGUIDE_ASSIGN_OR_RETURN(int col, root.GetInt("col", -1));
        if (row < 0 || col < 0) return Malformed("bad cell question");
        frame.question.cell = Cell{row, col};
        break;
      }
      case QuestionKind::kTuple: {
        UGUIDE_ASSIGN_OR_RETURN(int row, root.GetInt("row", -1));
        if (row < 0) return Malformed("bad tuple question");
        frame.question.row = row;
        break;
      }
      case QuestionKind::kFd: {
        UGUIDE_ASSIGN_OR_RETURN(std::string lhs, root.GetString("lhs", true));
        if (lhs.empty() || lhs.size() > 16) return Malformed("bad lhs mask");
        char* end = nullptr;
        errno = 0;
        const uint64_t mask = std::strtoull(lhs.c_str(), &end, 16);
        if (errno != 0 || end != lhs.c_str() + lhs.size()) {
          return Malformed("bad lhs mask");
        }
        UGUIDE_ASSIGN_OR_RETURN(int rhs, root.GetInt("rhs", -1));
        if (rhs < 0 || rhs >= 64) return Malformed("bad rhs attribute");
        frame.question.fd = Fd(AttributeSet(mask), rhs);
        break;
      }
    }
    UGUIDE_ASSIGN_OR_RETURN(std::string cost, root.GetString("cost", true));
    UGUIDE_ASSIGN_OR_RETURN(frame.question.nominal_cost, ParseHexFloat(cost));
    UGUIDE_ASSIGN_OR_RETURN(frame.question.replayed,
                            root.GetBool("replayed", false));
    return frame;
  }
  return Malformed("unknown frame type: " + type);
}

std::string SerializeSessionReport(const SessionReport& report) {
  std::ostringstream out;
  out << "strategy=" << report.strategy_name << "\n";
  out << "cost_spent=" << HexFloat(report.result.cost_spent) << "\n";
  out << "questions_asked=" << report.result.questions_asked << "\n";
  out << "retry_cost=" << HexFloat(report.retry_cost) << "\n";
  out << "questions_exhausted=" << report.questions_exhausted << "\n";
  out << "questions_replayed=" << report.questions_replayed << "\n";
  out << "data_version=" << report.data_version << "\n";
  out << "accepted_fds=";
  for (size_t i = 0; i < report.result.accepted_fds.Size(); ++i) {
    const Fd& fd = report.result.accepted_fds[i];
    char mask[24];
    std::snprintf(mask, sizeof(mask), "%" PRIx64, fd.lhs.mask());
    if (i > 0) out << ",";
    out << mask << ">" << fd.rhs;
  }
  out << "\n";
  const DetectionMetrics& m = report.metrics;
  out << "metrics=" << m.detections << " " << m.true_positives << " "
      << m.false_positives << " " << m.false_negatives << " "
      << m.total_true_errors << " " << m.injected_detected << " "
      << m.total_injected << "\n";
  return out.str();
}

}  // namespace uguide
