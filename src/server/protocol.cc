#include "server/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

namespace uguide {

namespace {

constexpr size_t kMaxFrameBytes = 1 << 20;  // 1 MiB: no legitimate frame
                                            // comes close; bounds hostile
                                            // allocations during parse.

// 2^53: every integer of at most this magnitude is exact as a double, so a
// JSON number within it round-trips through int64_t unchanged.
constexpr double kMaxExactInteger = 9007199254740992.0;

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
        if (c < 0x20 || c == 0x7F) {
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

namespace {

// --- Frame rows -------------------------------------------------------------
//
// Each frame type's fields are declared once, as the list of rows in one
// function template below (ClientRows, ServerRows and the lists they call).
// A row names the wire key and the member it binds; the member's type picks
// the token (see AppendValue), and a third argument, when present, is the
// value the row is omitted at. FrameWriter instantiates a list to format a
// frame and FrameReader to parse one, so the two directions cannot drift.

constexpr std::string_view kIdKey = "id";
constexpr std::string_view kRowKey = "row";
constexpr size_t kMaxIdBytes = 128;
constexpr size_t kMaxMutations = 1024;

/// The wire name of one enum value of a discriminator (`op`, `type`,
/// `kind`).
template <typename E>
struct TagName {
  E tag;
  std::string_view name;
};

constexpr TagName<ClientOp> kClientOps[] = {
    {ClientOp::kOpen, "open"},     {ClientOp::kNext, "next"},
    {ClientOp::kAnswer, "answer"}, {ClientOp::kClose, "close"},
    {ClientOp::kPing, "ping"},     {ClientOp::kHealth, "health"},
    {ClientOp::kMutate, "mutate"}};
constexpr TagName<MutationKind> kMutationKinds[] = {
    {MutationKind::kAppend, "append"},
    {MutationKind::kUpdate, "update"},
    {MutationKind::kDelete, "delete"}};
constexpr TagName<ServerFrameType> kServerFrameTypes[] = {
    {ServerFrameType::kQuestion, "question"},
    {ServerFrameType::kReport, "report"},
    {ServerFrameType::kError, "error"},
    {ServerFrameType::kClosed, "closed"},
    {ServerFrameType::kPong, "pong"},
    {ServerFrameType::kHealth, "health"},
    {ServerFrameType::kMutated, "mutated"}};
constexpr TagName<QuestionKind> kQuestionKinds[] = {
    {QuestionKind::kCell, "cell"},
    {QuestionKind::kTuple, "tuple"},
    {QuestionKind::kFd, "fd"}};

/// Appends one member's token: a JSON string, bool or integer for those
/// types, a hexfloat string for a double, an answer token, a hex mask
/// string for an AttributeSet, an array of strings for a string vector.
template <typename T>
void AppendValue(const T& value, std::string* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out += JsonQuote(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    *out += value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    *out += std::to_string(value);
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    *out += '[';
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) *out += ',';
      *out += JsonQuote(value[i]);
    }
    *out += ']';
  } else {
    *out += '"';
    if constexpr (std::is_same_v<T, double>) *out += HexFloat(value);
    if constexpr (std::is_same_v<T, Answer>) *out += AnswerName(value);
    if constexpr (std::is_same_v<T, AttributeSet>) *out += HexMask(value.mask());
    *out += '"';
  }
}

Status MustBe(std::string_view key, const char* what) {
  return Malformed(std::string(key) + " must be " + what);
}

/// Reads what AppendValue writes. Integers must be exact: int members
/// within int range, 64-bit members within 2^53 (unsigned ones also
/// non-negative).
template <typename T>
Status ReadValue(const JsonValue& v, std::string_view key, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return MustBe(key, "a bool");
    *out = v.bool_value();
  } else if constexpr (std::is_integral_v<T>) {
    constexpr bool kNarrow = std::is_same_v<T, int>;
    const double lo = kNarrow ? std::numeric_limits<int>::min()
                      : std::is_signed_v<T> ? -kMaxExactInteger : 0.0;
    const double hi = kNarrow ? std::numeric_limits<int>::max()
                              : kMaxExactInteger;
    const double d = v.number_value();
    if (!v.is_number() || !(d >= lo && d <= hi) ||
        d != static_cast<double>(static_cast<int64_t>(d))) {
      return MustBe(key, "an integer in range");
    }
    *out = static_cast<T>(d);
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    if (v.kind() != JsonValue::Kind::kArray) return MustBe(key, "an array");
    for (const JsonValue& item : v.array_items()) {
      if (!item.is_string()) return MustBe(key, "an array of strings");
      out->push_back(item.string_value());
    }
  } else {
    if (!v.is_string()) return MustBe(key, "a string");
    const std::string& token = v.string_value();
    if constexpr (std::is_same_v<T, std::string>) *out = token;
    if constexpr (std::is_same_v<T, double>) {
      UGUIDE_ASSIGN_OR_RETURN(*out, ParseHexFloat(token));
    }
    if constexpr (std::is_same_v<T, Answer>) {
      UGUIDE_ASSIGN_OR_RETURN(*out, ParseAnswerToken(token));
    }
    if constexpr (std::is_same_v<T, AttributeSet>) {
      UGUIDE_ASSIGN_OR_RETURN(const uint64_t mask, ParseHexMask(token));
      *out = AttributeSet(mask);
    }
  }
  return Status::OK();
}

/// The member `key` of `object` read as a T; `fallback` when absent.
template <typename T>
Result<T> MemberOr(const JsonValue& object, std::string_view key, T fallback) {
  const JsonValue* v = object.Get(key);
  if (v != nullptr) UGUIDE_RETURN_NOT_OK(ReadValue(*v, key, &fallback));
  return fallback;
}

/// Formats one JSON object from a row list.
class FrameWriter {
 public:
  template <typename T>
  void Row(std::string_view key, const T& value) {
    out_ += out_.empty() ? "\"" : ",\"";
    out_ += key;
    out_ += "\":";
    AppendValue(value, &out_);
  }
  template <typename T>
  void Row(std::string_view key, const T& value, const T& omitted) {
    if (!(value == omitted)) Row(key, value);
  }
  template <typename E, size_t N>
  void Tag(std::string_view key, const TagName<E> (&names)[N], E tag) {
    for (const TagName<E>& name : names) {
      if (name.tag == tag) Row(key, std::string(name.name));
    }
  }
  /// Written as a hexfloat string when set.
  void Budget(std::string_view key, const ClientFrame& frame) {
    if (frame.has_budget) Row(key, frame.budget);
  }
  void Mutations(std::string_view key, const std::vector<Mutation>& ops);

  std::string Object() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

/// Parses one JSON object against a row list. The first failure sticks and
/// turns every later row into a no-op.
class FrameReader {
 public:
  explicit FrameReader(const JsonValue& object) : object_(object) {}

  template <typename T>
  void Row(std::string_view key, T& value) {
    Read(key, &value, /*required=*/true);
  }
  template <typename T>
  void Row(std::string_view key, T& value, const T& omitted) {
    value = omitted;
    Read(key, &value, /*required=*/false);
  }
  template <typename E, size_t N>
  void Tag(std::string_view key, const TagName<E> (&names)[N], E& tag) {
    std::string wire;
    Row(key, wire);
    if (!status_.ok()) return;
    for (const TagName<E>& name : names) {
      if (name.name == wire) {
        tag = name.tag;
        return;
      }
    }
    status_ = Malformed("unknown " + std::string(key) + ": " + wire);
  }
  /// Also accepts a plain JSON number, so a hand-typed open frame can give
  /// the budget in decimal.
  void Budget(std::string_view key, ClientFrame& frame) {
    const JsonValue* budget = object_.Get(key);
    frame.has_budget = budget != nullptr;
    if (frame.has_budget && budget->is_number()) {
      frame.budget = budget->number_value();
    } else {
      Read(key, &frame.budget, /*required=*/false);
    }
  }
  void Mutations(std::string_view key, std::vector<Mutation>& ops);

  const Status& status() const { return status_; }

 private:
  template <typename T>
  void Read(std::string_view key, T* value, bool required) {
    if (!status_.ok()) return;
    const JsonValue* v = object_.Get(key);
    if (v != nullptr) {
      status_ = ReadValue(*v, key, value);
    } else if (required) {
      status_ = Malformed("missing field: " + std::string(key));
    }
  }

  const JsonValue& object_;
  Status status_;
};

// The row lists. `F` is the frame type, const when formatting.

template <typename Io, typename F>
void MutationRows(Io& io, F& m) {
  io.Tag("kind", kMutationKinds, m.kind);
  switch (m.kind) {
    case MutationKind::kAppend:
      io.Row("values", m.values);
      break;
    case MutationKind::kUpdate:
      io.Row(kRowKey, m.row);
      io.Row("col", m.col);
      io.Row("value", m.value);
      break;
    case MutationKind::kDelete:
      io.Row(kRowKey, m.row);
      break;
  }
}

template <typename Io, typename F>
void ClientRows(Io& io, F& f) {
  io.Tag("op", kClientOps, f.op);
  if (f.op == ClientOp::kPing || f.op == ClientOp::kHealth) return;
  io.Row(kIdKey, f.id);
  switch (f.op) {
    case ClientOp::kOpen:
      io.Row("strategy", f.strategy);
      io.Budget("budget", f);
      io.Row("resume", f.resume, false);
      break;
    case ClientOp::kAnswer:
      io.Row("seq", f.seq);
      io.Row("answer", f.answer);
      io.Row("retry_cost", f.retry_cost, 0.0);
      io.Row("exhausted", f.exhausted, false);
      break;
    case ClientOp::kMutate:
      io.Mutations("ops", f.mutations);
      break;
    default:  // next, close: the id alone
      break;
  }
}

template <typename Io, typename F>
void QuestionRows(Io& io, F& q) {
  io.Row("seq", q.index);
  io.Tag("kind", kQuestionKinds, q.kind);
  switch (q.kind) {
    case QuestionKind::kCell:
      io.Row(kRowKey, q.cell.row);
      io.Row("col", q.cell.col);
      break;
    case QuestionKind::kTuple:
      io.Row(kRowKey, q.row);
      break;
    case QuestionKind::kFd:
      io.Row("lhs", q.fd.lhs);
      io.Row("rhs", q.fd.rhs);
      break;
  }
  io.Row("cost", q.nominal_cost);
  io.Row("replayed", q.replayed, false);
}

template <typename Io, typename F>
void HealthRows(Io& io, F& h) {
  io.Row("brownout", h.brownout);
  io.Row("active_sessions", h.active_sessions);
  io.Row("active_connections", h.active_connections);
  io.Row("opened", h.opened);
  io.Row("finished", h.finished);
  io.Row("evicted", h.evicted);
  io.Row("refused", h.refused);
  io.Row("rate_limited", h.rate_limited);
  io.Row("deadline_shed", h.deadline_shed);
  io.Row("brownout_refused", h.brownout_refused);
  io.Row("brownout_shed", h.brownout_shed);
  io.Row("accepted", h.accepted);
  io.Row("dropped", h.dropped);
  io.Row("dropped_slow_reader", h.dropped_slow_reader);
  io.Row("reaped_idle", h.reaped_idle);
  io.Row("journals_resumable", h.journals_resumable);
  io.Row("journals_finished", h.journals_finished);
  io.Row("journals_quarantined", h.journals_quarantined);
  io.Row("journals_gced", h.journals_gced);
  io.Row("storage_failed", h.storage_failed);
}

template <typename Io, typename F>
void ServerRows(Io& io, F& f) {
  io.Tag("type", kServerFrameTypes, f.type);
  switch (f.type) {
    case ServerFrameType::kQuestion:
      io.Row(kIdKey, f.id);
      QuestionRows(io, f.question);
      break;
    case ServerFrameType::kReport:
      io.Row(kIdKey, f.id);
      io.Row("report", f.report);
      break;
    case ServerFrameType::kError:
      // A refusal of a frame that named no session carries no id.
      io.Row(kIdKey, f.id, std::string());
      io.Row("code", f.error_code);
      io.Row("status", f.code);
      io.Row("retry_after_ms", f.retry_after_ms, -1);
      io.Row("message", f.message);
      break;
    case ServerFrameType::kClosed:
      io.Row(kIdKey, f.id);
      break;
    case ServerFrameType::kPong:
      break;
    case ServerFrameType::kHealth:
      HealthRows(io, f.health);
      break;
    case ServerFrameType::kMutated:
      io.Row(kIdKey, f.id);
      io.Row("version", f.version);
      io.Row("applied", f.applied);
      io.Row("refused", f.refused);
      break;
  }
}

void FrameWriter::Mutations(std::string_view key,
                            const std::vector<Mutation>& ops) {
  out_ += ",\"";
  out_ += key;
  out_ += "\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    FrameWriter op;
    MutationRows(op, ops[i]);
    if (i > 0) out_ += ',';
    out_ += op.Object();
  }
  out_ += ']';
}

void FrameReader::Mutations(std::string_view key, std::vector<Mutation>& ops) {
  if (!status_.ok()) return;
  const JsonValue* array = object_.Get(key);
  if (array == nullptr || array->kind() != JsonValue::Kind::kArray ||
      array->array_items().empty() ||
      array->array_items().size() > kMaxMutations) {
    status_ = MustBe(key, "a non-empty, bounded array");
    return;
  }
  for (const JsonValue& item : array->array_items()) {
    FrameReader op(item);  // a non-object item has no "kind" and fails
    Mutation m;
    MutationRows(op, m);
    status_ = op.status();
    // Fields a kind does not carry keep their valid defaults.
    if (status_.ok() && (m.row < 0 || m.col < 0 ||
                         (m.kind == MutationKind::kAppend && m.values.empty()))) {
      status_ = Malformed("bad mutation target or values");
    }
    if (!status_.ok()) return;
    ops.push_back(std::move(m));
  }
}

/// Rows and seqs are non-negative; col and rhs index an AttributeSet. The
/// fields of other question kinds keep valid defaults.
bool ValidQuestion(const SessionQuestion& q) {
  const auto attribute = [](int a) {
    return a >= 0 && a < AttributeSet::kMaxAttributes;
  };
  return q.index >= 0 && q.row >= 0 && q.cell.row >= 0 &&
         attribute(q.cell.col) && attribute(q.fd.rhs);
}

ServerFrame FrameOf(ServerFrameType type, const std::string& id = "") {
  ServerFrame frame;
  frame.type = type;
  frame.id = id;
  return frame;
}

Result<JsonValue> ParseObject(std::string_view line) {
  UGUIDE_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) return Malformed("frame must be an object");
  return root;
}

}  // namespace

Result<int> JsonValue::GetInt(std::string_view key, int fallback) const {
  return MemberOr(*this, key, fallback);
}

Result<int64_t> JsonValue::GetInt64(std::string_view key,
                                    int64_t fallback) const {
  return MemberOr(*this, key, fallback);
}

Result<std::string> JsonValue::GetString(std::string_view key,
                                         bool required) const {
  if (required && Get(key) == nullptr) {
    return Malformed("missing field: " + std::string(key));
  }
  return MemberOr(*this, key, std::string());
}

Result<ClientFrame> ParseClientFrame(std::string_view line) {
  UGUIDE_ASSIGN_OR_RETURN(const JsonValue root, ParseObject(line));
  FrameReader reader(root);
  ClientFrame frame;
  ClientRows(reader, frame);
  UGUIDE_RETURN_NOT_OK(reader.status());
  if (frame.op != ClientOp::kPing && frame.op != ClientOp::kHealth) {
    if (frame.id.empty()) return Malformed("missing field: id");
    if (frame.id.size() > kMaxIdBytes) return Malformed("id too long");
  }
  if (frame.op == ClientOp::kAnswer && frame.seq < 0) {
    return Malformed("bad answer seq");
  }
  return frame;
}

std::string FormatClientFrame(const ClientFrame& frame) {
  FrameWriter writer;
  ClientRows(writer, frame);
  return writer.Object();
}

Result<ServerFrame> ParseServerFrame(std::string_view line) {
  UGUIDE_ASSIGN_OR_RETURN(const JsonValue root, ParseObject(line));
  FrameReader reader(root);
  ServerFrame frame;
  ServerRows(reader, frame);
  UGUIDE_RETURN_NOT_OK(reader.status());
  if (!ValidQuestion(frame.question)) return Malformed("bad question target");
  return frame;
}

std::string FormatServerFrame(const ServerFrame& frame) {
  FrameWriter writer;
  ServerRows(writer, frame);
  return writer.Object();
}

std::string FormatQuestionFrame(const std::string& id,
                                const SessionQuestion& question) {
  ServerFrame frame = FrameOf(ServerFrameType::kQuestion, id);
  frame.question = question;
  return FormatServerFrame(frame);
}

std::string FormatReportFrame(const std::string& id,
                              const SessionReport& report) {
  ServerFrame frame = FrameOf(ServerFrameType::kReport, id);
  frame.report = SerializeSessionReport(report);
  return FormatServerFrame(frame);
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
  ServerFrame frame = FrameOf(ServerFrameType::kError, id);
  frame.code = static_cast<int>(status.code());
  frame.error_code = code;
  // Every negative hint means "none", which the table omits as the default.
  frame.retry_after_ms = std::max(retry_after_ms, -1);
  frame.message = status.message();
  return FormatServerFrame(frame);
}

std::string FormatErrorFrame(const std::string& id, const Status& status) {
  return FormatErrorFrame(id, status, DefaultErrorCode(status.code()),
                          /*retry_after_ms=*/-1);
}

std::string FormatClosedFrame(const std::string& id) {
  return FormatServerFrame(FrameOf(ServerFrameType::kClosed, id));
}

std::string FormatPongFrame() {
  return FormatServerFrame(FrameOf(ServerFrameType::kPong));
}

std::string FormatMutatedFrame(const std::string& id, DataVersion version,
                               int applied, int refused) {
  ServerFrame frame = FrameOf(ServerFrameType::kMutated, id);
  frame.version = version;
  frame.applied = applied;
  frame.refused = refused;
  return FormatServerFrame(frame);
}

std::string FormatHealthFrame(const HealthInfo& health) {
  ServerFrame frame = FrameOf(ServerFrameType::kHealth);
  frame.health = health;
  return FormatServerFrame(frame);
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
    if (i > 0) out << ",";
    out << HexMask(fd.lhs.mask()) << ">" << fd.rhs;
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
